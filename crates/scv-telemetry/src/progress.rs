//! Live `--progress` ticker: a sampling thread over the metrics
//! registry and the recorder's live gauges.
//!
//! While a verify runs, the ticker prints one stderr status line per
//! period — cumulative states, states/sec over the last window, current
//! frontier depth, admission rate (states admitted / transitions
//! probed), and an ETA heuristic when a `--max-states` target is known
//! (`remaining / rate`, a ceiling: runs that exhaust their true state
//! space finish earlier). On a TTY the
//! line redraws in place; otherwise each sample is its own line so CI
//! logs stay readable.
//!
//! The sampler only *reads* — relaxed atomic counter loads and the
//! [`crate::recorder::live`] gauges — so it perturbs the run by nothing
//! measurable. When the flight recorder is enabled the same samples are
//! also recorded as counter-track events (states/sec, admission rate,
//! seal hit rate) on a dedicated `sampler` track, complementing the
//! frontier-depth / seen-states counters the engines emit inline.

use crate::metrics::Metric;
use crate::recorder::{self, CounterTrack, LiveGauge};
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for [`start_progress`].
#[derive(Clone, Debug)]
pub struct ProgressOptions {
    /// Sampling period (default 500 ms).
    pub period: Duration,
    /// State budget for the ETA heuristic (e.g. `--max-states`).
    pub target_states: Option<u64>,
}

impl Default for ProgressOptions {
    fn default() -> Self {
        ProgressOptions {
            period: Duration::from_millis(500),
            target_states: None,
        }
    }
}

/// Handle to a running ticker; stop (or drop) it before draining the
/// recorder so the sampler's own track is collected.
pub struct ProgressHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ProgressHandle {
    /// Signal the sampler and wait for it to exit (prints a final
    /// newline on a TTY so the next output starts clean).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ProgressHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn fmt_eta(secs: f64) -> String {
    if !secs.is_finite() || secs > 86_400.0 {
        return "--".to_string();
    }
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// One sampled snapshot and the derived line. Split out so tests can
/// exercise the formatting without a thread.
fn status_line(
    admitted: u64,
    rate: f64,
    frontier: u64,
    admission_rate: Option<f64>,
    target: Option<u64>,
) -> String {
    let mut line = format!(
        "[scv] states {} ({}/s) frontier {}",
        fmt_count(admitted),
        fmt_count(rate.max(0.0) as u64),
        fmt_count(frontier),
    );
    if let Some(a) = admission_rate {
        line.push_str(&format!(" admit {:.0}%", a * 100.0));
    }
    if let Some(t) = target {
        let remaining = t.saturating_sub(admitted);
        let eta = if rate > 1.0 {
            remaining as f64 / rate
        } else {
            f64::INFINITY
        };
        line.push_str(&format!(" eta≤{}", fmt_eta(eta)));
    }
    line
}

/// Spawn the sampling thread. Requires telemetry to be enabled (the
/// counters it reads only advance then); the caller installs a
/// [`crate::NoopSink`] when no other sink is wanted.
pub fn start_progress(opts: ProgressOptions) -> ProgressHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("scv-progress".to_string())
        .spawn(move || {
            recorder::set_worker("sampler");
            let tty = std::io::stderr().is_terminal();
            let reg = crate::registry();
            let t0 = Instant::now();
            let mut last = t0;
            let mut last_admitted = reg.get(Metric::McStatesAdmitted);
            let mut last_transitions = reg.get(Metric::McTransitions);
            let mut printed = false;
            loop {
                // Poll the stop flag at a finer grain than the period so
                // short runs don't block their caller for a full tick.
                let tick_end = Instant::now() + opts.period;
                while Instant::now() < tick_end {
                    if stop2.load(Ordering::SeqCst) {
                        if printed && tty {
                            eprintln!();
                        }
                        recorder::flush_worker();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                let now = Instant::now();
                let dt = now.duration_since(last).as_secs_f64().max(1e-9);
                last = now;
                let admitted = reg.get(Metric::McStatesAdmitted);
                let transitions = reg.get(Metric::McTransitions);
                let rate = (admitted - last_admitted) as f64 / dt;
                let d_trans = transitions.saturating_sub(last_transitions);
                let admission_rate = if d_trans > 0 {
                    Some((admitted - last_admitted) as f64 / d_trans as f64)
                } else {
                    None
                };
                last_admitted = admitted;
                last_transitions = transitions;
                let frontier = recorder::live(LiveGauge::FrontierDepth);
                if recorder::recorder_enabled() {
                    recorder::counter(CounterTrack::StatesPerSec, rate);
                    if let Some(a) = admission_rate {
                        recorder::counter(CounterTrack::AdmissionRate, a);
                    }
                }
                let line =
                    status_line(admitted, rate, frontier, admission_rate, opts.target_states);
                let mut err = std::io::stderr().lock();
                if tty {
                    let _ = write!(err, "\r\x1b[2K{line}");
                } else {
                    let _ = writeln!(err, "{line}");
                }
                let _ = err.flush();
                printed = true;
            }
        })
        .expect("spawn progress sampler");
    ProgressHandle {
        stop,
        join: Some(join),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_line_formats_all_fields() {
        let line = status_line(123_456, 9_876.0, 42, Some(0.25), Some(200_000));
        assert_eq!(
            line,
            "[scv] states 123.5k (9876/s) frontier 42 admit 25% eta≤8s"
        );
    }

    #[test]
    fn status_line_omits_unknown_rates_and_caps_eta() {
        let line = status_line(10, 0.0, 0, None, Some(1_000_000));
        assert_eq!(line, "[scv] states 10 (0/s) frontier 0 eta≤--");
        let bare = status_line(5, 2.0, 1, None, None);
        assert_eq!(bare, "[scv] states 5 (2/s) frontier 1");
    }

    #[test]
    fn ticker_starts_samples_and_stops() {
        let _s = crate::TestSession::start();
        crate::recorder::recorder_start(1024);
        crate::add(Metric::McStatesAdmitted, 100);
        crate::add(Metric::McTransitions, 400);
        let h = start_progress(ProgressOptions {
            period: Duration::from_millis(30),
            target_states: Some(1_000),
        });
        std::thread::sleep(Duration::from_millis(120));
        h.stop();
        crate::recorder::recorder_stop();
        let timelines = crate::recorder::drain();
        let sampler = timelines
            .iter()
            .find(|t| t.label == "sampler")
            .expect("sampler track collected after stop");
        assert!(sampler.events.iter().any(|e| matches!(
            e.event,
            crate::recorder::TraceEvent::Counter {
                track: CounterTrack::StatesPerSec,
                ..
            }
        )));
    }
}
