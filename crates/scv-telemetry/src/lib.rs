//! `scv-telemetry` — the unified tracing/metrics layer of the
//! verification pipeline.
//!
//! Every pipeline crate (model checker, observer, checker, descriptor
//! codec, CLI, bench harness) reports through this facade:
//!
//! * **Phase spans** ([`timer`]) — RAII guards with monotonic timing for
//!   each pipeline phase (search, successor expansion, observer step,
//!   descriptor encode/decode, cycle/SC check, replay), recorded into
//!   per-phase log₂ histograms with nesting-depth tracking.
//! * **Metrics registry** ([`add`], [`record`], [`set_gauge`]) — a closed
//!   set of atomic counters and histograms indexed by enum (no name
//!   lookup on hot paths) plus dynamic named gauges for cold end-of-run
//!   values (stripe loads, peak RSS, states/sec).
//! * **Pluggable sinks** ([`install`]) — a no-op sink, a human
//!   `--telemetry=summary` table, and a `--telemetry=jsonl` stream of
//!   schema-versioned events; [`RunReport`]s give each run a durable,
//!   machine-readable record.
//!
//! ## The overhead contract
//!
//! Telemetry is **off by default**. Every recording site is guarded by
//! [`enabled`] — a single relaxed atomic load — so the disabled cost is
//! one predictable branch per callsite and *zero* allocation, locking, or
//! clock reads. When enabled, hot paths pay only atomic adds; spans cost
//! two monotonic clock reads, and per-transition spans are sampled
//! ([`timer_sampled`], 1 in [`SAMPLE_PERIOD`] weighted by the period) so
//! the common case is a thread-local counter bump. Sink I/O happens
//! exclusively at [`flush`] time from aggregated data. The
//! `telemetry_overhead` bench in `scv-bench` enforces ≤5% end-to-end
//! overhead on `verify_protocol` with telemetry enabled, and CI runs it
//! in quick mode.

pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod progress;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod span;

pub use json::Json;
pub use metrics::{
    bucket_bound, bucket_of, Hist, HistSnapshot, Metric, Registry, ALL_HISTS, ALL_METRICS,
};
pub use perfetto::{chrome_trace_json, validate_chrome_trace, write_chrome_trace, TraceStats};
pub use progress::{start_progress, ProgressHandle, ProgressOptions};
pub use recorder::{recorder_enabled, WorkerTimeline, DEFAULT_RING_CAPACITY};
pub use report::{parse_reports, RunReport, SCHEMA_VERSION};
pub use sink::{Event, JsonlSink, MemorySink, NoopSink, Sink, SummarySink};
pub use span::{current_depth, Phase, PhaseTable, SpanGuard, ALL_PHASES, SAMPLE_PERIOD};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);

fn registry_cell() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The global phase-span table (always present; recorded into only while
/// enabled).
pub fn phase_table() -> &'static PhaseTable {
    static PHASES: OnceLock<PhaseTable> = OnceLock::new();
    PHASES.get_or_init(PhaseTable::default)
}

/// The global metrics registry.
pub fn registry() -> &'static Registry {
    registry_cell()
}

/// Is telemetry collection on? One relaxed load — the per-callsite guard
/// every hot path uses.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn sink_slot() -> MutexGuard<'static, Option<Box<dyn Sink>>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install a sink, reset all counters/histograms/spans, and enable
/// collection. Replaces (and drops) any previous sink.
pub fn install(sink: Box<dyn Sink>) {
    let mut slot = sink_slot();
    registry().reset();
    phase_table().reset();
    *slot = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop collecting (the registry keeps its data; the sink stays
/// installed until [`shutdown`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Start a span for `phase`; `None` when telemetry is disabled. Bind the
/// guard (`let _t = timer(...)`) — the span records on drop.
#[inline]
pub fn timer(phase: Phase) -> Option<SpanGuard> {
    if enabled() {
        Some(SpanGuard::begin(phase))
    } else {
        None
    }
}

/// Start a *sampled* span: one call in [`SAMPLE_PERIOD`] is timed, its
/// duration weighted by the period so the phase aggregate still estimates
/// the full population; the other calls cost one thread-local counter
/// bump. Use at per-transition/per-symbol callsites where even two clock
/// reads per call would breach the overhead budget; use [`timer`] for
/// coarse phases where exact totals matter.
#[inline]
pub fn timer_sampled(phase: Phase) -> Option<SpanGuard> {
    if enabled() && span::sample(phase) {
        Some(SpanGuard::begin_weighted(phase, span::SAMPLE_PERIOD))
    } else {
        None
    }
}

/// Add to a counter (no-op when disabled).
#[inline]
pub fn add(metric: Metric, n: u64) {
    if enabled() {
        registry().add(metric, n);
    }
}

/// Record a histogram value (no-op when disabled).
#[inline]
pub fn record(metric: Hist, value: u64) {
    if enabled() {
        registry().record(metric, value);
    }
}

/// Set a named gauge (no-op when disabled; cold path — takes a lock).
pub fn set_gauge(name: &str, value: f64) {
    if enabled() {
        registry().set_gauge(name, value);
    }
}

/// Send one event to the installed sink (no-op when disabled).
pub fn event(e: Event) {
    if !enabled() {
        return;
    }
    if let Some(sink) = sink_slot().as_mut() {
        sink.record(&e);
    }
}

/// Emit a run report to the sink.
pub fn emit_report(report: RunReport) {
    event(Event::Report(report));
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). **Linux-only**: on every other platform this is
/// a documented `None` — there is no portable equivalent without a
/// dependency, so callers and sinks must *omit* the value rather than
/// report a fake zero (see [`flush`], which only sets the
/// `process.peak_rss_bytes` gauge when a reading exists).
#[cfg(target_os = "linux")]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set size: always `None` off Linux (no `/proc`). Sinks
/// and reports omit the gauge entirely rather than emitting zero.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_bytes() -> Option<u64> {
    None
}

/// Aggregate everything recorded so far into events (phase summaries,
/// counter/gauge snapshots, histogram summaries), push them to the sink,
/// and flush it. Safe to call repeatedly; each call snapshots the current
/// totals.
pub fn flush() {
    if !enabled() {
        return;
    }
    if let Some(rss) = peak_rss_bytes() {
        registry().set_gauge("process.peak_rss_bytes", rss as f64);
    }
    let mut slot = sink_slot();
    let Some(sink) = slot.as_mut() else {
        return;
    };
    let phases = phase_table();
    for &phase in &ALL_PHASES {
        let snap = phases.durations(phase);
        if snap.count == 0 {
            continue;
        }
        sink.record(&phase_summary(phase, &snap, phases.max_depth(phase)));
    }
    let counters = registry().counter_snapshot();
    if !counters.is_empty() {
        sink.record(&Event::Counters { items: counters });
    }
    for &h in &ALL_HISTS {
        let snap = registry().hist(h);
        if snap.count == 0 {
            continue;
        }
        sink.record(&Event::HistSummary {
            name: h.name(),
            count: snap.count,
            mean: snap.mean(),
            p50: snap.quantile(0.50),
            p95: snap.quantile(0.95),
            p99: snap.quantile(0.99),
            max: snap.max,
        });
    }
    let gauges = registry().gauges();
    if !gauges.is_empty() {
        sink.record(&Event::Gauges { items: gauges });
    }
    sink.flush();
}

/// One phase's summary event. The p99 is interpolated within its log₂
/// bucket ([`HistSnapshot::quantile`]), the same estimate histogram
/// summaries report.
fn phase_summary(phase: Phase, snap: &HistSnapshot, max_depth: u64) -> Event {
    Event::PhaseSummary {
        phase: phase.name(),
        count: snap.count,
        total_ns: snap.sum,
        mean_ns: snap.mean(),
        p99_ns: snap.quantile(0.99).round() as u64,
        max_ns: snap.max,
        max_depth,
    }
}

/// [`flush`], then disable collection and drop the sink.
pub fn shutdown() {
    flush();
    ENABLED.store(false, Ordering::SeqCst);
    *sink_slot() = None;
}

/// Serializes tests that touch the global telemetry state (the enabled
/// flag, registry, and sink are process-wide). Used by this crate's unit
/// tests and by integration tests in dependent crates.
pub fn test_mutex() -> &'static Mutex<()> {
    static TEST_MUTEX: OnceLock<Mutex<()>> = OnceLock::new();
    TEST_MUTEX.get_or_init(|| Mutex::new(()))
}

/// An exclusive telemetry session for tests: takes the global test lock,
/// installs a [`MemorySink`], and enables collection. Dropping it shuts
/// telemetry down. Read collected events via [`TestSession::events`].
pub struct TestSession {
    events: Arc<Mutex<Vec<Event>>>,
    _lock: MutexGuard<'static, ()>,
}

impl TestSession {
    /// Lock, install a memory sink, enable.
    pub fn start() -> TestSession {
        let lock = test_mutex().lock().unwrap_or_else(PoisonError::into_inner);
        let (sink, events) = MemorySink::new();
        install(Box::new(sink));
        TestSession {
            events,
            _lock: lock,
        }
    }

    /// Lock, force telemetry off and zero the registry and phase table,
    /// so disabled-path assertions do not see an earlier session's data.
    pub fn start_disabled() -> TestSession {
        let lock = test_mutex().lock().unwrap_or_else(PoisonError::into_inner);
        shutdown();
        registry().reset();
        phase_table().reset();
        let (_, events) = MemorySink::new();
        TestSession {
            events,
            _lock: lock,
        }
    }

    /// Everything the sink has received so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

impl Drop for TestSession {
    fn drop(&mut self) {
        shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_inert() {
        let _s = TestSession::start_disabled();
        assert!(!enabled());
        add(Metric::McTransitions, 10);
        record(Hist::SeenProbeLen, 3);
        set_gauge("x", 1.0);
        assert!(timer(Phase::Search).is_none());
        assert_eq!(registry().get(Metric::McTransitions), 0);
        assert_eq!(registry().hist(Hist::SeenProbeLen).count, 0);
    }

    #[test]
    fn install_resets_and_flush_aggregates() {
        let s = TestSession::start();
        assert!(enabled());
        add(Metric::ObserverSymbols, 3);
        record(Hist::SeenProbeLen, 2);
        set_gauge("mc.peak_frontier", 17.0);
        {
            let _t = timer(Phase::Search);
        }
        flush();
        let events = s.events();
        assert!(events.iter().any(
            |e| matches!(e, Event::PhaseSummary { phase, count: 1, .. } if *phase == "search")
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Counters { items } if items.contains(&("observer.symbols", 3))
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::HistSummary { name, .. } if *name == "seen.probe_len")));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Gauges { items } if items.iter().any(|(k, v)| k == "mc.peak_frontier" && *v == 17.0)
        )));
    }

    #[test]
    fn phase_summary_p99_is_interpolated_not_a_bucket_bound() {
        // 1..=200 plus one 10 000: rank 198.99 of 201 falls in the
        // 128..=255 bucket, 127 values before it, so the interpolated
        // p99 is 128 + (198.99 - 127) / 73 · 127 ≈ 253.24. The bucket's
        // upper bound would report 255 = 2⁸ − 1.
        let h = metrics::Histogram::default();
        for v in (1..=200u64).chain([10_000]) {
            h.record(v);
        }
        let snap = h.snapshot();
        let Event::PhaseSummary {
            p99_ns, max_depth, ..
        } = phase_summary(Phase::Search, &snap, 2)
        else {
            panic!("phase_summary builds a PhaseSummary");
        };
        assert_eq!(p99_ns, 253);
        assert_eq!(p99_ns, snap.quantile(0.99).round() as u64);
        assert_eq!(max_depth, 2);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_some_and_plausible_on_linux() {
        let rss = peak_rss_bytes().expect("Linux always exposes VmHWM");
        assert!(rss > 1024, "peak RSS should exceed a kilobyte: {rss}");
    }

    #[test]
    #[cfg(not(target_os = "linux"))]
    fn peak_rss_is_none_off_linux() {
        assert_eq!(peak_rss_bytes(), None);
    }

    #[test]
    fn flush_omits_rss_gauge_when_unavailable() {
        // On any platform: the gauge is present iff a reading exists —
        // never a fake zero.
        let s = TestSession::start();
        flush();
        let has_reading = peak_rss_bytes().is_some();
        let gauge = s.events().iter().find_map(|e| match e {
            Event::Gauges { items } => items
                .iter()
                .find(|(k, _)| k == "process.peak_rss_bytes")
                .map(|(_, v)| *v),
            _ => None,
        });
        match gauge {
            Some(v) => {
                assert!(has_reading, "gauge emitted without a reading");
                assert!(v > 0.0, "gauge must never be a fake zero");
            }
            None => assert!(!has_reading, "reading available but gauge omitted"),
        }
    }
}
