//! Pluggable telemetry sinks.
//!
//! A sink consumes [`Event`]s — aggregated phase summaries, counter
//! snapshots, histogram summaries, run reports, monitor divergences. Hot
//! paths never construct events; they record into the atomic registry and
//! the aggregates are turned into events once, at [`crate::flush`] time.
//! The three sinks:
//!
//! * [`NoopSink`] — discards everything. Combined with the per-callsite
//!   [`crate::enabled`] guard this is the "compiled to nothing" default:
//!   disabled telemetry costs one relaxed load per callsite.
//! * [`SummarySink`] — buffers events and renders one human-readable
//!   table (the `--telemetry=summary` CLI mode and the probe binaries).
//! * [`JsonlSink`] — one schema-versioned JSON object per line, written
//!   as events arrive (the `--telemetry=jsonl <path>` CLI mode and the
//!   bench harness's run reports).

use crate::json::Json;
use crate::report::{RunReport, SCHEMA_VERSION};
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};

/// One telemetry event. Cold-path only — constructed at flush/report
/// time, never per state or per symbol.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A run is starting (name + static parameters).
    RunStart {
        /// Run label (e.g. protocol name).
        name: String,
        /// Static key/value parameters.
        params: Vec<(String, String)>,
    },
    /// Aggregated timings for one pipeline phase.
    PhaseSummary {
        /// Phase name (see [`crate::Phase::name`]).
        phase: &'static str,
        /// Spans recorded.
        count: u64,
        /// Total nanoseconds across spans.
        total_ns: u64,
        /// Mean span nanoseconds.
        mean_ns: f64,
        /// Interpolated p99 span nanoseconds, rounded.
        p99_ns: u64,
        /// Largest single span in nanoseconds.
        max_ns: u64,
        /// Deepest nesting level the phase ran at.
        max_depth: u64,
    },
    /// A counter snapshot (name → value).
    Counters {
        /// `(name, value)` pairs, declaration order, zeros omitted.
        items: Vec<(&'static str, u64)>,
    },
    /// Aggregated view of one value histogram. Quantiles are linearly
    /// interpolated within their log₂ bucket
    /// (see [`crate::HistSnapshot::quantile`]).
    HistSummary {
        /// Histogram name (see [`crate::Hist::name`]).
        name: &'static str,
        /// Values recorded.
        count: u64,
        /// Mean value.
        mean: f64,
        /// Interpolated median.
        p50: f64,
        /// Interpolated p95 value.
        p95: f64,
        /// Interpolated p99 value.
        p99: f64,
        /// Largest recorded value.
        max: u64,
    },
    /// The online monitor diverged from / rejected the fed run.
    MonitorDivergence {
        /// Zero-based index of the offending step in the run.
        step_index: u64,
        /// The action/symbol being processed when the checker rejected.
        symbol: String,
        /// The checker's diagnosis (expected vs. observed).
        detail: String,
    },
    /// A complete, schema-versioned run report.
    Report(RunReport),
}

impl Event {
    /// The JSONL encoding of this event: a single-line, schema-versioned
    /// JSON object with a `type` discriminator.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> =
            vec![("schema".to_string(), Json::Num(SCHEMA_VERSION as f64))];
        let typ = |t: &str| ("type".to_string(), Json::Str(t.to_string()));
        match self {
            Event::RunStart { name, params } => {
                pairs.push(typ("run_start"));
                pairs.push(("name".to_string(), Json::Str(name.clone())));
                pairs.push((
                    "params".to_string(),
                    Json::obj(
                        params
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                    ),
                ));
            }
            Event::PhaseSummary {
                phase,
                count,
                total_ns,
                mean_ns,
                p99_ns,
                max_ns,
                max_depth,
            } => {
                pairs.push(typ("phase"));
                pairs.push(("phase".to_string(), Json::Str(phase.to_string())));
                pairs.push(("count".to_string(), Json::Num(*count as f64)));
                pairs.push(("total_ns".to_string(), Json::Num(*total_ns as f64)));
                pairs.push(("mean_ns".to_string(), Json::Num(*mean_ns)));
                pairs.push(("p99_ns".to_string(), Json::Num(*p99_ns as f64)));
                pairs.push(("max_ns".to_string(), Json::Num(*max_ns as f64)));
                pairs.push(("max_depth".to_string(), Json::Num(*max_depth as f64)));
            }
            Event::Counters { items } => {
                pairs.push(typ("counters"));
                pairs.push((
                    "counters".to_string(),
                    Json::obj(
                        items
                            .iter()
                            .map(|&(k, v)| (k.to_string(), Json::Num(v as f64))),
                    ),
                ));
            }
            Event::HistSummary {
                name,
                count,
                mean,
                p50,
                p95,
                p99,
                max,
            } => {
                pairs.push(typ("hist"));
                pairs.push(("name".to_string(), Json::Str(name.to_string())));
                pairs.push(("count".to_string(), Json::Num(*count as f64)));
                pairs.push(("mean".to_string(), Json::Num(*mean)));
                pairs.push(("p50".to_string(), Json::Num(*p50)));
                pairs.push(("p95".to_string(), Json::Num(*p95)));
                pairs.push(("p99".to_string(), Json::Num(*p99)));
                pairs.push(("max".to_string(), Json::Num(*max as f64)));
            }
            Event::MonitorDivergence {
                step_index,
                symbol,
                detail,
            } => {
                pairs.push(typ("monitor_divergence"));
                pairs.push(("step_index".to_string(), Json::Num(*step_index as f64)));
                pairs.push(("symbol".to_string(), Json::Str(symbol.clone())));
                pairs.push(("detail".to_string(), Json::Str(detail.clone())));
            }
            Event::Report(r) => return r.to_json(),
        }
        Json::obj(pairs)
    }
}

/// A telemetry event consumer.
pub trait Sink: Send {
    /// Consume one event.
    fn record(&mut self, event: &Event);

    /// Make buffered output durable / render it.
    fn flush(&mut self) {}
}

/// Discards everything.
#[derive(Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&mut self, _event: &Event) {}
}

/// Buffers events and renders one aligned human-readable summary on
/// flush. Writes to stdout by default; tests can inject any writer.
pub struct SummarySink {
    events: Vec<Event>,
    out: Box<dyn Write + Send>,
}

impl Default for SummarySink {
    fn default() -> Self {
        SummarySink::new(Box::new(std::io::stdout()))
    }
}

impl SummarySink {
    /// Render into an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        SummarySink {
            events: Vec::new(),
            out,
        }
    }

    fn render(&mut self) -> std::io::Result<()> {
        let out = &mut self.out;
        let fmt_ns = |ns: f64| -> String {
            if ns < 1e3 {
                format!("{ns:.0}ns")
            } else if ns < 1e6 {
                format!("{:.2}µs", ns / 1e3)
            } else if ns < 1e9 {
                format!("{:.2}ms", ns / 1e6)
            } else {
                format!("{:.3}s", ns / 1e9)
            }
        };
        writeln!(
            out,
            "── telemetry summary ─────────────────────────────────────────"
        )?;
        for e in &self.events {
            if let Event::RunStart { name, params } = e {
                let ps: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
                writeln!(out, "run: {name}  {}", ps.join(" "))?;
            }
        }
        let phases: Vec<&Event> = self
            .events
            .iter()
            .filter(|e| matches!(e, Event::PhaseSummary { .. }))
            .collect();
        if !phases.is_empty() {
            writeln!(
                out,
                "{:<20} {:>12} {:>12} {:>12} {:>12} {:>6}",
                "phase", "count", "total", "mean", "p99", "depth"
            )?;
            for e in phases {
                if let Event::PhaseSummary {
                    phase,
                    count,
                    total_ns,
                    mean_ns,
                    p99_ns,
                    max_depth,
                    ..
                } = e
                {
                    writeln!(
                        out,
                        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>6}",
                        phase,
                        count,
                        fmt_ns(*total_ns as f64),
                        fmt_ns(*mean_ns),
                        fmt_ns(*p99_ns as f64),
                        max_depth
                    )?;
                }
            }
        }
        for e in &self.events {
            match e {
                Event::Counters { items } if !items.is_empty() => {
                    writeln!(out, "{:<32} {:>16}", "counter", "value")?;
                    for (k, v) in items {
                        writeln!(out, "{k:<32} {v:>16}")?;
                    }
                }
                Event::HistSummary {
                    name,
                    count,
                    mean,
                    p50,
                    p95,
                    p99,
                    max,
                } => {
                    writeln!(
                        out,
                        "{name:<32} n={count} mean={mean:.2} p50={p50:.1} p95={p95:.1} p99={p99:.1} max={max}"
                    )?;
                }
                Event::MonitorDivergence {
                    step_index,
                    symbol,
                    detail,
                } => {
                    writeln!(
                        out,
                        "monitor divergence at step {step_index}: {symbol} — {detail}"
                    )?;
                }
                Event::Report(r) => {
                    writeln!(out, "report: {} verdict={}", r.name, r.verdict)?;
                    for (k, v) in &r.metrics {
                        writeln!(out, "  {k:<30} {v:>16.2}")?;
                    }
                }
                _ => {}
            }
        }
        writeln!(
            out,
            "──────────────────────────────────────────────────────────────"
        )?;
        out.flush()
    }
}

impl Sink for SummarySink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }

    fn flush(&mut self) {
        self.events
            .sort_by_key(|e| !matches!(e, Event::RunStart { .. }));
        if let Err(e) = self.render() {
            eprintln!("telemetry: summary sink write failed: {e}");
        }
        self.events.clear();
    }
}

/// One JSON object per line, written as events arrive.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Stream into an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: BufWriter::new(out),
        }
    }

    /// Create (truncate) a JSONL file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(f)))
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        let line = event.to_json().to_string_compact();
        if writeln!(self.out, "{line}").is_err() {
            eprintln!("telemetry: jsonl sink write failed");
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Collects events in memory behind a shared handle — the test sink.
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A sink plus the handle used to read what it collected.
    pub fn new() -> (Self, Arc<Mutex<Vec<Event>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: events.clone(),
            },
            events,
        )
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_schema_and_type() {
        let e = Event::MonitorDivergence {
            step_index: 7,
            symbol: "LD(P1,B1,⊥)".to_string(),
            detail: "expected node, observed edge".to_string(),
        };
        let j = e.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            j.get("type").and_then(Json::as_str),
            Some("monitor_divergence")
        );
        assert_eq!(j.get("step_index").and_then(Json::as_num), Some(7.0));
        // The line parses back.
        let line = j.to_string_compact();
        assert_eq!(Json::parse(&line).unwrap(), j);
    }

    #[test]
    fn hist_summary_serializes_interpolated_quantiles() {
        let e = Event::HistSummary {
            name: "symmetry.orbit_size",
            count: 100,
            mean: 50.5,
            p50: 50.40625,
            p95: 95.1,
            p99: 99.0,
            max: 100,
        };
        let j = e.to_json();
        assert_eq!(j.get("p50").and_then(Json::as_num), Some(50.40625));
        assert_eq!(j.get("p95").and_then(Json::as_num), Some(95.1));
        assert_eq!(j.get("p99").and_then(Json::as_num), Some(99.0));
        let line = j.to_string_compact();
        assert_eq!(Json::parse(&line).unwrap(), j);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        sink.record(&Event::Counters {
            items: vec![("mc.transitions", 1)],
        });
        sink.record(&Event::RunStart {
            name: "a".to_string(),
            params: vec![("x".to_string(), "1".to_string())],
        });
        Sink::flush(&mut sink);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Json::parse(line).expect("each line is standalone JSON");
        }
    }

    #[test]
    fn summary_sink_renders_without_panicking() {
        struct Devnull;
        impl Write for Devnull {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = SummarySink::new(Box::new(Devnull));
        sink.record(&Event::PhaseSummary {
            phase: "search",
            count: 1,
            total_ns: 1_500_000,
            mean_ns: 1_500_000.0,
            p99_ns: 1_500_000,
            max_ns: 1_500_000,
            max_depth: 0,
        });
        sink.record(&Event::Counters {
            items: vec![("mc.transitions", 42)],
        });
        Sink::flush(&mut sink);
    }
}
