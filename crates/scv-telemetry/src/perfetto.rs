//! Chrome/Perfetto trace export for drained flight-recorder timelines.
//!
//! Emits the Chrome Trace Event Format (`{"traceEvents": [...]}`), which
//! both `chrome://tracing` and <https://ui.perfetto.dev> open directly:
//!
//! * one **thread track per worker** — a `thread_name` metadata record
//!   per label, then `"B"`/`"E"` duration events for phase spans and
//!   `"i"` instant events for steals / idle parks / admission batches /
//!   seal-cache probes;
//! * **counter tracks** (`"C"` events) for frontier depth, seen-set
//!   load, states-per-sec and the other [`CounterTrack`]s, rendered by
//!   Perfetto as line charts above the thread tracks.
//!
//! Timestamps are microseconds since session start (the format's native
//! unit). Timelines sharing a label (e.g. workers of successive searches
//! in one session) are merged onto one track. Because rings drop their oldest
//! events, a wrapped ring can expose `"E"` events whose `"B"` was
//! dropped; those orphans are filtered per track so viewers never see an
//! unbalanced stack.

use crate::json::Json;
use crate::recorder::{TraceEvent, WorkerTimeline};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

fn js(pairs: Vec<(&str, Json)>) -> Json {
    Json::obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)))
}

fn us(ts_ns: u64) -> Json {
    Json::Num(ts_ns as f64 / 1_000.0)
}

/// Build the Chrome Trace Event JSON document for a set of drained
/// timelines.
pub fn chrome_trace_json(timelines: &[WorkerTimeline]) -> Json {
    // Merge timelines by label onto one track each; tids are assigned in
    // first-appearance order so `ws-0` keeps a stable slot run to run.
    let mut order: Vec<&str> = Vec::new();
    let mut tracks: BTreeMap<&str, Vec<&TraceEvent>> = BTreeMap::new();
    let mut dropped_total = 0u64;
    for t in timelines {
        if !tracks.contains_key(t.label.as_str()) {
            order.push(&t.label);
        }
        tracks
            .entry(&t.label)
            .or_default()
            .extend(t.events.iter().map(|s| &s.event));
        dropped_total += t.dropped;
    }

    let mut events: Vec<Json> = Vec::new();
    for (tid0, label) in order.iter().enumerate() {
        let tid = Json::Num((tid0 + 1) as f64);
        events.push(js(vec![
            ("ph", Json::Str("M".into())),
            ("name", Json::Str("thread_name".into())),
            ("pid", Json::Num(1.0)),
            ("tid", tid.clone()),
            ("args", js(vec![("name", Json::Str((*label).to_string()))])),
        ]));
        let mut evs = tracks.remove(*label).unwrap_or_default();
        evs.sort_by_key(|e| e.ts_ns());
        // Span-stack depth per track: drop "E" events whose "B" fell out
        // of the ring so the viewer's stack stays balanced.
        let mut depth: u64 = 0;
        for ev in evs {
            match *ev {
                TraceEvent::SpanBegin { ts_ns, phase } => {
                    depth += 1;
                    events.push(js(vec![
                        ("ph", Json::Str("B".into())),
                        ("name", Json::Str(phase.name().into())),
                        ("cat", Json::Str("phase".into())),
                        ("pid", Json::Num(1.0)),
                        ("tid", tid.clone()),
                        ("ts", us(ts_ns)),
                    ]));
                }
                TraceEvent::SpanEnd { ts_ns, phase } => {
                    if depth == 0 {
                        continue; // orphaned by drop-oldest
                    }
                    depth -= 1;
                    events.push(js(vec![
                        ("ph", Json::Str("E".into())),
                        ("name", Json::Str(phase.name().into())),
                        ("cat", Json::Str("phase".into())),
                        ("pid", Json::Num(1.0)),
                        ("tid", tid.clone()),
                        ("ts", us(ts_ns)),
                    ]));
                }
                TraceEvent::Instant { ts_ns, kind, arg } => {
                    events.push(js(vec![
                        ("ph", Json::Str("i".into())),
                        ("name", Json::Str(kind.name().into())),
                        ("cat", Json::Str("event".into())),
                        ("s", Json::Str("t".into())),
                        ("pid", Json::Num(1.0)),
                        ("tid", tid.clone()),
                        ("ts", us(ts_ns)),
                        ("args", js(vec![("arg", Json::Num(arg as f64))])),
                    ]));
                }
                TraceEvent::Counter {
                    ts_ns,
                    track,
                    value,
                } => {
                    // Counter tracks are process-scoped: same name from
                    // any worker lands on one chart.
                    events.push(js(vec![
                        ("ph", Json::Str("C".into())),
                        ("name", Json::Str(track.name().into())),
                        ("pid", Json::Num(1.0)),
                        ("ts", us(ts_ns)),
                        ("args", js(vec![("value", Json::Num(value))])),
                    ]));
                }
            }
        }
    }

    js(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "otherData",
            js(vec![
                ("producer", Json::Str("scv flight recorder".into())),
                ("dropped_events", Json::Num(dropped_total as f64)),
            ]),
        ),
    ])
}

/// Shape summary of an exported trace, used by validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of named thread tracks (`thread_name` metadata records).
    pub worker_tracks: usize,
    /// Number of distinct counter tracks (`"C"` event names).
    pub counter_tracks: usize,
    /// Total trace events of every phase type.
    pub events: usize,
}

/// Validate a Chrome Trace document: it must carry a `traceEvents`
/// array with at least one named thread track. Returns shape stats so
/// callers can assert stronger floors (CI requires ≥2 counter tracks).
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceStats, String> {
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(evs)) => evs,
        _ => return Err("missing traceEvents array".into()),
    };
    let mut worker_tracks = 0;
    let mut counters = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        match ph {
            "M" if name == "thread_name" => worker_tracks += 1,
            "C" => {
                counters.insert(name.to_string());
            }
            "B" | "E" | "i" if ev.get("ts").and_then(Json::as_num).is_none() => {
                return Err(format!("event `{name}` has no numeric ts"));
            }
            _ => {}
        }
    }
    if worker_tracks == 0 {
        return Err("no thread_name metadata tracks".into());
    }
    Ok(TraceStats {
        worker_tracks,
        counter_tracks: counters.len(),
        events: events.len(),
    })
}

/// Serialize timelines and write the trace file (single compact line —
/// Perfetto does not need pretty printing).
pub fn write_chrome_trace(path: &Path, timelines: &[WorkerTimeline]) -> std::io::Result<()> {
    let doc = chrome_trace_json(timelines);
    let mut f = std::fs::File::create(path)?;
    f.write_all(doc.to_string_compact().as_bytes())?;
    f.write_all(b"\n")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{CounterTrack, InstantKind, Stamped, TraceEvent};
    use crate::span::Phase;

    fn timeline(label: &str, events: Vec<TraceEvent>) -> WorkerTimeline {
        WorkerTimeline {
            label: label.to_string(),
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| Stamped {
                    seq: i as u64,
                    event,
                })
                .collect(),
            dropped: 0,
        }
    }

    #[test]
    fn export_has_tracks_spans_instants_and_counters() {
        let tl = vec![
            timeline(
                "ws-0",
                vec![
                    TraceEvent::SpanBegin {
                        ts_ns: 1_000,
                        phase: Phase::Expand,
                    },
                    TraceEvent::Instant {
                        ts_ns: 1_500,
                        kind: InstantKind::Steal,
                        arg: 7,
                    },
                    TraceEvent::SpanEnd {
                        ts_ns: 2_000,
                        phase: Phase::Expand,
                    },
                    TraceEvent::Counter {
                        ts_ns: 2_500,
                        track: CounterTrack::FrontierDepth,
                        value: 42.0,
                    },
                ],
            ),
            timeline(
                "ws-1",
                vec![TraceEvent::Counter {
                    ts_ns: 3_000,
                    track: CounterTrack::SeenStates,
                    value: 9.0,
                }],
            ),
        ];
        let doc = chrome_trace_json(&tl);
        let stats = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(stats.worker_tracks, 2);
        assert_eq!(stats.counter_tracks, 2);
        // Round-trips through the JSON parser (what Perfetto will do).
        let reparsed = Json::parse(&doc.to_string_compact()).expect("parses");
        assert_eq!(validate_chrome_trace(&reparsed), Ok(stats));
        // ts is microseconds.
        let evs = match reparsed.get("traceEvents") {
            Some(Json::Arr(evs)) => evs.clone(),
            _ => unreachable!(),
        };
        let b = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .unwrap();
        assert_eq!(b.get("ts").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn orphaned_span_ends_are_filtered() {
        // A wrapped ring lost the Begin; the End must not be exported.
        let tl = vec![timeline(
            "ws-0",
            vec![
                TraceEvent::SpanEnd {
                    ts_ns: 10,
                    phase: Phase::Search,
                },
                TraceEvent::SpanBegin {
                    ts_ns: 20,
                    phase: Phase::Expand,
                },
                TraceEvent::SpanEnd {
                    ts_ns: 30,
                    phase: Phase::Expand,
                },
            ],
        )];
        let doc = chrome_trace_json(&tl);
        let evs = match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs.clone(),
            _ => unreachable!(),
        };
        let ends: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .collect();
        assert_eq!(ends.len(), 1);
        assert_eq!(
            ends[0].get("name").and_then(Json::as_str),
            Some("search.expand")
        );
    }

    #[test]
    fn same_label_timelines_merge_onto_one_track() {
        let tl = vec![
            timeline(
                "level",
                vec![TraceEvent::Instant {
                    ts_ns: 5,
                    kind: InstantKind::AdmissionBatch,
                    arg: 1,
                }],
            ),
            timeline(
                "level",
                vec![TraceEvent::Instant {
                    ts_ns: 9,
                    kind: InstantKind::AdmissionBatch,
                    arg: 2,
                }],
            ),
        ];
        let stats = validate_chrome_trace(&chrome_trace_json(&tl)).unwrap();
        assert_eq!(stats.worker_tracks, 1);
    }
}
