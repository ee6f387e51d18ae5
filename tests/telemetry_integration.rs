//! Telemetry must observe the pipeline without perturbing it.
//!
//! * `verify_protocol` returns the same verdict and (exhaustive) state
//!   count with telemetry enabled and disabled, sequentially and with 4
//!   workers — instrumentation is read-only with respect to the search.
//! * The JSONL sink emits schema-versioned, parseable records covering
//!   every pipeline phase (search, observer step, descriptor encode,
//!   checker step).
//! * The §5 runtime monitor reports a structured `MonitorDivergence`
//!   event (step index, symbol, diagnosis) when a run stops being SC.
//! * A run report carries only the engine fields its engine measured: a
//!   t=1 report has the peak frontier but no steals or seen-set batches.
//! * A run opens one `search` span whether or not it writes periodic
//!   checkpoints: a tick snapshots the running search.
//!
//! Telemetry state is process-global, so every test serializes on
//! `telemetry::test_mutex` (directly or through `TestSession`).

use sc_verify::prelude::*;
use sc_verify::telemetry;
use sc_verify::testing::{MonitorStep, RunMonitor};

/// The reference product: small enough to exhaust in milliseconds, large
/// enough to exercise every phase. 522 product states.
fn small_serial() -> SerialMemory {
    SerialMemory::new(Params::new(1, 1, 2))
}

fn opts(threads: usize) -> VerifyOptions {
    VerifyOptions::new().max_states(2_000_000).threads(threads)
}

#[test]
fn same_verdict_and_state_count_with_telemetry_on_and_off() {
    for threads in [1usize, 2, 4] {
        let off = {
            let _session = telemetry::TestSession::start_disabled();
            verify_protocol(small_serial(), opts(threads))
        };
        let (on, admitted, transitions) = {
            let session = telemetry::TestSession::start();
            let out = verify_protocol(small_serial(), opts(threads));
            let admitted = telemetry::registry().get(telemetry::Metric::McStatesAdmitted);
            let transitions = telemetry::registry().get(telemetry::Metric::McTransitions);
            drop(session);
            (out, admitted, transitions)
        };
        assert!(off.is_verified(), "threads={threads}: baseline must verify");
        assert!(
            on.is_verified(),
            "threads={threads}: telemetry run must verify"
        );
        assert_eq!(
            off.stats().states,
            on.stats().states,
            "threads={threads}: exhaustive state count must not depend on telemetry"
        );
        // Both engines stream their counters, the initial state included,
        // so on an exhaustive run the registry totals are the search's.
        assert_eq!(
            admitted,
            on.stats().states as u64,
            "threads={threads}: mc.states_admitted"
        );
        assert_eq!(
            transitions,
            on.stats().transitions as u64,
            "threads={threads}: mc.transitions"
        );
    }
}

/// A counter modulo `n` whose safety hook samples the registry's
/// admitted-state counter each time a state is admitted.
struct SampledCounter {
    n: u32,
    samples: std::cell::RefCell<Vec<u64>>,
}

impl sc_verify::mc::TransitionSystem for SampledCounter {
    type State = u32;
    type Label = ();
    type Violation = String;

    fn initial(&self) -> u32 {
        0
    }
    fn successors(&self, s: &u32) -> Vec<((), u32)> {
        vec![((), (s + 1) % self.n), ((), (s * 2) % self.n)]
    }
    fn violation(&self, _: &u32) -> Option<String> {
        let admitted = telemetry::registry().get(telemetry::Metric::McStatesAdmitted);
        self.samples.borrow_mut().push(admitted);
        None
    }
}

/// `--progress` reads the registry while the search runs, so sequential
/// BFS (t=1) must stream its counters rather than publish them at the end.
#[test]
fn sequential_search_streams_admitted_states() {
    let _session = telemetry::TestSession::start();
    let sys = SampledCounter {
        n: 500,
        samples: Default::default(),
    };
    let r = sc_verify::mc::bfs(&sys, BfsOptions::default());
    assert!(r.is_safe());
    let samples = sys.samples.into_inner();
    assert_eq!(samples.len(), 500, "one sample per admitted state");
    // The k-th admitted state sees itself and every state before it.
    for (k, &seen) in samples.iter().enumerate() {
        assert_eq!(seen, k as u64 + 1, "mc.states_admitted at state {k}");
    }
    assert_eq!(
        telemetry::registry().get(telemetry::Metric::McStatesAdmitted),
        r.stats().states as u64
    );
    assert_eq!(
        telemetry::registry().get(telemetry::Metric::McTransitions),
        r.stats().transitions as u64
    );
}

/// A run report states only what its engine measured. Sequential BFS
/// tracks its peak frontier, and has no steals or seen-set batches to
/// report, so those fields are left out instead of reading as a measured
/// zero; the work-stealing engine reports all three.
#[test]
fn run_reports_carry_only_measured_engine_fields() {
    for threads in [1usize, 2] {
        let session = telemetry::TestSession::start();
        let out = Verifier::new(MsiProtocol::new(Params::new(2, 1, 2)))
            .max_states(3_000)
            .threads(threads)
            .run();
        let events = session.events();
        drop(session);
        let report = events
            .iter()
            .find_map(|e| match e {
                telemetry::Event::Report(r) if r.name == "verify/msi" => Some(r),
                _ => None,
            })
            .expect("the run emitted a report");
        let stats = out.stats();
        let peak = report
            .get_metric("peak_frontier")
            .expect("peak_frontier is reported");
        assert_eq!(peak, stats.peak_frontier as f64, "threads={threads}");
        assert!(
            stats.peak_frontier > 0 && stats.peak_frontier < stats.states,
            "threads={threads}: peak frontier {} of {} states",
            stats.peak_frontier,
            stats.states
        );
        let ws = threads > 1;
        assert_eq!(
            report.get_metric("steals").is_some(),
            ws,
            "threads={threads}"
        );
        assert_eq!(
            report.get_metric("seen_batches").is_some(),
            ws,
            "threads={threads}"
        );
    }
}

#[test]
fn violation_verdict_unchanged_by_telemetry() {
    let off = {
        let _session = telemetry::TestSession::start_disabled();
        verify_protocol(StoreBufferTso::new(Params::new(2, 2, 1), 1), opts(1))
    };
    let on = {
        let _session = telemetry::TestSession::start();
        verify_protocol(StoreBufferTso::new(Params::new(2, 2, 1), 1), opts(1))
    };
    match (&off, &on) {
        (Outcome::Violation { stats: s_off, .. }, Outcome::Violation { stats: s_on, .. }) => {
            // Sequential BFS is deterministic up to hash order; the
            // violation depth (shortest run) must agree exactly.
            assert_eq!(s_off.depth, s_on.depth, "shortest-violation depth");
        }
        _ => panic!("TSO must violate with and without telemetry"),
    }
}

#[test]
fn jsonl_stream_is_schema_valid_and_covers_pipeline_phases() {
    let _guard = telemetry::test_mutex()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!(
        "scv_telemetry_integration_{}.jsonl",
        std::process::id()
    ));
    telemetry::install(Box::new(
        telemetry::JsonlSink::create(&path).expect("temp jsonl"),
    ));
    let out = verify_protocol(small_serial(), opts(1));
    telemetry::emit_report(
        telemetry::RunReport::new("verify/serial-memory")
            .param("threads", 1)
            .with_verdict("verified")
            .metric("states", out.stats().states as f64),
    );
    telemetry::shutdown();

    let text = std::fs::read_to_string(&path).expect("jsonl written");
    std::fs::remove_file(&path).ok();
    let mut phases = std::collections::BTreeSet::new();
    let mut types = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let j = telemetry::Json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON: {e:?}", i + 1));
        assert_eq!(
            j.get("schema").and_then(|s| s.as_num()),
            Some(telemetry::SCHEMA_VERSION as f64),
            "line {} must carry the schema version",
            i + 1
        );
        let ty = j
            .get("type")
            .and_then(|t| t.as_str())
            .unwrap_or_else(|| panic!("line {} has no type", i + 1))
            .to_string();
        if ty == "phase" {
            phases.insert(
                j.get("phase")
                    .and_then(|p| p.as_str())
                    .expect("phase name")
                    .to_string(),
            );
        }
        types.insert(ty);
    }
    for required in [
        "search",
        "observer.step",
        "descriptor.encode",
        "checker.step",
    ] {
        assert!(
            phases.contains(required),
            "pipeline phase {required} missing from JSONL; saw {phases:?}"
        );
    }
    assert!(types.contains("run_report"), "saw {types:?}");
    assert!(types.contains("counters"), "saw {types:?}");

    // The report round-trips through the typed parser.
    let reports = telemetry::parse_reports(&text).expect("reports parse");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].name, "verify/serial-memory");
    assert_eq!(reports[0].verdict, "verified");
    assert_eq!(
        reports[0].get_metric("states"),
        Some(out.stats().states as f64)
    );
}

#[test]
fn monitor_divergence_emits_structured_event() {
    let session = telemetry::TestSession::start();

    // The classic TSO litmus: both stores buffered, both loads read 0,
    // then the buffers drain — no serial reordering explains it.
    let p = StoreBufferTso::new(Params::new(2, 2, 1), 2);
    let mut runner = Runner::new(p.clone());
    let mut monitor = RunMonitor::new(&p);
    let mut take = |want: &dyn Fn(&Action) -> bool| {
        let t = runner
            .enabled()
            .into_iter()
            .find(|t| want(&t.action))
            .expect("transition enabled");
        runner.take(t);
    };
    take(&|a| a.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1))));
    take(&|a| a.op() == Some(Op::store(ProcId(2), BlockId(2), Value(1))));
    take(&|a| a.op() == Some(Op::load(ProcId(1), BlockId(2), Value::BOTTOM)));
    take(&|a| a.op() == Some(Op::load(ProcId(2), BlockId(1), Value::BOTTOM)));
    take(&|a| matches!(a, Action::Internal("Drain", 1)));
    take(&|a| matches!(a, Action::Internal("Drain", 2)));

    let mut tripped_inline = false;
    for step in &runner.run().steps.clone() {
        if let MonitorStep::Violation(_) = monitor.feed(step) {
            tripped_inline = true;
            break;
        }
    }
    if !tripped_inline {
        assert!(monitor.finish().is_err(), "litmus must be rejected");
    }

    let events = session.events();
    let divergences: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            telemetry::Event::MonitorDivergence {
                step_index,
                symbol,
                detail,
            } => Some((*step_index, symbol.clone(), detail.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(divergences.len(), 1, "exactly one divergence: {events:?}");
    let (step_index, symbol, detail) = &divergences[0];
    assert!(*step_index < 6, "divergence within the 6-step litmus");
    assert!(!symbol.is_empty(), "offending symbol is named");
    assert!(!detail.is_empty(), "diagnosis is present");
}

/// A checkpoint tick snapshots the running search instead of stopping and
/// restarting it, so a run opens one `search` span on either engine; a
/// tick interval without a path writes nothing and arms nothing.
#[test]
fn checkpoint_ticks_keep_one_search_span() {
    let path = std::env::temp_dir().join(format!("scv-telemetry-{}.ckpt", std::process::id()));
    let every = std::time::Duration::from_millis(1);
    let cases = [
        (1, VerifyOptions::new().checkpoint_every(every)),
        (
            1,
            VerifyOptions::new()
                .checkpoint_every(every)
                .checkpoint_to(&path),
        ),
        (
            2,
            VerifyOptions::new()
                .checkpoint_every(every)
                .checkpoint_to(&path),
        ),
    ];
    for (threads, opts) in cases {
        let session = telemetry::TestSession::start();
        let sys = VerifySystem::new(MsiProtocol::new(Params::new(2, 1, 2)));
        let what = format!("t={threads}, path {:?}", opts.checkpoint_path);
        let out = sys.search(&opts.max_states(5_000).threads(threads));
        assert!(matches!(out, Outcome::Bounded { .. }), "{:?}", out.stats());
        telemetry::flush();
        let spans: Vec<u64> = session
            .events()
            .iter()
            .filter_map(|e| match e {
                telemetry::Event::PhaseSummary { phase, count, .. } if *phase == "search" => {
                    Some(*count)
                }
                _ => None,
            })
            .collect();
        assert_eq!(spans, [1], "{what}");
    }
    assert!(path.is_file(), "the ticking runs wrote a checkpoint");
    let _ = std::fs::remove_file(&path);
}
