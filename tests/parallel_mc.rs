//! Deterministic-search battery for the parallel model checker.
//!
//! Every protocol in the zoo is verified under every thread count in
//! {1, 2, 4, 8}: one thread runs sequential BFS, more run the asynchronous
//! work-stealing search. The checked invariant is *verdict-variant
//! determinism*: whenever the search limits are not the deciding factor,
//! every schedule must produce the same `Outcome` variant —
//!
//! * safe protocols capped far below their product size: always
//!   `Bounded` (never a spurious `Violation`);
//! * protocols with reachable violations and generous caps: always
//!   `Violation` (never a missed bug);
//! * exhaustive searches (the `SCV_STRESS=1`-gated release-mode tests):
//!   always
//!   `Verified`, with the per-engine conservation laws holding exactly
//!   (Σ expanded == states, Σ admitted + 1 == states) and every engine's
//!   reachable-class count within a small tolerance of sequential BFS's.
//!
//! Why a tolerance and not exact equality: product states are deduplicated
//! by canonical encoding, and that equality is deliberately *not a
//! congruence* — two enc-equal concrete states can have successor sets
//! that differ as encodings (the encoding quotients away bookkeeping, such
//! as observer auxiliary-ID choices, that does leak into which successor
//! representatives get admitted). Sequential FIFO BFS always picks the
//! same representatives, so its count is deterministic; any asynchronous
//! schedule may merge classes slightly differently and land within a few
//! percent. The verdict is unaffected — every representative of a
//! violating class still violates.
//!
//! Every counterexample any engine produces is independently validated by
//! replaying it through [`sc_verify::testing::RunMonitor`] — the paper's
//! §5 online monitor, a codepath entirely separate from the model
//! checker's product construction. Work-stealing counterexamples are not
//! necessarily shortest (asynchronous order), but they must still replay
//! to a genuine violation.

use sc_verify::prelude::*;
use sc_verify::testing::{MonitorStep, RunMonitor};

/// The thread-count matrix: 1 is the sequential searcher, the rest run
/// the work-stealing engine.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn opts(max_states: usize, threads: usize) -> VerifyOptions {
    // Small batches so even modest searches exercise chunk hand-off
    // and stealing, not just one worker draining one chunk.
    VerifyOptions::new()
        .max_states(max_states)
        .threads(threads)
        .batch_size(32)
}

fn verdict(out: &Outcome) -> &'static str {
    match out {
        Outcome::Verified { .. } => "Verified",
        Outcome::Violation { .. } => "Violation",
        Outcome::Bounded { .. } => "Bounded",
        // No budget or cancellation is configured in these tests.
        Outcome::Inconclusive { .. } => "Inconclusive",
    }
}

/// Replay a counterexample through the protocol (resolving each action to
/// an enabled transition) and assert the §5 online monitor flags it.
fn replay_flags_violation<P: Protocol + Clone>(p: &P, run: &[Action]) {
    let mut runner = Runner::new(p.clone());
    for (i, action) in run.iter().enumerate() {
        let t = runner
            .enabled()
            .into_iter()
            .find(|t| t.action == *action)
            .unwrap_or_else(|| panic!("counterexample action {i} ({action:?}) not enabled"));
        runner.take(t);
    }
    let mut monitor = RunMonitor::new(p);
    let mut violated = false;
    for step in &runner.run().steps {
        if let MonitorStep::Violation(_) = monitor.feed(step) {
            violated = true;
            break;
        }
    }
    assert!(
        violated || monitor.finish().is_err(),
        "replayed counterexample must fail the online monitor"
    );
}

/// Run the whole matrix on one protocol and require a single verdict
/// variant throughout; validate every counterexample produced.
fn assert_matrix_verdict<P>(p: P, max_states: usize, expected: &str)
where
    P: Symmetry + Clone + Sync,
    P::State: Send + Sync + 'static,
{
    for threads in THREADS {
        let out = verify_protocol(p.clone(), opts(max_states, threads));
        assert_eq!(
            verdict(&out),
            expected,
            "threads={threads}: {:?}",
            out.stats()
        );
        if let Outcome::Violation { run, reason, .. } = &out {
            assert!(
                !run.is_empty(),
                "violating run must be non-trivial: {reason}"
            );
            replay_flags_violation(&p, run);
        }
    }
}

// ---- Safe protocols: capped far below the product size, every engine
// ---- must report Bounded and never a spurious violation.

#[test]
fn serial_memory_bounded_on_all_engines() {
    assert_matrix_verdict(SerialMemory::new(Params::new(2, 2, 2)), 6_000, "Bounded");
}

#[test]
fn msi_bounded_on_all_engines() {
    assert_matrix_verdict(MsiProtocol::new(Params::new(2, 1, 2)), 6_000, "Bounded");
}

#[test]
fn mesi_bounded_on_all_engines() {
    assert_matrix_verdict(MesiProtocol::new(Params::new(2, 1, 2)), 6_000, "Bounded");
}

#[test]
fn directory_bounded_on_all_engines() {
    assert_matrix_verdict(
        DirectoryProtocol::new(Params::new(2, 1, 1)),
        6_000,
        "Bounded",
    );
}

#[test]
fn lazy_caching_bounded_on_all_engines() {
    assert_matrix_verdict(
        LazyCaching::new(Params::new(2, 1, 1), 1, 1),
        6_000,
        "Bounded",
    );
}

// ---- Protocols with reachable violations: every engine must find one
// ---- (asynchronous schedules included), and each counterexample must
// ---- replay to a genuine monitor failure.

#[test]
fn buggy_msi_violates_on_all_engines() {
    assert_matrix_verdict(
        MsiProtocol::buggy(Params::new(2, 2, 1)),
        2_000_000,
        "Violation",
    );
}

#[test]
fn buggy_mesi_violates_on_all_engines() {
    assert_matrix_verdict(
        MesiProtocol::buggy(Params::new(2, 2, 1)),
        2_000_000,
        "Violation",
    );
}

#[test]
fn tso_violates_on_all_engines() {
    assert_matrix_verdict(
        StoreBufferTso::new(Params::new(2, 2, 1), 1),
        2_000_000,
        "Violation",
    );
}

#[test]
fn fig4_rejected_on_all_engines() {
    assert_matrix_verdict(
        Fig4Protocol::new(Params::new(2, 1, 2), 1),
        2_000_000,
        "Violation",
    );
}

// ---- Exhaustive differential test (release-mode; ~120k-state product
// ---- searched 5 times): all engines must agree on Verified, hold their
// ---- internal conservation laws exactly, and land within a small
// ---- tolerance of the sequential reachable-class count (see the module
// ---- docs for why exact equality is not the right spec).

/// A state cap is exact on every engine: work-stealing workers reserve a
/// slot below the cap before they count, log or check a state, so a capped
/// run ends at `max_states`, as sequential BFS does.
#[test]
fn capped_runs_end_at_exactly_max_states() {
    let cap = 3_000;
    for threads in [1usize, 2, 4] {
        let out = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), opts(cap, threads));
        assert_eq!(verdict(&out), "Bounded", "threads={threads}");
        assert_eq!(out.stats().states, cap, "threads={threads}");
    }
}

/// Maximum relative drift allowed between an asynchronous engine's
/// reachable-class count and sequential BFS's. Measured drift on the
/// SerialMemory(2,1,1) product is ~1–3%; 5% gives headroom without
/// letting a real admission bug (which perturbs counts wildly or trips
/// the exact conservation laws) hide.
const CLASS_COUNT_TOLERANCE: f64 = 0.05;

fn assert_states_close(got: usize, reference: usize, context: &str) {
    let drift = (got as f64 - reference as f64).abs() / reference as f64;
    assert!(
        drift <= CLASS_COUNT_TOLERANCE,
        "{context}: state count {got} drifted {:.1}% from sequential {reference}",
        drift * 100.0
    );
}

/// Multi-million-state searches only make sense in release mode, so the
/// two stress tests below gate on `SCV_STRESS=1` instead of `#[ignore]`:
/// the nightly CI job (and anyone locally) runs them with
/// `SCV_STRESS=1 cargo test --release`, while a plain `cargo test`
/// reports them as passed-but-skipped without burning minutes in a
/// debug build.
fn stress_enabled() -> bool {
    match std::env::var_os("SCV_STRESS") {
        Some(v) => v == "1",
        None => false,
    }
}

/// Scheduler-statistics invariants under load, checked straight against
/// the work-stealing engine's per-worker counters.
#[test]
fn stress_work_stealing_stats_invariants() {
    if !stress_enabled() {
        eprintln!("skipping multi-million-state stress search; enable with SCV_STRESS=1");
        return;
    }
    use sc_verify::mc::{bfs, ws_search_detailed, BfsOptions, SearchResult, VerifySystem};

    // Part 1 — exhaustive search (no limit is hit), where the strict
    // conservation laws must hold: every admitted state is expanded
    // exactly once, so  Σ expanded == states  and  Σ admitted + 1 (the
    // initial state) == states. The count itself is only required to be
    // close to sequential BFS's — canonical-encoding equality is not a
    // congruence, so asynchronous schedules merge classes slightly
    // differently (module docs).
    let product = || VerifySystem::new(SerialMemory::new(Params::new(2, 1, 1)));
    let unbounded = BfsOptions::new().max_states(10_000_000);
    let seq_states = match bfs(&product(), unbounded) {
        SearchResult::Safe(stats) => stats.states,
        r => panic!("sequential search must be exhaustive, got {:?}", r.stats()),
    };
    assert!(
        seq_states > 50_000,
        "product unexpectedly small: {seq_states}"
    );
    for threads in [2usize, 4] {
        let (result, workers) = ws_search_detailed(&product(), unbounded, threads, 64);
        let stats = match result {
            SearchResult::Safe(stats) => stats,
            r => panic!("threads={threads}: expected Safe, got {:?}", r.stats()),
        };
        assert_states_close(stats.states, seq_states, &format!("threads={threads}"));
        let expanded: usize = workers.iter().map(|w| w.expanded).sum();
        let admitted: usize = workers.iter().map(|w| w.admitted).sum();
        assert_eq!(
            expanded, stats.states,
            "threads={threads}: expanded != seen"
        );
        assert_eq!(
            admitted + 1,
            stats.states,
            "threads={threads}: admitted + init != seen"
        );
        assert!(
            stats.steals > 0,
            "threads={threads}: no steals on a {seq_states}-state search"
        );
        assert!(stats.seen_batches > 0, "batched seen-set path never used");
        assert!(
            stats.peak_frontier > 0 && stats.peak_frontier < stats.states,
            "implausible peak frontier {}",
            stats.peak_frontier
        );
        assert_eq!(stats.workers, threads);
    }

    // Part 2 — a two-million-state sweep of a product too large to
    // exhaust (MSI 2,1,2): the cap must bite, and the scheduler counters
    // must stay coherent under sustained load.
    let big = VerifySystem::new(MsiProtocol::new(Params::new(2, 1, 2)));
    let capped = BfsOptions::new().max_states(2_000_000);
    let (result, workers) = ws_search_detailed(&big, capped, 4, 128);
    let stats = match result {
        SearchResult::Bounded(stats) => stats,
        SearchResult::Safe(stats) => stats, // in case the product fits after all
        r => panic!("MSI must not violate: {:?}", r.stats()),
    };
    assert!(
        stats.states >= 1_000_000,
        "sweep too small: {}",
        stats.states
    );
    let admitted: usize = workers.iter().map(|w| w.admitted).sum();
    assert_eq!(
        admitted + 1,
        stats.states,
        "every counted state was admitted exactly once"
    );
    assert!(stats.steals > 0);
    assert!(
        stats.seen_batches >= stats.states / 128,
        "batching cannot admit more than batch_size states per lock: {} batches for {} states",
        stats.seen_batches,
        stats.states
    );
}

#[test]
fn exhaustive_serial_memory_engines_agree() {
    if !stress_enabled() {
        eprintln!("skipping exhaustive 5-way product search; enable with SCV_STRESS=1");
        return;
    }
    let p = SerialMemory::new(Params::new(2, 1, 1));
    // threads == 1 is the sequential FIFO searcher, whose
    // representative choice — and therefore class count — is
    // deterministic. It anchors the tolerance band for every schedule.
    let reference = verify_protocol(p.clone(), opts(400_000, 1));
    assert!(reference.is_verified(), "{:?}", reference.stats());
    let want = reference.stats().states;
    assert!(want > 50_000, "product unexpectedly small: {want}");
    for threads in THREADS {
        let out = verify_protocol(p.clone(), opts(400_000, threads));
        assert!(out.is_verified(), "threads={threads}: {:?}", out.stats());
        assert_states_close(out.stats().states, want, &format!("threads={threads}"));
    }
}

/// Resuming re-chunks the saved frontier in one pass. A work-stealing
/// checkpoint of msi (2,1,2) at 300 000 states holds about 220 000
/// frontier states of some 400 bytes each; a re-chunk that drains chunks
/// off the front of that vector moves the tail once per chunk, over ten
/// seconds before the search takes a single further state.
#[test]
fn stress_ws_resume_rechunks_linearly() {
    if !stress_enabled() {
        eprintln!("skipping the 300 000-state resume; enable with SCV_STRESS=1");
        return;
    }
    use sc_verify::mc::{
        ws_search_controlled, BfsOptions, Budget, CancelToken, ControlledSearch, RunControl,
        SearchResult, VerifySystem,
    };
    let sys = VerifySystem::new(MsiProtocol::new(Params::new(2, 1, 2)));
    let cut = RunControl::new(&Budget::unlimited().states(300_000), CancelToken::new());
    let unbounded = BfsOptions::new().max_states(usize::MAX);
    let (ControlledSearch::Interrupted { checkpoint, .. }, _) =
        ws_search_controlled(&sys, unbounded, 2, 128, &cut, None, None)
    else {
        panic!("the state budget must interrupt the search");
    };
    let frontier = checkpoint.frontier.len();
    let one_more = BfsOptions::new().max_states(checkpoint.states() + 1);
    let start = std::time::Instant::now();
    let (resumed, _) = ws_search_controlled(
        &sys,
        one_more,
        2,
        128,
        &RunControl::unlimited(),
        Some(checkpoint),
        None,
    );
    let took = start.elapsed();
    assert!(
        matches!(
            resumed,
            ControlledSearch::Finished(SearchResult::Bounded(_))
        ),
        "{:?}",
        resumed.stats()
    );
    assert!(
        took < std::time::Duration::from_secs(5),
        "resuming a {frontier}-state frontier took {took:?}"
    );
}
