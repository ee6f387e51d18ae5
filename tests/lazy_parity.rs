//! Differential battery for admission-gated lazy materialization.
//!
//! The product system's expansion path fingerprints successor candidates
//! *before* materializing them and only clones/allocates the ones the
//! seen-set admits (DESIGN.md, "State-store memory layout & admission
//! gating"). The reference is the trait-default `expand_admitted`, which
//! materializes every successor first and filters afterwards; the test-side
//! [`Eager`] wrapper selects it by hiding the product system's override.
//! The two must be *observationally identical* — the gate is a
//! memory/throughput optimization, never a semantic one:
//!
//! * same verdict variant on both engines and every symmetry mode — never
//!   a missed violation, never a spurious one;
//! * identical explored-state and transition counts whenever the search
//!   is deterministic (sequential BFS, exhaustive or bounded);
//! * every lazy counterexample is a genuine run of the unreduced protocol
//!   that independently fails the §5 online monitor, and sequential BFS
//!   produces the *same* counterexample either way.

use sc_verify::fuzz::replay;
use sc_verify::mc::{bfs, ws_search, SearchResult, TransitionSystem};
use sc_verify::prelude::*;
use sc_verify::testing::monitor_run;

/// The materialize-then-filter reference: delegates `initial`,
/// `successors` and `violation` only, so `expand_admitted` is the trait
/// default (every successor cloned and encoded before the seen-set probe).
struct Eager<'a, T>(&'a T);

impl<T: TransitionSystem> TransitionSystem for Eager<'_, T> {
    type State = T::State;
    type Label = T::Label;
    type Violation = T::Violation;

    fn initial(&self) -> T::State {
        self.0.initial()
    }
    fn successors(&self, s: &T::State) -> Vec<(T::Label, T::State)> {
        self.0.successors(s)
    }
    fn violation(&self, s: &T::State) -> Option<T::Violation> {
        self.0.violation(s)
    }
}

/// Engine thread counts: 1 is sequential BFS, 4 the work-stealing engine.
const THREADS: [usize; 2] = [1, 4];

/// The `VerifyOptions` default work-stealing batch size.
const BATCH: usize = 128;

const SYMS: [SymmetryMode; 3] = [SymmetryMode::Off, SymmetryMode::Proc, SymmetryMode::Full];

type Search = SearchResult<Action, RejectReason>;

fn verdict(r: &Search) -> &'static str {
    match r {
        SearchResult::Safe(_) => "Verified",
        SearchResult::Unsafe(..) => "Violation",
        SearchResult::Bounded(_) => "Bounded",
    }
}

fn counts(r: &Search) -> (usize, usize) {
    (r.stats().states, r.stats().transitions)
}

/// Run the same search through both expansion paths: `(eager, lazy)`.
fn both<P>(p: &P, max_states: usize, threads: usize, sym: SymmetryMode) -> (Search, Search)
where
    P: Symmetry + Clone + Sync,
    P::State: Send + Sync + 'static,
{
    let sys = VerifySystem::with_symmetry(p.clone(), sym);
    let opts = BfsOptions::new().max_states(max_states);
    if threads == 1 {
        (bfs(&Eager(&sys), opts), bfs(&sys, opts))
    } else {
        (
            ws_search(&Eager(&sys), opts, threads, BATCH),
            ws_search(&sys, opts, threads, BATCH),
        )
    }
}

/// Exhaustive searches terminate with the full (quotient) space explored:
/// both paths must prove SC on both engines, and on the deterministic
/// sequential engine states *and* transitions must match exactly — any
/// admission-gate fingerprint that disagreed with the materialized
/// state's identity would show up as a count divergence here.
#[test]
fn exhaustive_parity_every_engine_and_symmetry() {
    fn check<P>(name: &str, p: &P, syms: &[SymmetryMode])
    where
        P: Symmetry + Clone + Sync,
        P::State: Send + Sync + 'static,
    {
        for &sym in syms {
            for threads in THREADS {
                let (eager, lazy) = both(p, 500_000, threads, sym);
                let tag = format!("{name} threads={threads} {sym:?}");
                assert_eq!(
                    verdict(&eager),
                    "Verified",
                    "{tag}: eager {:?}",
                    eager.stats()
                );
                assert_eq!(verdict(&lazy), "Verified", "{tag}: lazy {:?}", lazy.stats());
                if threads == 1 {
                    // The sequential engine is deterministic: the counts
                    // are the quotient space, exactly.
                    assert_eq!(
                        counts(&eager),
                        counts(&lazy),
                        "{tag}: lazy/eager count divergence"
                    );
                } else {
                    // The work-stealing engine's expansion accounting is
                    // schedule-dependent (a state claimed by two racing
                    // batches is counted by both), on either path. The
                    // drift grows when the machine is oversubscribed —
                    // e.g. the whole workspace test suite running in
                    // parallel — so the bound is looser than the ~5% the
                    // differential fuzzer (which runs alone) allows.
                    let (e, l) = (eager.stats().states as f64, lazy.stats().states as f64);
                    assert!(
                        (e - l).abs() / e.max(1.0) <= 0.10,
                        "{tag}: lazy/eager drifted beyond 10%: {e} vs {l}"
                    );
                }
            }
        }
    }
    // Small enough to finish exhaustively in debug mode: the full
    // serial-memory product (522 states) on every symmetry mode, and MSI
    // with a single processor (10 524 states) on the two quotient
    // extremes.
    check("serial", &SerialMemory::new(Params::new(1, 1, 2)), &SYMS);
    check(
        "msi",
        &MsiProtocol::new(Params::new(1, 1, 1)),
        &[SymmetryMode::Off, SymmetryMode::Full],
    );
}

/// Bounded sequential searches are deterministic, so hitting the state
/// cap must cut the frontier at exactly the same point either way.
#[test]
fn bounded_sequential_count_parity() {
    fn check<P>(name: &str, p: &P)
    where
        P: Symmetry + Clone + Sync,
        P::State: Send + Sync + 'static,
    {
        for sym in SYMS {
            let (eager, lazy) = both(p, 4_000, 1, sym);
            assert_eq!(verdict(&eager), "Bounded", "{name} {sym:?}");
            assert_eq!(verdict(&lazy), "Bounded", "{name} {sym:?}");
            assert_eq!(
                counts(&eager),
                counts(&lazy),
                "{name} {sym:?}: bounded lazy/eager count divergence"
            );
        }
    }
    check("mesi", &MesiProtocol::new(Params::new(2, 2, 2)));
    check("directory", &DirectoryProtocol::new(Params::new(2, 1, 1)));
    check(
        "lazy-caching",
        &LazyCaching::new(Params::new(2, 1, 1), 1, 1),
    );
}

/// MSI at `Params(6,2,2)` under full symmetry with a 20k-state cap, where
/// the sort-based canonicalizer runs at full group size: the bounded
/// sequential search must cut at the same point on both paths.
/// Release-mode only, so it gates on `SCV_STRESS=1` like the other large
/// searches.
#[test]
fn stress_pinned_perf_cell_count_parity() {
    if std::env::var_os("SCV_STRESS").is_none_or(|v| v != "1") {
        eprintln!("skipping the Params(6,2,2) parity search; enable with SCV_STRESS=1");
        return;
    }
    let (eager, lazy) = both(
        &MsiProtocol::new(Params::new(6, 2, 2)),
        20_000,
        1,
        SymmetryMode::Full,
    );
    assert_eq!(verdict(&eager), verdict(&lazy), "verdict diverged");
    assert_eq!(
        counts(&eager),
        counts(&lazy),
        "msi (6,2,2) full symmetry: lazy/eager count divergence"
    );
}

/// Replay a counterexample through the protocol (resolving each action to
/// an enabled transition) and assert the §5 online monitor flags it —
/// proving the run is a genuine run of the unreduced protocol and
/// re-deriving the rejection through a codepath separate from the model
/// checker.
fn replay_flags_violation<P: Protocol + Clone>(p: &P, run: &[Action]) {
    let replayed = replay(p, run).expect("every counterexample action must be enabled in turn");
    assert!(
        monitor_run(p, &replayed).is_err(),
        "replayed counterexample must fail the online monitor"
    );
}

/// Violating protocols: the gate must never eat the violation. Both
/// engines find it on both paths, every counterexample replays through
/// the online monitor, and the deterministic sequential engine produces
/// the *identical* run either way.
#[test]
fn violation_parity_and_counterexample_replay() {
    let buggy = MsiProtocol::buggy(Params::new(2, 2, 1));
    // The buggy variant opts out of processor symmetry; Off and Full are
    // the meaningful quotient modes for it.
    for sym in [SymmetryMode::Off, SymmetryMode::Full] {
        for threads in THREADS {
            let (eager, lazy) = both(&buggy, 2_000_000, threads, sym);
            let tag = format!("threads={threads} {sym:?}");
            let SearchResult::Unsafe(lazy_ce, _) = &lazy else {
                panic!("{tag}: lazy expected Violation, got {:?}", lazy.stats());
            };
            let SearchResult::Unsafe(eager_ce, _) = &eager else {
                panic!("{tag}: eager expected Violation, got {:?}", eager.stats());
            };
            assert!(!lazy_ce.path.is_empty(), "{tag}: trivial counterexample");
            replay_flags_violation(&buggy, &lazy_ce.path);
            replay_flags_violation(&buggy, &eager_ce.path);
            if threads == 1 {
                assert_eq!(
                    lazy_ce.path, eager_ce.path,
                    "{tag}: sequential BFS must find the same counterexample"
                );
                assert_eq!(
                    counts(&eager),
                    counts(&lazy),
                    "{tag}: sequential lazy/eager count divergence"
                );
            }
        }
    }
}
