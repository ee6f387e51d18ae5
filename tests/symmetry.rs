//! Differential battery for the symmetry-quotient search.
//!
//! The quotient search canonicalizes every product state to the
//! orbit-minimum encoding under the protocol's declared symmetry group
//! before the seen-set admits its fingerprint (DESIGN.md, "Symmetry
//! quotient"). Soundness says the reduced search must be *observationally
//! identical* to the full one:
//!
//! * same verdict variant on every engine and thread count — never a
//!   missed violation, never a spurious one;
//! * strictly fewer (or equal) explored states, since each orbit is
//!   visited once;
//! * every counterexample it produces is still a genuine run of the
//!   *unreduced* system (stored states are the genuinely reached orbit
//!   members, not representatives), so its trace independently fails the
//!   direct serial-reordering search.

use sc_verify::fuzz::replay;
use sc_verify::prelude::*;
use sc_verify::testing::monitor_run;

/// Engine thread counts exercised by every differential check: 1 runs
/// sequential BFS, 4 the asynchronous work-stealing engine.
const THREADS: [usize; 2] = [1, 4];

fn opts(max_states: usize, threads: usize, sym: SymmetryMode) -> VerifyOptions {
    VerifyOptions::new()
        .max_states(max_states)
        .threads(threads)
        .symmetry(sym)
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

/// Exhaustive search of a product small enough to finish in debug mode:
/// both searches must prove SC, and the quotient must be smaller. With
/// p = 1 the processor dimension is trivial, so the reduction measured
/// here comes entirely from value symmetry.
#[test]
fn exhaustive_parity_on_every_engine() {
    for threads in THREADS {
        let off = verify_protocol(
            SerialMemory::new(Params::new(1, 1, 2)),
            opts(2_000_000, threads, SymmetryMode::Off),
        );
        let on = verify_protocol(
            SerialMemory::new(Params::new(1, 1, 2)),
            opts(2_000_000, threads, SymmetryMode::Full),
        );
        assert!(
            off.is_verified() && on.is_verified(),
            "threads={threads}: off={:?} on={:?}",
            off.stats(),
            on.stats()
        );
        assert!(
            on.stats().states < off.stats().states,
            "threads={threads}: quotient must shrink the space \
             ({} vs {})",
            on.stats().states,
            off.stats().states
        );
    }
}

/// The headline reduction claim on MSI (2,1,2): a depth-limited sweep
/// (identical frontier either way) explores at least 2x fewer states
/// under the full symmetry group, with the same verdict.
#[test]
fn msi_reduction_is_at_least_two_fold() {
    let base = |sym| {
        VerifyOptions::new()
            .max_states(500_000)
            .max_depth(8)
            .symmetry(sym)
    };
    let off = verify_protocol(
        MsiProtocol::new(Params::new(2, 1, 2)),
        base(SymmetryMode::Off),
    );
    let on = verify_protocol(
        MsiProtocol::new(Params::new(2, 1, 2)),
        base(SymmetryMode::Full),
    );
    assert_eq!(verdict(&off), verdict(&on));
    assert!(
        on.stats().states * 2 <= off.stats().states,
        "expected >=2x reduction: {} vs {}",
        on.stats().states,
        off.stats().states
    );
}

/// Safe protocols under a tight cap: the reduced search must stay
/// Bounded on every engine — no spurious violation can be introduced by
/// orbit merging.
#[test]
fn safe_protocols_stay_safe_under_symmetry() {
    for threads in THREADS {
        for sym in [SymmetryMode::Proc, SymmetryMode::Full] {
            let out = verify_protocol(
                MsiProtocol::new(Params::new(2, 1, 2)),
                opts(6_000, threads, sym),
            );
            assert_eq!(verdict(&out), "Bounded", "threads={threads} {sym:?}");
            let out = verify_protocol(
                LazyCaching::new(Params::new(2, 1, 1), 1, 1),
                opts(6_000, threads, sym),
            );
            assert_eq!(verdict(&out), "Bounded", "lazy threads={threads} {sym:?}");
        }
    }
}

/// Replay a counterexample through the protocol (resolving each action to
/// an enabled transition) and assert the §5 online monitor flags it —
/// this both proves the run is a genuine run of the *unreduced* protocol
/// (every action must be enabled in sequence) and re-derives the
/// rejection through a codepath separate from the model checker.
fn replay_flags_violation<P: Protocol + Clone>(p: &P, run: &[Action]) {
    let replayed = replay(p, run).expect("every counterexample action must be enabled in turn");
    assert!(
        monitor_run(p, &replayed).is_err(),
        "replayed counterexample must fail the online monitor"
    );
}

/// Violating protocols: the quotient search must still catch the bug on
/// every engine, and each counterexample must be a genuine run of the
/// unreduced system that independently fails the §5 online monitor.
/// The sequential engine's counterexample is additionally shortest
/// (deterministic BFS), and for these protocols its trace genuinely has
/// no serial reordering; asynchronous schedules may surface a different
/// rejected run whose trace is itself SC (rejection = "no witness under
/// this ST-order generator"), which the monitor replay still validates.
fn assert_violation_matrix<P>(p: P, sym: SymmetryMode)
where
    P: Symmetry + Clone + Sync,
    P::State: Send + Sync + 'static,
{
    for threads in THREADS {
        let out = verify_protocol(p.clone(), opts(2_000_000, threads, sym));
        let Outcome::Violation { run, trace, .. } = &out else {
            panic!(
                "threads={threads} {sym:?}: expected Violation, got {:?}",
                out.stats()
            );
        };
        assert!(!run.is_empty(), "violating run must be non-trivial");
        replay_flags_violation(&p, run);
        if threads == 1 {
            assert!(
                !has_serial_reordering(trace),
                "{sym:?}: sequential reduced-search counterexample must be \
                 non-SC: {trace}"
            );
        }
    }
}

#[test]
fn buggy_msi_caught_under_full_symmetry() {
    // The buggy variant opts out of processor symmetry (the fault picks
    // on the highest-numbered sharer); Full therefore quotients by
    // blocks and values only — and must still find the lost
    // invalidation.
    assert_violation_matrix(MsiProtocol::buggy(Params::new(2, 2, 1)), SymmetryMode::Full);
}

#[test]
fn tso_caught_under_full_symmetry() {
    assert_violation_matrix(
        StoreBufferTso::new(Params::new(2, 2, 1), 1),
        SymmetryMode::Full,
    );
}

#[test]
fn buggy_mesi_caught_under_proc_mode() {
    // Proc mode requests processor permutations only; buggy MESI declares
    // none sound, so the effective group is trivial and the search must
    // behave exactly like the unreduced one.
    assert_violation_matrix(
        MesiProtocol::buggy(Params::new(2, 2, 1)),
        SymmetryMode::Proc,
    );
}

/// Sequential state counts are deterministic, so the 1-thread reduced
/// count must agree between the facade and the free function — one
/// construction site for the quotient, not two behaviours.
#[test]
fn facade_and_free_function_agree_under_symmetry() {
    let o = VerifyOptions::new()
        .max_states(6_000)
        .symmetry(SymmetryMode::Full);
    let direct = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), o.clone());
    let facade = Verifier::with_options(MsiProtocol::new(Params::new(2, 1, 2)), o).run();
    assert_eq!(verdict(&direct), verdict(&facade));
    assert_eq!(direct.stats().states, facade.stats().states);
}
