//! Interrupt/checkpoint/resume must be invisible to the verification
//! result.
//!
//! Each property kills a run at a random admission point (a state-budget
//! trip lands at a batch-admission boundary — the only place the engines
//! poll their [`Budget`]), checkpoints, resumes from the file, and
//! demands the resumed search agree with an uninterrupted run of the same
//! configuration:
//!
//!  * the verdict is identical;
//!  * for exhaustive (`Verified`) searches the state count is identical
//!    on every engine — the reachable quotient does not depend on the
//!    schedule;
//!  * for sequential searches the state count is identical even when the
//!    search stops early (BFS order is deterministic, and the checkpoint
//!    preserves the frontier order);
//!  * a `Violation` counterexample from a resumed run still replays
//!    action-by-action through the raw protocol and its trace genuinely
//!    has no serial reordering — resume cannot fabricate or corrupt a
//!    counterexample.
//!
//! The matrix spans {1, 4} threads (sequential BFS, work-stealing) ×
//! {off, full} symmetry, as drawn by the (deterministic, vendored)
//! proptest runner.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sc_verify::prelude::*;
use std::path::PathBuf;

/// A per-case checkpoint path that cannot collide across test binaries
/// or proptest cases.
fn ckpt_path(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scv-run-control-{}-{tag}-{case}.ckpt",
        std::process::id()
    ))
}

fn base_opts(threads: usize, sym: SymmetryMode) -> VerifyOptions {
    VerifyOptions::new()
        .max_states(2_000_000)
        .threads(threads)
        .symmetry(sym)
        .batch_size(16)
}

/// Replay a counterexample through the raw protocol: every action must be
/// enabled in sequence from the initial state.
fn replays<P: Protocol>(proto: &P, run: &[Action]) -> bool {
    let mut state = proto.initial();
    for a in run {
        let Some(t) = proto
            .transitions(&state)
            .into_iter()
            .find(|t| t.action == *a)
        else {
            return false;
        };
        state = t.next;
    }
    true
}

/// Validate a counterexample. Every engine must return a run that
/// replays; only the sequential engine's shortest counterexample is
/// additionally guaranteed to have a genuinely non-SC trace (a parallel
/// schedule may surface a longer path whose witness order fails even
/// though the trace admits some other serial reordering — the same
/// caveat the CLI prints for its independent cross-check).
fn check_violation<P: Protocol>(
    proto: &P,
    out: &Outcome,
    require_genuine: bool,
    what: &str,
) -> Result<(), TestCaseError> {
    let Outcome::Violation { run, trace, .. } = out else {
        return Err(TestCaseError::fail(format!("{what}: expected Violation")));
    };
    prop_assert!(replays(proto, run), "{}: counterexample must replay", what);
    if require_genuine {
        prop_assert!(
            !has_serial_reordering(trace),
            "{}: sequential counterexample trace must be a genuine SC violation",
            what
        );
    }
    Ok(())
}

/// Kill → checkpoint → resume one configuration and compare against the
/// uninterrupted run. `mk` builds the protocol fresh for each search.
#[allow(clippy::too_many_arguments)]
fn kill_resume_case<P, F>(
    mk: F,
    tag: &str,
    case: u64,
    kill_at: usize,
    threads: usize,
    sym: SymmetryMode,
    expect_violation: bool,
) -> Result<(), TestCaseError>
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
    F: Fn() -> P,
{
    let path = ckpt_path(tag, case);
    let _ = std::fs::remove_file(&path);

    let clean = Verifier::with_options(mk(), base_opts(threads, sym)).run();

    let killed = Verifier::with_options(mk(), base_opts(threads, sym))
        .budget(Budget::unlimited().states(kill_at))
        .checkpoint_to(&path)
        .run_controlled()
        .map_err(|e| TestCaseError::fail(format!("kill run: {e}")))?;

    let final_out = match &killed {
        // The budget tripped mid-search: a checkpoint must exist and the
        // resumed run finishes the job.
        Outcome::Inconclusive { coverage, .. } => {
            prop_assert!(
                coverage.explored >= kill_at,
                "coverage.explored={} must reach the tripped budget {}",
                coverage.explored,
                kill_at
            );
            prop_assert!(path.is_file(), "budget trip must write the checkpoint");
            Verifier::with_options(mk(), base_opts(threads, sym))
                .resume_from(&path)
                .run_controlled()
                .map_err(|e| TestCaseError::fail(format!("resume run: {e}")))?
        }
        // The search finished inside the budget (small quotient or an
        // early counterexample): there is nothing to resume, and the
        // outcome must already agree with the clean run.
        other => other.clone(),
    };
    let _ = std::fs::remove_file(&path);

    prop_assert_eq!(
        verdict_str(&final_out),
        verdict_str(&clean),
        "verdict parity ({}, kill_at {})",
        tag,
        kill_at
    );
    match &clean {
        // Exhaustive proof: the state count is the size of the reachable
        // quotient, identical on every engine and unchanged by resume.
        Outcome::Verified { stats } => {
            prop_assert_eq!(
                final_out.stats().states,
                stats.states,
                "exhaustive state count parity ({})",
                tag
            );
        }
        // Early-stop verdicts are only schedule-deterministic
        // sequentially; there resume must reproduce the exact count.
        _ if threads == 1 => {
            prop_assert_eq!(
                final_out.stats().states,
                stats_of(&clean),
                "sequential state count parity ({})",
                tag
            );
        }
        _ => {}
    }
    if expect_violation {
        let proto = mk();
        let genuine = threads == 1;
        check_violation(&proto, &clean, genuine, "clean")?;
        check_violation(&proto, &final_out, genuine, "resumed")?;
        if threads == 1 {
            // Sequential BFS is deterministic and the checkpoint keeps
            // the frontier order, so resume reproduces the exact shortest
            // counterexample.
            let (Outcome::Violation { run: r1, .. }, Outcome::Violation { run: r2, .. }) =
                (&clean, &final_out)
            else {
                unreachable!("both checked as Violation above");
            };
            prop_assert_eq!(r1, r2, "sequential counterexample parity ({})", tag);
        }
    }
    Ok(())
}

fn stats_of(out: &Outcome) -> usize {
    out.stats().states
}

fn matrix(pick: u8) -> (usize, SymmetryMode) {
    let threads = if pick & 1 == 0 { 1 } else { 4 };
    let sym = if pick & 2 == 0 {
        SymmetryMode::Off
    } else {
        SymmetryMode::Full
    };
    (threads, sym)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exhaustively verified product (serial memory 1,1,2 — 522 raw
    /// states): killing anywhere and resuming must land on the same
    /// proof with the same state count, on every engine combination.
    #[test]
    fn kill_resume_parity_on_a_verified_product(
        case in 0u64..1_000_000,
        kill_at in 30usize..450,
        pick in 0u8..4,
    ) {
        let (threads, sym) = matrix(pick);
        kill_resume_case(
            || SerialMemory::new(Params::new(1, 1, 2)),
            "serial",
            case,
            kill_at,
            threads,
            sym,
            false,
        )?;
    }

    /// Violating product (MSI with a lost invalidation): the resumed
    /// search must still catch the bug, and its counterexample must
    /// replay and be a genuine violation.
    #[test]
    fn kill_resume_parity_on_a_violating_product(
        case in 0u64..1_000_000,
        kill_at in 30usize..800,
        pick in 0u8..4,
    ) {
        let (threads, sym) = matrix(pick);
        // Value symmetry is trivial here (v = 1); Full still exercises
        // the symmetry-aware checkpoint round-trip.
        kill_resume_case(
            || MsiProtocol::buggy(Params::new(2, 2, 1)),
            "msi-buggy",
            case,
            kill_at,
            threads,
            sym,
            true,
        )?;
    }
}

/// Cross-engine resume: a run killed under the 4-thread work-stealing
/// engine resumes sequentially (and vice versa) to the same exhaustive
/// proof — the checkpoint format is engine-neutral.
#[test]
fn checkpoint_is_engine_neutral() {
    let clean = Verifier::new(SerialMemory::new(Params::new(1, 1, 2)))
        .max_states(2_000_000)
        .run();
    let Outcome::Verified { stats } = &clean else {
        panic!("serial memory (1,1,2) must verify exhaustively");
    };

    for (kill_threads, resume_threads) in [(4usize, 1usize), (1, 4)] {
        let path = ckpt_path("engine-neutral", kill_threads as u64);
        let _ = std::fs::remove_file(&path);
        let killed = Verifier::new(SerialMemory::new(Params::new(1, 1, 2)))
            .max_states(2_000_000)
            .threads(kill_threads)
            .budget(Budget::unlimited().states(100))
            .checkpoint_to(&path)
            .run_controlled()
            .unwrap();
        assert!(killed.is_inconclusive(), "100-state budget must trip");
        let resumed = Verifier::new(SerialMemory::new(Params::new(1, 1, 2)))
            .max_states(2_000_000)
            .threads(resume_threads)
            .resume_from(&path)
            .run_controlled()
            .unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(resumed.is_verified(), "{kill_threads}->{resume_threads}");
        assert_eq!(
            resumed.stats().states,
            stats.states,
            "{kill_threads}->{resume_threads}: exhaustive count must match"
        );
    }
}

/// A bounded run with the orbit-seal cache engaged (msi (2,1,2) under
/// full symmetry has group order 4) resumes to the clean run's totals,
/// on the system that wrote the checkpoint and on a fresh one — each
/// slice starts with an empty cache.
#[test]
fn resume_with_the_seal_cache_engaged_matches_clean_run() {
    let system =
        || VerifySystem::with_symmetry(MsiProtocol::new(Params::new(2, 1, 2)), SymmetryMode::Full);
    let opts = || VerifyOptions::new().max_states(30_000);
    let clean = system().search(&opts());
    assert!(
        matches!(clean, Outcome::Bounded { .. }),
        "{:?}",
        clean.stats()
    );

    let path = ckpt_path("seal-cache", 0);
    let _ = std::fs::remove_file(&path);
    let sys = system();
    assert_eq!(sys.symmetry_group_order(), 4);
    let killed = sys
        .try_search(
            &opts()
                .budget(Budget::unlimited().states(2_000))
                .checkpoint_to(&path),
        )
        .unwrap();
    assert!(killed.is_inconclusive(), "2 000-state budget must trip");

    // Both runs stop at the cap, so `states` agrees trivially; a wrong
    // cached orbit fingerprint would move the transition total.
    for resumed_on in [&sys, &system()] {
        let resumed = resumed_on.try_search(&opts().resume_from(&path)).unwrap();
        assert!(
            matches!(resumed, Outcome::Bounded { .. }),
            "{:?}",
            resumed.stats()
        );
        assert_eq!(resumed.stats().states, clean.stats().states);
        assert_eq!(resumed.stats().transitions, clean.stats().transitions);
    }
    let _ = std::fs::remove_file(&path);
}

/// A cancel token trips mid-search from another thread and the drained
/// checkpoint resumes to the full proof.
#[test]
fn cancelled_run_checkpoints_and_resumes() {
    let path = ckpt_path("cancel", 0);
    let _ = std::fs::remove_file(&path);
    let token = CancelToken::new();
    token.cancel(); // polled at the first admission boundary
    let out = Verifier::new(SerialMemory::new(Params::new(1, 1, 2)))
        .max_states(2_000_000)
        .cancel_token(token)
        .checkpoint_to(&path)
        .run_controlled()
        .unwrap();
    let Outcome::Inconclusive { reason, .. } = &out else {
        panic!("cancelled run must be inconclusive, got {:?}", out.stats());
    };
    assert_eq!(reason.to_string(), "cancelled");
    assert!(path.is_file(), "cancellation must write the checkpoint");

    let resumed = Verifier::new(SerialMemory::new(Params::new(1, 1, 2)))
        .max_states(2_000_000)
        .resume_from(&path)
        .run_controlled()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(resumed.is_verified());
    assert_eq!(resumed.stats().states, 522);
}
