//! Contract tests for the public option builders and the typed rejection
//! channel.
//!
//! The builder defaults are load-bearing: the CLI, the fuzz harness, and
//! the experiment battery all construct `VerifyOptions::new()` and adjust
//! only the knobs they care about, so a silently changed default would
//! shift every caller at once. Likewise `RejectReason`'s `Display` text
//! is diffed across versions by log-comparison tooling, so it is pinned
//! here for every `ScErrorKind` variant in both rejection stages.

use scv_checker::{ScError, ScErrorKind};
use scv_mc::{
    BfsOptions, Budget, CancelToken, Coverage, InterruptReason, RejectReason, SymmetryMode,
    VerifyOptions,
};
use std::time::Duration;

/// Every `ScErrorKind` variant, exactly once. A new variant shows up as a
/// non-exhaustive-match compile error in `kind_name`, which forces this
/// list (and therefore the Display pins below) to be extended.
fn all_kinds() -> Vec<ScErrorKind> {
    vec![
        ScErrorKind::CycleClosed,
        ScErrorKind::DanglingEdge,
        ScErrorKind::IdOutOfRange,
        ScErrorKind::UnlabeledNode,
        ScErrorKind::UnlabeledEdge,
        ScErrorKind::TooManyRetained,
        ScErrorKind::ProgramOrder("po-test"),
        ScErrorKind::StOrder("st-test"),
        ScErrorKind::Inheritance("inh-test"),
        ScErrorKind::ForcedUnsatisfied,
        ScErrorKind::BottomUnsatisfied,
    ]
}

fn kind_name(kind: &ScErrorKind) -> &'static str {
    match kind {
        ScErrorKind::CycleClosed => "CycleClosed",
        ScErrorKind::DanglingEdge => "DanglingEdge",
        ScErrorKind::IdOutOfRange => "IdOutOfRange",
        ScErrorKind::UnlabeledNode => "UnlabeledNode",
        ScErrorKind::UnlabeledEdge => "UnlabeledEdge",
        ScErrorKind::TooManyRetained => "TooManyRetained",
        ScErrorKind::ProgramOrder(_) => "ProgramOrder",
        ScErrorKind::StOrder(_) => "StOrder",
        ScErrorKind::Inheritance(_) => "Inheritance",
        ScErrorKind::ForcedUnsatisfied => "ForcedUnsatisfied",
        ScErrorKind::BottomUnsatisfied => "BottomUnsatisfied",
    }
}

#[test]
fn every_kind_appears_exactly_once() {
    let kinds = all_kinds();
    let mut names: Vec<&str> = kinds.iter().map(kind_name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), kinds.len(), "duplicate kind in all_kinds()");
}

#[test]
fn stream_rejections_display_the_checker_error_verbatim() {
    for kind in all_kinds() {
        let err = ScError {
            position: Some(7),
            kind: kind.clone(),
        };
        let reason = RejectReason::Stream(err.clone());
        assert_eq!(reason.error(), &err);
        let text = reason.to_string();
        assert_eq!(text, err.to_string());
        assert!(
            text.starts_with("rejected at symbol 7: "),
            "{text:?} for {}",
            kind_name(&kind)
        );
        assert!(text.contains(kind_name(&kind)), "{text:?}");
    }
}

#[test]
fn run_end_rejections_get_the_run_end_prefix() {
    for kind in all_kinds() {
        // End-of-string rejections carry no symbol position.
        let err = ScError {
            position: None,
            kind: kind.clone(),
        };
        let reason = RejectReason::RunEnd(err.clone());
        assert_eq!(reason.error(), &err);
        let text = reason.to_string();
        assert_eq!(text, format!("at run end: {err}"));
        assert!(
            text.starts_with("at run end: rejected at end of input: "),
            "{text:?} for {}",
            kind_name(&kind)
        );
        assert!(text.contains(kind_name(&kind)), "{text:?}");
    }
}

#[test]
fn reject_reason_distinguishes_the_stage_not_just_the_error() {
    let err = ScError {
        position: Some(1),
        kind: ScErrorKind::CycleClosed,
    };
    let stream = RejectReason::Stream(err.clone());
    let run_end = RejectReason::RunEnd(err);
    assert_ne!(stream, run_end);
    assert_eq!(stream.error(), run_end.error());
    assert_eq!(stream, stream.clone());
}

#[test]
fn parameterized_kinds_carry_their_rule_text() {
    for (kind, rule) in [
        (ScErrorKind::ProgramOrder("c2-rule"), "c2-rule"),
        (ScErrorKind::StOrder("c3-rule"), "c3-rule"),
        (ScErrorKind::Inheritance("c4-rule"), "c4-rule"),
    ] {
        let reason = RejectReason::Stream(ScError {
            position: Some(0),
            kind,
        });
        assert!(reason.to_string().contains(rule), "{reason}");
    }
}

#[test]
fn bfs_options_defaults() {
    let opts = BfsOptions::new();
    assert_eq!(opts.max_states, 1_000_000);
    assert_eq!(opts.max_depth, usize::MAX);
    assert_eq!(opts.max_states, BfsOptions::default().max_states);
    assert_eq!(opts.max_depth, BfsOptions::default().max_depth);
}

#[test]
fn bfs_options_builders_touch_only_their_field() {
    let opts = BfsOptions::new().max_states(42);
    assert_eq!(opts.max_states, 42);
    assert_eq!(opts.max_depth, usize::MAX);

    let opts = BfsOptions::new().max_depth(9);
    assert_eq!(opts.max_states, 1_000_000);
    assert_eq!(opts.max_depth, 9);
}

#[test]
fn verify_options_defaults() {
    for opts in [VerifyOptions::new(), VerifyOptions::default()] {
        // Sequential by default; the 200k cap keeps an accidental
        // unbounded product search from running away.
        assert_eq!(opts.threads, 1);
        assert_eq!(opts.bfs.max_states, 200_000);
        assert_eq!(opts.bfs.max_depth, usize::MAX);
        assert_eq!(opts.batch_size, 128);
        assert!(matches!(opts.symmetry, SymmetryMode::Off));
        // Run control defaults: no budget, fresh token, no checkpointing.
        assert!(opts.budget.is_unlimited());
        assert!(!opts.cancel.is_cancelled());
        assert_eq!(opts.checkpoint_every, None);
        assert_eq!(opts.checkpoint_path, None);
        assert_eq!(opts.resume_from, None);
    }
}

#[test]
fn run_control_builders_touch_only_their_field() {
    let base = VerifyOptions::new();

    let opts = VerifyOptions::new().budget(Budget::unlimited().states(5_000));
    assert_eq!(opts.budget.max_states, Some(5_000));
    assert_eq!(opts.budget.deadline, None);
    assert_eq!(opts.bfs.max_states, base.bfs.max_states);

    // `timeout` composes with an existing budget instead of replacing it.
    let opts = VerifyOptions::new()
        .budget(Budget::unlimited().states(5_000))
        .timeout(Duration::from_secs(9));
    assert_eq!(opts.budget.max_states, Some(5_000));
    assert_eq!(opts.budget.deadline, Some(Duration::from_secs(9)));

    let token = CancelToken::new();
    let opts = VerifyOptions::new().cancel_token(token.clone());
    token.cancel();
    assert!(
        opts.cancel.is_cancelled(),
        "token must be shared, not copied"
    );

    let opts = VerifyOptions::new()
        .checkpoint_every(Duration::from_secs(30))
        .checkpoint_to("/tmp/a.ckpt")
        .resume_from("/tmp/b.ckpt");
    assert_eq!(opts.checkpoint_every, Some(Duration::from_secs(30)));
    assert_eq!(
        opts.checkpoint_path.as_deref(),
        Some("/tmp/a.ckpt".as_ref())
    );
    assert_eq!(opts.resume_from.as_deref(), Some("/tmp/b.ckpt".as_ref()));
    assert_eq!(opts.threads, base.threads);
}

#[test]
fn budget_builders_and_display_pins() {
    let b = Budget::unlimited()
        .deadline(Duration::from_secs(2))
        .states(123)
        .memory_bytes(1 << 20);
    assert_eq!(b.deadline, Some(Duration::from_secs(2)));
    assert_eq!(b.max_states, Some(123));
    assert_eq!(b.max_rss_bytes, Some(1 << 20));
    assert!(Budget::default().is_unlimited());

    // Interrupt reasons and coverage render stably (the CLI prints both).
    assert_eq!(InterruptReason::Cancelled.to_string(), "cancelled");
    assert_eq!(InterruptReason::Deadline.to_string(), "wall-clock deadline");
    assert_eq!(InterruptReason::StateBudget.to_string(), "state budget");
    assert_eq!(InterruptReason::MemoryBudget.to_string(), "memory budget");
    let cov = Coverage {
        explored: 10,
        frontier: 2,
        depth: 3,
    };
    assert_eq!(
        cov.to_string(),
        "10 states explored, 2 in frontier, depth 3"
    );
}

#[test]
fn verify_options_builders_touch_only_their_field() {
    let base = VerifyOptions::new();

    let opts = VerifyOptions::new().threads(8);
    assert_eq!(opts.threads, 8);
    assert_eq!(opts.bfs.max_states, base.bfs.max_states);
    assert_eq!(opts.batch_size, base.batch_size);

    let opts = VerifyOptions::new().max_states(777);
    assert_eq!(opts.bfs.max_states, 777);
    assert_eq!(opts.bfs.max_depth, usize::MAX);
    assert_eq!(opts.threads, 1);

    let opts = VerifyOptions::new().max_depth(5);
    assert_eq!(opts.bfs.max_depth, 5);
    assert_eq!(opts.bfs.max_states, base.bfs.max_states);

    let opts = VerifyOptions::new().bfs(BfsOptions::new());
    assert_eq!(opts.bfs.max_states, 1_000_000);
    assert_eq!(opts.threads, 1);

    let opts = VerifyOptions::new().batch_size(64);
    assert_eq!(opts.batch_size, 64);
    assert_eq!(opts.bfs.max_states, base.bfs.max_states);

    let opts = VerifyOptions::new().symmetry(SymmetryMode::Full);
    assert!(matches!(opts.symmetry, SymmetryMode::Full));
    assert_eq!(opts.threads, 1);
}

#[test]
fn builders_chain_in_any_order() {
    let a = VerifyOptions::new()
        .threads(4)
        .max_states(10_000)
        .symmetry(SymmetryMode::Proc)
        .batch_size(32);
    let b = VerifyOptions::new()
        .batch_size(32)
        .symmetry(SymmetryMode::Proc)
        .max_states(10_000)
        .threads(4);
    assert_eq!(a.threads, b.threads);
    assert_eq!(a.bfs.max_states, b.bfs.max_states);
    assert_eq!(a.batch_size, b.batch_size);
    assert!(matches!(b.symmetry, SymmetryMode::Proc));
}
