//! Golden exhaustive proofs: configurations that sequential BFS (t=1)
//! takes to `Verified` in seconds, pinned to their exact state and
//! transition counts under no symmetry and under the full quotient. The
//! brute-force reference canonicalizer (`full-enum`) must reach the very
//! counts of the sort-based one (`full`).
//!
//! Sequential FIFO BFS admits the same representative of every class on
//! every run, so its counts are exact; work-stealing counts drift a few
//! percent between schedules (`tests/parallel_mc.rs`), so only t=1 is
//! pinned here.
//!
//! Each proof takes seconds in release mode, so the battery gates on
//! `SCV_STRESS=1` (`SCV_STRESS=1 cargo test --release --test
//! golden_proofs`); a plain `cargo test` reports it as passed but
//! skipped.

use sc_verify::prelude::*;

fn stress_enabled() -> bool {
    std::env::var_os("SCV_STRESS").is_some_and(|v| v == "1")
}

/// Run `p` to a verdict at t=1 under `mode` and return its
/// (states, transitions), failing unless the proof completes.
fn proof<P>(p: P, mode: SymmetryMode, what: &str) -> (usize, usize)
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    let opts = VerifyOptions::new().max_states(2_000_000).symmetry(mode);
    let out = verify_protocol(p, opts);
    assert!(out.is_verified(), "{what} {mode:?}: {:?}", out.stats());
    (out.stats().states, out.stats().transitions)
}

/// Pin one configuration: `off` and `full` to their golden counts, and
/// `full-enum` to `full`'s.
fn pin<P>(mk: impl Fn() -> P, what: &str, off: (usize, usize), full: (usize, usize))
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    assert_eq!(proof(mk(), SymmetryMode::Off, what), off, "{what} off");
    assert_eq!(proof(mk(), SymmetryMode::Full, what), full, "{what} full");
    assert_eq!(
        proof(mk(), SymmetryMode::FullEnum, what),
        full,
        "{what} full-enum"
    );
}

#[test]
fn golden_exhaustive_proofs() {
    if !stress_enabled() {
        eprintln!("skipping the golden exhaustive proofs; enable with SCV_STRESS=1");
        return;
    }
    pin(
        || SerialMemory::new(Params::new(1, 1, 2)),
        "serial (1,1,2)",
        (522, 1_566),
        (263, 789),
    );
    pin(
        || SerialMemory::new(Params::new(2, 1, 1)),
        "serial (2,1,1)",
        (121_469, 485_876),
        (61_064, 244_256),
    );
    pin(
        || MsiProtocol::new(Params::new(1, 1, 2)),
        "msi (1,1,2)",
        (163_984, 592_102),
        (81_998, 296_069),
    );
    pin(
        || MesiProtocol::new(Params::new(1, 1, 2)),
        "mesi (1,1,2)",
        (163_984, 592_102),
        (81_998, 296_069),
    );
    pin(
        || DirectoryProtocol::new(Params::new(1, 1, 2)),
        "directory (1,1,2)",
        (306_690, 813_680),
        (153_355, 406_860),
    );
}
