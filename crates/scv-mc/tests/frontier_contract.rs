//! The frontier's fingerprint contract.
//!
//! A frontier state carries its canonical encoding packed, and is stored
//! beside the fingerprint the admission gate computed from the *unpacked*
//! words before the state existed. Checkpoints, resume and the seen-set
//! all rely on the two agreeing, so for every `(state, fingerprint)` pair
//! an interrupted search hands back:
//!
//! * rehashing the materialized state under the checkpoint's seeds,
//!   `Fingerprinter::from_seeds(ck.seeds).fp(&state)`, reproduces the
//!   stored fingerprint;
//! * the state's unpacked encoding equals a from-scratch recomputation,
//!   `sys.canonical_encoding_of(&state)`.
//!
//! Together these say that unpacking inverts packing on every state the
//! engines really admit, including states admitted on an orbit-seal cache
//! hit, whose encoding is recomputed when the chunk is frozen (full
//! symmetry at p = 2, v = 2 has a group of order 4, the smallest that
//! keys the cache).
//!
//! Each zoo protocol runs under every symmetry mode, on sequential BFS
//! and on the two-worker work-stealing engine, until a state budget
//! interrupts it. With `SCV_STRESS=1` msi, directory and lazy caching
//! also run at (6,2,2) to a 30 000-state budget.

use scv_mc::{
    bfs_controlled, ws_search_controlled, BfsOptions, Budget, CancelToken, ControlledSearch,
    Fingerprinter, RunControl, SymmetryMode, VerifySystem,
};
use scv_protocol::{
    DirectoryProtocol, Fig4Protocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory,
    StoreBufferTso, Symmetry,
};
use scv_types::Params;

const MODES: [SymmetryMode; 4] = [
    SymmetryMode::Off,
    SymmetryMode::Proc,
    SymmetryMode::Full,
    SymmetryMode::FullEnum,
];

/// Interrupt each search by a state budget, on both engines and under
/// every symmetry mode, and check every frontier triple. Returns how many
/// frontier states were checked.
fn check_frontiers<P>(name: &str, proto: &P, budget: usize) -> usize
where
    P: Symmetry + Clone + Sync,
    P::State: Send + Sync + 'static,
{
    let mut checked = 0;
    for mode in MODES {
        let sys = VerifySystem::with_symmetry(proto.clone(), mode);
        for threads in [1, 2] {
            let ctrl = RunControl::new(&Budget::unlimited().states(budget), CancelToken::new());
            let opts = BfsOptions::new().max_states(usize::MAX);
            let result = if threads == 1 {
                bfs_controlled(&sys, opts, &ctrl, None, None)
            } else {
                ws_search_controlled(&sys, opts, threads, 32, &ctrl, None, None).0
            };
            let ControlledSearch::Interrupted { checkpoint: ck, .. } = result else {
                panic!("{name} {mode:?} t={threads}: the budget did not interrupt the search");
            };
            assert!(
                !ck.frontier.is_empty(),
                "{name} {mode:?} t={threads}: empty frontier"
            );
            let fper = Fingerprinter::from_seeds(ck.seeds);
            for (state, fp, depth) in &ck.frontier {
                assert_eq!(
                    fper.fp(state),
                    *fp,
                    "{name} {mode:?} t={threads}: a depth-{depth} state rehashes differently"
                );
                assert_eq!(
                    state.encoding(),
                    sys.canonical_encoding_of(state),
                    "{name} {mode:?} t={threads}: a depth-{depth} state unpacks differently"
                );
            }
            checked += ck.frontier.len();
        }
    }
    checked
}

#[test]
fn every_zoo_frontier_keeps_its_fingerprint() {
    let p212 = Params::new(2, 1, 2);
    let p221 = Params::new(2, 2, 1);
    let budget = 600;
    let checked = check_frontiers("serial (2,1,2)", &SerialMemory::new(p212), budget)
        + check_frontiers("msi (2,1,2)", &MsiProtocol::new(p212), budget)
        + check_frontiers("msi-buggy (2,2,1)", &MsiProtocol::buggy(p221), budget)
        + check_frontiers("mesi (2,1,2)", &MesiProtocol::new(p212), budget)
        + check_frontiers("mesi-buggy (2,2,1)", &MesiProtocol::buggy(p221), budget)
        + check_frontiers("directory (2,1,2)", &DirectoryProtocol::new(p212), budget)
        + check_frontiers("lazy (2,1,2) q=(1,1)", &LazyCaching::new(p212, 1, 1), budget)
        // These two are rejected a few levels deep: stop before that.
        + check_frontiers("tso (2,2,1)", &StoreBufferTso::new(p221, 1), 60)
        + check_frontiers("fig4 (2,1,2)", &Fig4Protocol::new(p212, 1), 12);
    assert!(checked > 0);
}

#[test]
fn every_frontier_keeps_its_fingerprint_stress() {
    if std::env::var_os("SCV_STRESS").is_none() {
        return;
    }
    let params = Params::new(6, 2, 2);
    let budget = 30_000;
    for (name, checked) in [
        (
            "msi",
            check_frontiers("msi (6,2,2)", &MsiProtocol::new(params), budget),
        ),
        (
            "directory",
            check_frontiers("directory (6,2,2)", &DirectoryProtocol::new(params), budget),
        ),
        (
            "lazy",
            check_frontiers("lazy (6,2,2)", &LazyCaching::new(params, 1, 1), budget),
        ),
    ] {
        eprintln!("{name} (6,2,2): {checked} frontier states checked");
    }
}
