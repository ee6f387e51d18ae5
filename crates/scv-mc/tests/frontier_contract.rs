//! The frontier's record contract.
//!
//! Both engines queue each admitted state as one packed record and keep
//! beside it the fingerprint the admission gate computed before the state
//! existed. Checkpoints, resume and the seen-set all rely on a record
//! giving back the state that was admitted, so for every record an
//! interrupted search hands back:
//!
//! * unpacking it into a state seeded from the system's initial state
//!   gives back the admitted protocol component (one of the states the
//!   engine materialized under that fingerprint: under symmetry two racing
//!   work-stealing workers may each materialize a different member of the
//!   orbit);
//! * the unpacked state's canonical encoding equals both the admitted
//!   state's and a from-scratch recomputation,
//!   `sys.canonical_encoding_of(&state)`;
//! * rehashing it under the checkpoint's seeds reproduces the stored
//!   fingerprint;
//! * packing it again gives the record's bytes.
//!
//! Records are unpacked one after another into the same state, as the
//! engines do, so a field a record fails to overwrite shows up as a
//! difference on some later record. States admitted on an orbit-seal
//! cache hit, whose encoding is recomputed when the chunk is frozen, are
//! covered too (full symmetry at p = 2, v = 2 has a group of order 4, the
//! smallest that keys the cache).
//!
//! Each zoo protocol runs under every symmetry mode, on sequential BFS
//! and on the two-worker work-stealing engine, until a state budget
//! interrupts it. With `SCV_STRESS=1` msi, directory and lazy caching
//! also run at (6,2,2) to a 30 000-state budget.

use scv_mc::{
    bfs_controlled, ws_search_controlled, BfsOptions, Budget, CancelToken, ControlledSearch,
    ExpandScratch, Fingerprinter, RunControl, SymmetryMode, TransitionSystem, VerifyState,
    VerifySystem,
};
use scv_protocol::{
    Action, DirectoryProtocol, Fig4Protocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory,
    StoreBufferTso, Symmetry,
};
use scv_types::{Pack, Params};
use std::collections::HashMap;
use std::sync::Mutex;

const MODES: [SymmetryMode; 4] = [
    SymmetryMode::Off,
    SymmetryMode::Proc,
    SymmetryMode::Full,
    SymmetryMode::FullEnum,
];

/// Every state a system's admission-gated expansion materialized, by
/// fingerprint.
type Admitted<PS> = Mutex<HashMap<u128, Vec<VerifyState<PS>>>>;

/// The product system, keeping a copy of every state it materializes.
struct Recording<'a, P: Symmetry> {
    sys: &'a VerifySystem<P>,
    admitted: Admitted<P::State>,
}

impl<P> TransitionSystem for Recording<'_, P>
where
    P: Symmetry,
    P::State: Send + 'static,
{
    type State = VerifyState<P::State>;
    type Label = Action;
    type Violation = scv_mc::RejectReason;

    fn initial(&self) -> Self::State {
        self.sys.initial()
    }
    fn successors(&self, s: &Self::State) -> Vec<(Action, Self::State)> {
        self.sys.successors(s)
    }
    fn violation(&self, s: &Self::State) -> Option<Self::Violation> {
        self.sys.violation(s)
    }
    fn expand_scratch(&self) -> ExpandScratch {
        self.sys.expand_scratch()
    }
    fn expand_admitted(
        &self,
        s: &Self::State,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(Action, Self::State, u128)>,
    ) {
        let before = out.len();
        self.sys.expand_admitted(s, scratch, fper, admit, out);
        let mut admitted = self.admitted.lock().unwrap();
        for (_, t, fp) in &out[before..] {
            admitted.entry(*fp).or_default().push(t.clone());
        }
    }
}

/// Interrupt each search by a state budget, on both engines and under
/// every symmetry mode, and check every frontier record. Returns how many
/// records were checked.
fn check_frontiers<P>(name: &str, proto: &P, budget: usize) -> usize
where
    P: Symmetry + Clone + Sync,
    P::State: Send + Sync + 'static,
{
    let mut checked = 0;
    for mode in MODES {
        let sys = VerifySystem::with_symmetry(proto.clone(), mode);
        for threads in [1, 2] {
            let at = format!("{name} {mode:?} t={threads}");
            let rec = Recording {
                sys: &sys,
                admitted: Mutex::new(HashMap::new()),
            };
            let ctrl = RunControl::new(&Budget::unlimited().states(budget), CancelToken::new());
            let opts = BfsOptions::new().max_states(usize::MAX);
            let result = if threads == 1 {
                bfs_controlled(&rec, opts, &ctrl, None, None)
            } else {
                ws_search_controlled(&rec, opts, threads, 32, &ctrl, None, None).0
            };
            let ControlledSearch::Interrupted { checkpoint: ck, .. } = result else {
                panic!("{at}: the budget did not interrupt the search");
            };
            assert!(!ck.frontier.is_empty(), "{at}: empty frontier");
            let fper = Fingerprinter::from_seeds(ck.seeds);
            let admitted = rec.admitted.into_inner().unwrap();
            let initial = [sys.initial()];
            let mut state = sys.initial();
            let mut again = Vec::new();
            for r in ck.frontier.iter() {
                let want: &[VerifyState<P::State>] = if r.fp == ck.init_fp {
                    &initial
                } else {
                    &admitted[&r.fp]
                };
                let mut bytes = r.state;
                state.unpack_from(&mut bytes);
                assert!(bytes.is_empty(), "{at}: a record unpacked short");
                assert!(
                    want.iter().any(|w| w.proto == state.proto),
                    "{at}: a depth-{} record unpacks to another protocol state",
                    r.depth
                );
                let enc = sys.canonical_encoding_of(&state);
                assert_eq!(state.encoding(), enc, "{at}: depth {}", r.depth);
                assert_eq!(want[0].encoding(), enc, "{at}: depth {}", r.depth);
                assert_eq!(
                    fper.fp(&state),
                    r.fp,
                    "{at}: a depth-{} record rehashes differently",
                    r.depth
                );
                again.clear();
                state.pack(&mut again);
                assert_eq!(
                    again, r.state,
                    "{at}: a depth-{} record repacks differently",
                    r.depth
                );
            }
            checked += ck.frontier.len();
        }
    }
    checked
}

#[test]
fn every_zoo_frontier_record_roundtrips() {
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
fn every_frontier_record_roundtrips_stress() {
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
        eprintln!("{name} (6,2,2): {checked} frontier records checked");
    }
}
