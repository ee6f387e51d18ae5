//! Frontier records on generated protocols.
//!
//! The engines queue each admitted state as its packed record and unpack
//! it into one reused state when they dequeue it. For random members of
//! the generated protocol family (correct and mutated, under every
//! symmetry mode) every state a sequential BFS admits must survive that
//! round trip: unpacked into a reused state seeded from the initial
//! state, it has the same protocol component, the same canonical encoding
//! (also recomputed from scratch), the same fingerprint under the
//! search's own seeds, and packs to the same bytes again. States carrying
//! a rejection are counterexamples, never queued, and are skipped.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_verify::fuzz::{GenConfig, GenProtocol};
use sc_verify::mc::{
    bfs, BfsOptions, ExpandScratch, Fingerprinter, RejectReason, SymmetryMode, TransitionSystem,
    VerifyState, VerifySystem,
};
use sc_verify::protocol::Action;
use sc_verify::types::Pack;
use std::cell::RefCell;

type State = VerifyState<<GenProtocol as sc_verify::protocol::Protocol>::State>;

/// The product system, round-tripping every state it admits.
struct RoundTrip<'a> {
    sys: &'a VerifySystem<GenProtocol>,
    /// The reused state records are unpacked into.
    reused: RefCell<State>,
    checked: RefCell<usize>,
    failures: RefCell<Vec<String>>,
}

impl RoundTrip<'_> {
    fn check(&self, t: &State, fp: u128, fper: &Fingerprinter) {
        if t.error.is_some() {
            return;
        }
        let mut bytes = Vec::new();
        t.pack(&mut bytes);
        let mut s = self.reused.borrow_mut();
        let mut rest = bytes.as_slice();
        s.unpack_from(&mut rest);
        let mut again = Vec::new();
        s.pack(&mut again);
        let problems = [
            (!rest.is_empty(), "the record unpacked short"),
            (s.proto != t.proto, "another protocol state"),
            (s.encoding() != t.encoding(), "another packed encoding"),
            (
                self.sys.canonical_encoding_of(&s) != t.encoding(),
                "another recomputed encoding",
            ),
            (fper.fp(&*s) != fp, "another fingerprint"),
            (again != bytes, "other bytes when packed again"),
        ];
        for (bad, what) in problems {
            if bad {
                self.failures
                    .borrow_mut()
                    .push(format!("{what}: {:?}", t.proto));
            }
        }
        *self.checked.borrow_mut() += 1;
    }
}

impl TransitionSystem for RoundTrip<'_> {
    type State = State;
    type Label = Action;
    type Violation = RejectReason;

    fn initial(&self) -> State {
        self.sys.initial()
    }
    fn successors(&self, s: &State) -> Vec<(Action, State)> {
        self.sys.successors(s)
    }
    fn violation(&self, s: &State) -> Option<RejectReason> {
        self.sys.violation(s)
    }
    fn expand_scratch(&self) -> ExpandScratch {
        self.sys.expand_scratch()
    }
    fn expand_admitted(
        &self,
        s: &State,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(Action, State, u128)>,
    ) {
        let before = out.len();
        self.sys.expand_admitted(s, scratch, fper, admit, out);
        for (_, t, fp) in &out[before..] {
            self.check(t, *fp, fper);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn admitted_states_survive_their_records(
        seed in 0u64..1_000_000,
        mutated in 0u8..2,
        mode in 0usize..4,
        cap in 200usize..1_500,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = if mutated == 1 {
            GenConfig::sample_mutated(&mut rng)
        } else {
            GenConfig::sample(&mut rng)
        };
        let mode = [
            SymmetryMode::Off,
            SymmetryMode::Proc,
            SymmetryMode::Full,
            SymmetryMode::FullEnum,
        ][mode];
        let sys = VerifySystem::with_symmetry(GenProtocol::new(cfg), mode);
        let rt = RoundTrip {
            reused: RefCell::new(sys.initial()),
            sys: &sys,
            checked: RefCell::new(0),
            failures: RefCell::new(Vec::new()),
        };
        bfs(&rt, BfsOptions::new().max_states(cap));
        let failures = rt.failures.into_inner();
        prop_assert!(
            failures.is_empty(),
            "{} {:?}: {} of {} states: {:?}",
            cfg.to_line(),
            mode,
            failures.len(),
            rt.checked.into_inner(),
            &failures[..failures.len().min(3)]
        );
    }
}
