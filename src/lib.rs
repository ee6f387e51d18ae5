//! # sc-verify — Automatable Verification of Sequential Consistency
//!
//! A from-scratch Rust reproduction of Condon & Hu, *Automatable
//! Verification of Sequential Consistency* (SPAA 2001): a decidable,
//! fully automatic method for verifying that finite-state memory-system
//! protocols implement Lamport's sequential consistency.
//!
//! ## The method in one paragraph
//!
//! A trace is sequentially consistent iff some **constraint graph** over
//! its operations (program-order, store-order, inheritance, and forced
//! edges — Gibbons & Korach) is acyclic. For realistic protocols those
//! graphs are *node-bandwidth-bounded*, so they can be streamed as
//! **k-graph descriptors** and checked by a **finite-state checker**. An
//! **observer** emitting the descriptor is generated *automatically* from
//! the protocol's storage locations and tracking labels, plus a ST-order
//! generator (trivially real-time for bus/directory protocols; the
//! memory-write order for Lazy Caching). Model checking the protocol ⊗
//! observer ⊗ checker product then decides sequential consistency.
//!
//! ## Quickstart
//!
//! ```
//! use sc_verify::prelude::*;
//!
//! // A 2-processor, 1-block, 2-value MSI snooping protocol: model-check
//! // the protocol (x) observer (x) checker product. Product spaces run to
//! // millions of states even at tiny parameters (see DESIGN.md), so this
//! // doc example caps the search — a correct protocol never produces a
//! // Violation, bounded or not. `symmetry(SymmetryMode::Full)` quotients
//! // the space by the protocol's processor/block/value symmetry group.
//! let outcome = Verifier::new(MsiProtocol::new(Params::new(2, 1, 2)))
//!     .max_states(3_000)
//!     .symmetry(SymmetryMode::Full)
//!     .run();
//! assert!(!matches!(outcome, Outcome::Violation { .. }));
//!
//! // The fault-injected variant loses an invalidation and is caught with
//! // a shortest violating run whose trace genuinely has no serial
//! // reordering:
//! let opts = VerifyOptions::new().max_states(2_000_000);
//! match verify_protocol(MsiProtocol::buggy(Params::new(2, 2, 1)), opts) {
//!     Outcome::Violation { trace, .. } => assert!(!has_serial_reordering(&trace)),
//!     o => panic!("expected a violation, got {:?}", o.stats()),
//! }
//! ```
//!
//! ## Crate map
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`types`] | §2 | operations, traces, serial reorderings |
//! | [`graph`] | §3.1 | constraint graphs, axioms, Lemma 3.1, baselines |
//! | [`descriptor`] | §3.2 | k-graph descriptors, encoder (Lemma 3.2), decoder |
//! | [`checker`] | §3.3–3.4 | streaming cycle checker, full SC checker |
//! | [`protocol`] | §2.1, §4.1 | protocol framework + MSI / directory / lazy caching / TSO / Get-Shared |
//! | [`observer`] | §4 | automatic witness observers, §4.4 size bounds |
//! | [`automata`] | Thm 3.1 | NFA/DFA, language inclusion |
//! | [`mc`] | §3.4 | sequential + parallel explicit-state model checking |
//! | [`fuzz`] | — | randomized-protocol differential fuzzing of the whole pipeline |

pub mod explain;
pub mod testing;
pub mod verifier;

pub use scv_automata as automata;
pub use scv_checker as checker;
pub use scv_descriptor as descriptor;
pub use scv_fuzz as fuzz;
pub use scv_graph as graph;
pub use scv_mc as mc;
pub use scv_observer as observer;
pub use scv_protocol as protocol;
pub use scv_telemetry as telemetry;
pub use scv_types as types;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::explain::{explain_descriptor, explain_violation, ExplainError, Explanation};
    pub use crate::verifier::{collision_bound_note, symmetry_note, verdict_str, Verifier};
    pub use scv_checker::{CycleChecker, ScChecker};
    pub use scv_descriptor::{decode, encode, naive_descriptor, Descriptor, Symbol};
    pub use scv_fuzz::{run_fuzz, FuzzOptions, FuzzReport, GenConfig, GenProtocol, Mutation};
    pub use scv_graph::{
        has_serial_reordering, validate_constraint_graph, ConstraintGraph, EdgeSet,
    };
    pub use scv_mc::{
        verify_protocol, BfsOptions, Budget, CancelToken, Coverage, InterruptReason, McStats,
        Outcome, RejectReason, SymmetryMode, VerifyOptions, VerifySystem,
    };
    pub use scv_observer::{observer_size_bound, Observer, ObserverConfig};
    pub use scv_protocol::{
        Action, DirectoryProtocol, Fig4Protocol, LazyCaching, MesiProtocol, MsiProtocol, Protocol,
        Run, Runner, SerialMemory, StoreBufferTso, Symmetry,
    };
    pub use scv_types::{BlockId, Op, Params, ProcId, Reordering, SymDims, SymPerm, Trace, Value};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_pipeline() {
        // Observe a tiny serial-memory run and check it end to end.
        let p = SerialMemory::new(Params::new(1, 1, 1));
        let mut runner = Runner::new(p);
        let t = runner
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Mem(op) if op.is_store()))
            .unwrap();
        runner.take(t);
        let run = runner.into_run();
        let proto = SerialMemory::new(Params::new(1, 1, 1));
        let d = Observer::observe_run(&proto, &run);
        assert_eq!(ScChecker::check(&d), Ok(()));
    }
}
