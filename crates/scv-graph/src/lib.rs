//! Constraint graphs for sequential consistency.
//!
//! Implements section 3.1 of Condon & Hu, *Automatable Verification of
//! Sequential Consistency* (SPAA 2001):
//!
//! * [`ConstraintGraph`] — a directed graph over the operations of a trace
//!   whose edges carry [`EdgeSet`] annotations (inheritance, program order,
//!   ST order, forced);
//! * [`axioms`] — the five *edge annotation constraints* of §3.1, checked
//!   globally on a whole graph (the reference implementation that the
//!   finite-state checker of `scv-checker` is differentially tested
//!   against);
//! * [`lemma31`] — both directions of Lemma 3.1: build an (acyclic)
//!   constraint graph from a serial reordering, and extract a serial
//!   reordering from an acyclic constraint graph;
//! * [`baseline`] — the Gibbons–Korach-style whole-trace checker: given a
//!   trace, an inheritance assignment, and per-block store orders, build the
//!   saturated constraint graph and test it for acyclicity (`O(n)` memory,
//!   the baseline the streaming checker is benchmarked against);
//! * [`serial_search`] — a direct decision procedure for "does this trace
//!   have a serial reordering?" by memoized search over interleavings
//!   (exponential in the worst case; used to cross-validate Lemma 3.1 on
//!   small traces);
//! * [`random`] — random workload generation: traces with known serial
//!   reorderings, witnessed inheritance/store-order assignments, and
//!   mutation-based non-SC traces.

pub mod axioms;
pub mod baseline;
pub mod edge;
pub mod explain;
pub mod graph;
pub mod lemma31;
pub mod random;
pub mod serial_search;

pub use axioms::{validate_constraint_graph, AxiomViolation};
pub use baseline::{saturated_graph, BaselineChecker, BaselineVerdict, Witness, WitnessError};
pub use edge::EdgeSet;
pub use explain::{annotated_dot, find_cycle_in};
pub use graph::ConstraintGraph;
pub use lemma31::{graph_from_serial_reordering, serial_reordering_from_graph};
pub use serial_search::has_serial_reordering;
