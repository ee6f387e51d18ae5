//! Explicit-state model checking of the protocol ⊗ observer ⊗ checker
//! product (§3.4 of Condon & Hu, SPAA 2001).
//!
//! The paper's verification method is: generate the observer from the
//! protocol (non-interferingly), then use a model checker to prove that
//! *every* run of the observer describes an acyclic constraint graph. This
//! crate supplies the model checker:
//!
//! * [`TransitionSystem`] — a generic labeled transition system with a
//!   safety predicate;
//! * [`bfs`] — sequential breadth-first reachability with counterexample
//!   extraction (paths are depth-minimal);
//! * [`ws_search`] — the parallel engine, used whenever `threads > 1`:
//!   asynchronous work-stealing search over chunked per-worker deques
//!   with a striped, batch-claimed seen-set ([`StripedSeen`]) and
//!   per-worker successor arenas; see the [`ws`] module docs for the
//!   architecture and its termination/counterexample arguments;
//! * [`VerifySystem`] — the product system whose states pair a protocol
//!   state with the observer and checker states (hashed through their
//!   canonical encodings, which keeps the product finite);
//! * [`verify_protocol`] — the end-to-end §3.4 method: returns
//!   [`Outcome::Verified`] (the protocol has a witness observer, hence is
//!   sequentially consistent), or [`Outcome::Violation`] with the
//!   offending run, or [`Outcome::Bounded`] if a limit was hit first, or
//!   [`Outcome::Inconclusive`] when a [`Budget`] tripped or the
//!   [`CancelToken`] fired;
//! * run control & checkpointing — [`Budget`], [`CancelToken`], and the
//!   `*_controlled` engine variants interrupt a search at a consistent
//!   point; [`checkpoint::CheckpointFile`] serializes it, and
//!   [`VerifyOptions::resume_from`] continues it exactly.

mod canon;
pub mod checkpoint;
pub mod control;
pub mod mc;
pub mod seen;
pub mod sip;
pub mod verify;
pub mod ws;

pub use checkpoint::{CheckpointError, CheckpointFile};
pub use control::{Budget, CancelToken, Coverage, InterruptReason, RunControl};
pub use mc::{
    bfs, bfs_controlled, fp_collision_bound, BfsOptions, ControlledSearch, Counterexample,
    ExpandScratch, Fingerprinter, McStats, SearchCheckpoint, SearchResult, TransitionSystem,
};
pub use seen::StripedSeen;
pub use sip::{FpBuild, Sip, SipHasher13};
pub use verify::{
    verify_protocol, EncRef, Outcome, RejectReason, SymmetryMode, VerifyOptions, VerifyState,
    VerifySystem,
};
pub use ws::{ws_search, ws_search_controlled, ws_search_detailed, WorkerStats};
