//! Shared vocabulary for sequential-consistency verification.
//!
//! This crate defines the basic objects of Condon & Hu, *Automatable
//! Verification of Sequential Consistency* (SPAA 2001), section 2:
//!
//! * [`ProcId`], [`BlockId`], [`Value`] — the parameters `p`, `b`, `v` of a
//!   protocol, with [`Value::BOTTOM`] playing the role of the initial value
//!   `⊥` of every memory block;
//! * [`Op`] — a `LD(P,B,V)` or `ST(P,B,V)` operation (the action set `A`);
//! * [`Trace`] — a finite sequence of operations (the subsequence of a
//!   protocol run consisting of its LD/ST actions);
//! * [`Reordering`] — a permutation of a trace, together with the two
//!   properties that make it a *serial reordering*: preservation of each
//!   processor's program order, and seriality of the permuted trace.
//!
//! Everything downstream (constraint graphs, descriptors, checkers,
//! observers) is phrased in terms of these types.

pub mod ids;
pub mod op;
pub mod pack;
pub mod perm;
pub mod trace;

pub use ids::{BlockId, Params, ProcId, Value};
pub use op::{Op, OpKind};
pub use pack::Pack;
pub use perm::{factorial, Reordering, ResidualEnum, SortKeyBuf, SymDim, SymDims, SymPerm};
pub use trace::Trace;
