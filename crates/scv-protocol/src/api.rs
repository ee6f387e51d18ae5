//! The protocol abstraction: finite-state machines with storage locations
//! and tracking labels.

use scv_types::{BlockId, Op, Pack, Params};
use std::fmt;
use std::hash::Hash;

/// A storage-location identifier, `1..=L` (0 is never a location).
pub type LocId = u32;

/// A protocol action: a memory operation (trace alphabet `A`) or an
/// internal action (`A'`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// A `LD` or `ST` operation.
    Mem(Op),
    /// An internal protocol action, named for diagnostics, with an opaque
    /// payload distinguishing simultaneous variants.
    Internal(&'static str, u32),
}

impl Action {
    /// The memory operation, if this is a `LD`/`ST` action.
    pub fn op(&self) -> Option<Op> {
        match self {
            Action::Mem(op) => Some(*op),
            Action::Internal(..) => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Mem(op) => write!(f, "{op}"),
            Action::Internal(name, payload) => write!(f, "{name}({payload})"),
        }
    }
}

/// Source of a copy into a location.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CopySrc {
    /// Copied from another location (the paper's `c_l(t) = l'`).
    Loc(LocId),
    /// Reset to the predefined invalid/initial value (the paper's
    /// "predefined value indicating an invalid value").
    Invalid,
}

/// Tracking labels attached to a transition (§4.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Tracking {
    /// For `LD`/`ST` transitions: the location read or written (the
    /// tracking function `f`). Must be `Some` iff the action is `Mem`.
    pub loc: Option<LocId>,
    /// For internal transitions: the locations whose contents changed,
    /// as `(destination, source)` pairs applied **in order** (so a
    /// writeback followed by a fill within one transition behaves like two
    /// consecutive transitions). Locations not listed are unchanged
    /// (`c_l(t) = l`).
    pub copies: Vec<(LocId, CopySrc)>,
}

impl Tracking {
    /// Tracking for a `LD`/`ST` transition touching location `l`.
    pub fn mem(l: LocId) -> Self {
        Tracking {
            loc: Some(l),
            copies: Vec::new(),
        }
    }

    /// Tracking for an internal transition with the given ordered copies.
    pub fn copies(copies: Vec<(LocId, CopySrc)>) -> Self {
        Tracking { loc: None, copies }
    }

    /// Tracking for an internal transition that moves no data.
    pub fn none() -> Self {
        Tracking::default()
    }
}

/// One enabled transition out of a state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transition<S> {
    /// The action taken.
    pub action: Action,
    /// The successor state.
    pub next: S,
    /// The tracking labels of this transition.
    pub tracking: Tracking,
}

/// How the serial order of STs to each block relates to the protocol's
/// behaviour — the protocol-provided hint from which the observer builds
/// its ST order generator (§4.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StOrderPolicy {
    /// Real-time ST reordering (§4.2): for every block, trace order of STs
    /// *is* the serial order. True of every protocol implemented in a real
    /// machine, per the paper.
    RealTime,
    /// The serial order of STs to block `B` is the order in which their
    /// values are copied into `B`'s *serialization location* (e.g. the
    /// memory word in Lazy Caching, where the `memory-write` order — not
    /// the real-time ST order — serializes stores).
    Serialization {
        /// `locs[b.idx()]` = serialization location of block `b`.
        locs: Vec<LocId>,
    },
}

impl StOrderPolicy {
    /// The serialization location for `block`, if the policy has one.
    pub fn serialization_loc(&self, block: BlockId) -> Option<LocId> {
        match self {
            StOrderPolicy::RealTime => None,
            StOrderPolicy::Serialization { locs } => locs.get(block.idx()).copied(),
        }
    }
}

/// A finite-state memory-system protocol with storage locations and
/// tracking labels (§2.1 + §4.1).
pub trait Protocol {
    /// The protocol state type (finite; hashable for model checking;
    /// packed into one byte record while it waits in a search frontier).
    type State: Clone + Eq + Hash + fmt::Debug + Pack;

    /// A short human-readable name.
    fn name(&self) -> &'static str;

    /// The size parameters `(p, b, v)`.
    fn params(&self) -> Params;

    /// The number of storage locations `L`.
    fn locations(&self) -> u32;

    /// The initial state (all locations hold `⊥`).
    fn initial(&self) -> Self::State;

    /// All transitions enabled in `state`.
    fn transitions(&self, state: &Self::State) -> Vec<Transition<Self::State>>;

    /// All transitions enabled in `state`, appended to `out`.
    ///
    /// The model checker's admission-gated expansion calls this with a
    /// per-worker scratch buffer, so enumeration costs no allocation on
    /// the hot path. Protocols enumerate by pushing anyway, so the zoo
    /// overrides this natively and derives [`Protocol::transitions`]
    /// from it; the default delegates the other way for foreign impls.
    fn transitions_into(&self, state: &Self::State, out: &mut Vec<Transition<Self::State>>) {
        out.extend(self.transitions(state));
    }

    /// The ST order policy for the observer's ST order generator.
    fn st_order_policy(&self) -> StOrderPolicy {
        StOrderPolicy::RealTime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_types::{ProcId, Value};

    #[test]
    fn action_display_and_op() {
        let op = Op::store(ProcId(1), BlockId(2), Value(3));
        assert_eq!(Action::Mem(op).to_string(), "ST(P1,B2,3)");
        assert_eq!(Action::Mem(op).op(), Some(op));
        let a = Action::Internal("BusRd", 7);
        assert_eq!(a.to_string(), "BusRd(7)");
        assert_eq!(a.op(), None);
    }

    #[test]
    fn tracking_constructors() {
        assert_eq!(Tracking::mem(3).loc, Some(3));
        assert!(Tracking::mem(3).copies.is_empty());
        let t = Tracking::copies(vec![(1, CopySrc::Loc(2)), (3, CopySrc::Invalid)]);
        assert_eq!(t.loc, None);
        assert_eq!(t.copies.len(), 2);
        assert_eq!(Tracking::none(), Tracking::default());
    }

    #[test]
    fn st_order_policy_lookup() {
        let p = StOrderPolicy::RealTime;
        assert_eq!(p.serialization_loc(BlockId(1)), None);
        let p = StOrderPolicy::Serialization { locs: vec![10, 11] };
        assert_eq!(p.serialization_loc(BlockId(1)), Some(10));
        assert_eq!(p.serialization_loc(BlockId(2)), Some(11));
        assert_eq!(p.serialization_loc(BlockId(3)), None);
    }
}
