//! The finite-state cycle checker of Lemma 3.3.
//!
//! The checker maintains an *active graph* over at most `k+1` nodes. Upon
//! reading a node ID (or the second parameter of an `add-ID`) that is the
//! *only* ID of some active node, the node is removed after contracting
//! every pair of edges `(H,I)`, `(I,J)` into `(H,J)` — contraction
//! preserves cycles, which is why a bounded active graph suffices. Upon
//! reading an edge, the checker rejects iff the edge closes a directed
//! cycle in the active graph.

use scv_descriptor::{Descriptor, IdNum, Symbol};
use std::fmt;

/// Maximum supported active-graph size (`k+1 <= 64`), so node sets fit in a
/// machine word.
pub const MAX_IDS: u32 = 64;

/// Rejection reasons of the cycle checker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CycleError {
    /// An edge descriptor closed a directed cycle.
    CycleClosed { position: usize },
    /// An edge descriptor referenced an ID held by no active node.
    DanglingEdge { position: usize },
    /// A symbol used an ID outside `1..=k+1`.
    IdOutOfRange { position: usize },
    /// `k+1` exceeds [`MAX_IDS`].
    TooManyIds,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleError::CycleClosed { position } => {
                write!(f, "edge at symbol {position} closes a directed cycle")
            }
            CycleError::DanglingEdge { position } => {
                write!(f, "edge at symbol {position} references an unassigned ID")
            }
            CycleError::IdOutOfRange { position } => {
                write!(f, "symbol {position} uses an ID outside 1..=k+1")
            }
            CycleError::TooManyIds => write!(f, "k+1 exceeds {MAX_IDS}"),
        }
    }
}

impl std::error::Error for CycleError {}

/// Streaming cycle checker (Lemma 3.3).
///
/// The active graph is stored as one slot per ID-space entry: since every
/// active node holds at least one ID, at most `k+1` nodes are active, and
/// each node is canonically identified with the smallest slot it occupies.
/// Adjacency is kept as per-slot bitmasks, so reachability queries are a
/// handful of word operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleChecker {
    k: u32,
    /// `owner[id-1]` = slot of the node holding `id`, if any.
    owner: Vec<Option<u8>>,
    /// Slot occupancy mask: bit `s` set iff slot `s` hosts an active node.
    live: u64,
    /// `out[s]` = bitmask of slots with an edge from slot `s`.
    out: Vec<u64>,
    /// `inn[s]` = bitmask of slots with an edge to slot `s`.
    inn: Vec<u64>,
    /// Symbols processed (for error positions).
    position: usize,
}

impl CycleChecker {
    /// A checker for *k*-graph descriptors. Requires `k+1 <= 64`.
    pub fn new(k: u32) -> Result<Self, CycleError> {
        if k + 1 > MAX_IDS {
            return Err(CycleError::TooManyIds);
        }
        let n = (k + 1) as usize;
        Ok(CycleChecker {
            k,
            owner: vec![None; n],
            live: 0,
            out: vec![0; n],
            inn: vec![0; n],
            position: 0,
        })
    }

    /// The bandwidth parameter.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of active nodes in the active graph.
    pub fn active_count(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Process one symbol; `Err` means the checker rejects (rejection is
    /// permanent — callers should stop feeding symbols).
    pub fn step(&mut self, sym: &Symbol) -> Result<(), CycleError> {
        let pos = self.position;
        self.position += 1;
        let in_range = |id: IdNum| id >= 1 && id <= self.k + 1;
        if !in_range(sym.min_id()) || !in_range(sym.max_id()) {
            return Err(CycleError::IdOutOfRange { position: pos });
        }
        match *sym {
            Symbol::Node { id, .. } => {
                self.retire_id(id);
                // Fresh node in its own slot (slot = id-1 is now free:
                // retire_id released it or moved the multi-ID node away).
                let slot = self.free_slot(id);
                self.owner[(id - 1) as usize] = Some(slot);
                self.live |= 1 << slot;
            }
            Symbol::AddId { of, add } => {
                if of != add {
                    self.retire_id(add);
                    if let Some(slot) = self.owner[(of - 1) as usize] {
                        self.owner[(add - 1) as usize] = Some(slot);
                    }
                }
            }
            Symbol::Edge { from, to, .. } => {
                let (Some(u), Some(v)) = (
                    self.owner[(from - 1) as usize],
                    self.owner[(to - 1) as usize],
                ) else {
                    return Err(CycleError::DanglingEdge { position: pos });
                };
                if u == v || self.reaches(v, u) {
                    return Err(CycleError::CycleClosed { position: pos });
                }
                self.out[u as usize] |= 1 << v;
                self.inn[v as usize] |= 1 << u;
            }
        }
        Ok(())
    }

    /// End of input. The cycle checker has no end-of-string obligations;
    /// it accepts iff it never rejected.
    pub fn finish(self) -> Result<(), CycleError> {
        Ok(())
    }

    /// Run the checker over a whole descriptor.
    pub fn check(d: &Descriptor) -> Result<(), CycleError> {
        let _t = scv_telemetry::timer(scv_telemetry::Phase::CheckerCycle);
        let mut c = CycleChecker::new(d.k)?;
        for s in &d.symbols {
            c.step(s)?;
        }
        c.finish()
    }

    /// Remove `id` from its owner; if that was the owner's last ID,
    /// contract edges through it and delete it from the active graph.
    fn retire_id(&mut self, id: IdNum) {
        let Some(slot) = self.owner[(id - 1) as usize].take() else {
            return;
        };
        if self.owner.contains(&Some(slot)) {
            return; // node still has other IDs
        }
        // Contract: every (H, slot), (slot, J) pair becomes (H, J).
        let preds = self.inn[slot as usize];
        let succs = self.out[slot as usize];
        let mut ps = preds;
        while ps != 0 {
            let h = ps.trailing_zeros() as usize;
            ps &= ps - 1;
            self.out[h] |= succs;
            self.out[h] &= !(1 << slot);
        }
        let mut ss = succs;
        while ss != 0 {
            let j = ss.trailing_zeros() as usize;
            ss &= ss - 1;
            self.inn[j] |= preds;
            self.inn[j] &= !(1 << slot);
        }
        // Remove remaining references to the slot.
        for m in self.out.iter_mut().chain(self.inn.iter_mut()) {
            *m &= !(1 << slot);
        }
        self.out[slot as usize] = 0;
        self.inn[slot as usize] = 0;
        self.live &= !(1 << slot);
        debug_assert!(
            preds & succs == 0,
            "a node on a cycle would have been rejected at edge time"
        );
    }

    /// Pick a free slot for a node introduced with `id`; prefer `id-1`.
    fn free_slot(&self, id: IdNum) -> u8 {
        let want = (id - 1) as u8;
        if self.live & (1 << want) == 0 {
            return want;
        }
        let n = self.owner.len();
        let valid: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
        let free = !self.live & valid;
        debug_assert!(free != 0, "at most k+1 active nodes for k+1 IDs");
        free.trailing_zeros() as u8
    }

    /// Is `to` reachable from `from` in the active graph?
    fn reaches(&self, from: u8, to: u8) -> bool {
        let mut seen: u64 = 1 << from;
        let mut frontier: u64 = 1 << from;
        let goal: u64 = 1 << to;
        while frontier != 0 {
            let mut next: u64 = 0;
            let mut f = frontier;
            while f != 0 {
                let s = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.out[s];
            }
            if next & goal != 0 {
                return true;
            }
            frontier = next & !seen;
            seen |= next;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_descriptor::{decode, encode, naive_descriptor, ConstraintGraph, EdgeSet};
    use scv_types::{BlockId, Op, ProcId, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }

    fn node(id: IdNum) -> Symbol {
        Symbol::Node { id, label: None }
    }
    fn edge(from: IdNum, to: IdNum) -> Symbol {
        Symbol::Edge {
            from,
            to,
            label: None,
        }
    }

    fn run(k: u32, syms: &[Symbol]) -> Result<(), CycleError> {
        let mut d = Descriptor::new(k);
        d.symbols = syms.to_vec();
        CycleChecker::check(&d)
    }

    #[test]
    fn accepts_simple_dag() {
        assert_eq!(
            run(2, &[node(1), node(2), edge(1, 2), node(3), edge(2, 3)]),
            Ok(())
        );
    }

    #[test]
    fn rejects_two_cycle() {
        assert_eq!(
            run(2, &[node(1), node(2), edge(1, 2), edge(2, 1)]),
            Err(CycleError::CycleClosed { position: 3 })
        );
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            run(1, &[node(1), edge(1, 1)]),
            Err(CycleError::CycleClosed { position: 1 })
        );
    }

    #[test]
    fn contraction_preserves_cycles() {
        // 1 -> 2 -> (recycled to 3) ... -> back to 1: build a cycle that
        // passes through a node whose ID is recycled before the closing
        // edge arrives.
        // Nodes: A(id1), B(id2), edge A->B; C(id2) recycles B's ID after
        // edge B->? ... concretely: A->B, B->C, then recycle B's ID, then
        // C->A must be rejected because A->B->C persists as A->C.
        let syms = [
            node(1),    // A
            node(2),    // B
            edge(1, 2), // A -> B
            node(3),    // C
            edge(2, 3), // B -> C
            node(2),    // D takes B's ID; B contracts away (A->C kept)
            edge(3, 1), // C -> A: closes A->C->A
        ];
        assert_eq!(run(2, &syms), Err(CycleError::CycleClosed { position: 6 }));
    }

    #[test]
    fn contraction_does_not_invent_cycles() {
        let syms = [
            node(1),
            node(2),
            edge(1, 2),
            node(3),
            edge(2, 3),
            node(2),    // contract middle node
            edge(1, 2), // A -> D: fine
        ];
        assert_eq!(run(2, &syms), Ok(()));
    }

    #[test]
    fn multi_id_nodes_merge_edges() {
        // Node A holds IDs {1,2}; edges through either ID hit the same
        // node, so (3->1) + (2->3) is a cycle.
        let syms = [
            node(1),
            Symbol::AddId { of: 1, add: 2 },
            node(3),
            edge(3, 1),
            edge(2, 3),
        ];
        assert_eq!(run(2, &syms), Err(CycleError::CycleClosed { position: 4 }));
    }

    #[test]
    fn losing_one_of_many_ids_keeps_node() {
        // A holds {1,2}; reusing ID 1 keeps A alive under ID 2.
        let syms = [
            node(1),
            Symbol::AddId { of: 1, add: 2 },
            node(1), // B; A keeps ID 2
            edge(2, 1),
            edge(1, 2), // closes B -> A -> B
        ];
        assert_eq!(run(1, &syms), Err(CycleError::CycleClosed { position: 4 }));
    }

    #[test]
    fn dangling_edge_rejected() {
        assert_eq!(
            run(2, &[node(1), edge(1, 2)]),
            Err(CycleError::DanglingEdge { position: 1 })
        );
    }

    #[test]
    fn id_out_of_range_rejected() {
        assert_eq!(
            run(1, &[node(3)]),
            Err(CycleError::IdOutOfRange { position: 0 })
        );
    }

    #[test]
    fn agrees_with_whole_graph_decode_on_encoded_dags() {
        // Random-ish DAG family: layered graphs encoded at minimal k.
        for seed in 0..20u64 {
            let mut g = ConstraintGraph::new();
            let n = 30 + (seed as usize % 17);
            for i in 0..n {
                g.add_node(st(1 + (i % 3) as u8, 1 + (i % 2) as u8, 1));
            }
            // Edges forward with stride patterns (always acyclic).
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for i in 0..n {
                for _ in 0..2 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let span = 1 + (x >> 33) as usize % 7;
                    if i + span < n {
                        g.add_edge(i, i + span, EdgeSet::PO);
                    }
                }
            }
            let k = g.bandwidth() as u32;
            let d = encode(&g, k).unwrap();
            let (dg, _) = decode(&d).unwrap();
            assert!(dg.is_acyclic());
            assert_eq!(CycleChecker::check(&d), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_whole_graph_decode_on_cyclic_graphs() {
        // Take a chain and add one back edge; the naive descriptor (no
        // recycling) must be rejected exactly when decode finds the cycle.
        let mut g = ConstraintGraph::new();
        for i in 0..10 {
            g.add_node(st(1, 1, 1 + (i % 2) as u8));
        }
        for i in 0..9 {
            g.add_edge(i, i + 1, EdgeSet::PO);
        }
        g.add_edge(7, 3, EdgeSet::FORCED); // cycle 3..7
        let d = naive_descriptor(&g);
        let (dg, _) = decode(&d).unwrap();
        assert!(!dg.is_acyclic());
        assert!(matches!(
            CycleChecker::check(&d),
            Err(CycleError::CycleClosed { .. })
        ));
    }

    #[test]
    fn active_count_stays_within_k_plus_one() {
        let mut g = ConstraintGraph::new();
        for i in 0..50 {
            g.add_node(st(1, 1, 1 + (i % 2) as u8));
        }
        for i in 0..49 {
            g.add_edge(i, i + 1, EdgeSet::PO);
        }
        let d = encode(&g, 1).unwrap();
        let mut c = CycleChecker::new(1).unwrap();
        for s in &d.symbols {
            c.step(s).unwrap();
            assert!(c.active_count() <= 2);
        }
    }

    #[test]
    fn k_too_large_rejected() {
        assert_eq!(CycleChecker::new(64), Err(CycleError::TooManyIds));
        assert!(CycleChecker::new(63).is_ok());
    }
}
