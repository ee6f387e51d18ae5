//! The prefix ID-set semantics of §3.2.
//!
//! [`IdTable`] maintains, for the prefix of a descriptor read so far, the
//! mapping from IDs to node numbers — equivalently, the ID-set of every
//! *active* node. It implements exactly the four inductive rules of the
//! paper's `ID-set(i, s')` definition:
//!
//! 1. a node descriptor with ID `I` removes `I` from its previous owner and
//!    assigns it to the new node;
//! 2. `add-ID(I, I')` adds `I'` to the owner of `I` (if any);
//! 3. `add-ID(I', I)` (i.e. the *second* parameter) removes `I` from its
//!    previous owner;
//! 4. all other IDs are unchanged.
//!
//! Both the decoder and the finite-state checkers are built on this table.

use crate::symbol::IdNum;

/// Mapping from IDs in `1..=k+1` to node numbers, with reverse ID-sets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdTable {
    /// `owner[id-1]` = node currently holding `id`, if any.
    owner: Vec<Option<usize>>,
    /// Number of node descriptors seen (the next node number).
    nodes_seen: usize,
}

impl IdTable {
    /// A table over the ID space `1..=k+1`.
    pub fn new(k: u32) -> Self {
        IdTable {
            owner: vec![None; (k + 1) as usize],
            nodes_seen: 0,
        }
    }

    /// Number of node descriptors processed so far.
    pub fn nodes_seen(&self) -> usize {
        self.nodes_seen
    }

    /// The node currently holding `id`, if any.
    pub fn lookup(&self, id: IdNum) -> Option<usize> {
        self.check(id);
        self.owner[(id - 1) as usize]
    }

    /// The ID-set of node `i` with respect to the prefix read so far.
    pub fn id_set(&self, i: usize) -> Vec<IdNum> {
        (1..=self.owner.len() as IdNum)
            .filter(|&id| self.owner[(id - 1) as usize] == Some(i))
            .collect()
    }

    /// The set of active nodes (nodes with a non-empty ID-set).
    pub fn active_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.owner.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active_nodes().len()
    }

    /// Process a node descriptor with ID `id`; returns the (0-based) number
    /// of the new node and the node that lost `id`, if any.
    pub fn define_node(&mut self, id: IdNum) -> (usize, Option<usize>) {
        self.check(id);
        let node = self.nodes_seen;
        self.nodes_seen += 1;
        let evicted = self.owner[(id - 1) as usize].replace(node);
        // `replace` stored the new owner and returned the old one — but the
        // old owner may still be active under other IDs; the caller decides
        // whether it was fully evicted.
        let evicted = evicted.filter(|&e| !self.holds_any(e));
        (node, evicted)
    }

    /// Process `add-ID(of, add)`: returns `(gainer, fully_evicted)` where
    /// `gainer` is the node that gained `add` (if any node holds `of`), and
    /// `fully_evicted` is the previous owner of `add` if it now has an
    /// empty ID-set.
    pub fn add_id(&mut self, of: IdNum, add: IdNum) -> (Option<usize>, Option<usize>) {
        self.check(of);
        self.check(add);
        let gainer = self.owner[(of - 1) as usize];
        let prev = std::mem::replace(&mut self.owner[(add - 1) as usize], gainer);
        let fully_evicted = prev
            .filter(|&e| Some(e) != gainer)
            .filter(|&e| !self.holds_any(e));
        (gainer, fully_evicted)
    }

    /// Does node `i` hold any ID?
    pub fn holds_any(&self, i: usize) -> bool {
        self.owner.contains(&Some(i))
    }

    #[inline]
    fn check(&self, id: IdNum) {
        assert!(
            id >= 1 && (id as usize) <= self.owner.len(),
            "ID {id} out of range 1..={}",
            self.owner.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_descriptor_recycles_id() {
        let mut t = IdTable::new(1); // IDs 1..=2
        let (n0, ev) = t.define_node(1);
        assert_eq!((n0, ev), (0, None));
        let (n1, ev) = t.define_node(2);
        assert_eq!((n1, ev), (1, None));
        // Reusing ID 1 evicts node 0.
        let (n2, ev) = t.define_node(1);
        assert_eq!((n2, ev), (2, Some(0)));
        assert_eq!(t.lookup(1), Some(2));
        assert_eq!(t.lookup(2), Some(1));
        assert_eq!(t.active_nodes(), vec![1, 2]);
    }

    #[test]
    fn add_id_aliases_and_moves() {
        let mut t = IdTable::new(2); // IDs 1..=3
        t.define_node(1); // node 0
        t.define_node(2); // node 1
                          // Node 0 gains ID 3.
        let (gainer, ev) = t.add_id(1, 3);
        assert_eq!((gainer, ev), (Some(0), None));
        assert_eq!(t.id_set(0), vec![1, 3]);
        // Node 1 takes ID 3 away from node 0 (node 0 still holds ID 1).
        let (gainer, ev) = t.add_id(2, 3);
        assert_eq!((gainer, ev), (Some(1), None));
        assert_eq!(t.id_set(0), vec![1]);
        assert_eq!(t.id_set(1), vec![2, 3]);
        // Moving node 1's last ID fully evicts it... first drop ID 2.
        let (_, ev) = t.add_id(1, 2);
        assert_eq!(ev, None); // node 1 still holds 3
        let (_, ev) = t.add_id(1, 3);
        assert_eq!(ev, Some(1)); // node 1 now has an empty ID-set
        assert_eq!(t.id_set(0), vec![1, 2, 3]);
    }

    #[test]
    fn add_id_with_unknown_source_still_removes_target() {
        // Per the paper: add-ID(I, I') adds I' to the node with ID I "if
        // any", and I' is no longer associated with any other node.
        let mut t = IdTable::new(2);
        t.define_node(2); // node 0 holds ID 2
        let (gainer, ev) = t.add_id(1, 2); // no node holds ID 1
        assert_eq!(gainer, None);
        assert_eq!(ev, Some(0));
        assert_eq!(t.lookup(2), None);
        assert_eq!(t.active_count(), 0);
    }

    #[test]
    fn add_id_self_is_noop() {
        let mut t = IdTable::new(1);
        t.define_node(1);
        let (gainer, ev) = t.add_id(1, 1);
        assert_eq!((gainer, ev), (Some(0), None));
        assert_eq!(t.id_set(0), vec![1]);
    }

    #[test]
    fn eviction_only_when_last_id_lost() {
        let mut t = IdTable::new(2);
        t.define_node(1); // node 0
        t.add_id(1, 2); // node 0 holds {1,2}
        let (_, ev) = t.define_node(1); // node 1 takes ID 1
        assert_eq!(ev, None, "node 0 still holds ID 2");
        let (_, ev) = t.define_node(2); // node 2 takes ID 2
        assert_eq!(ev, Some(0), "node 0 fully evicted now");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_zero_rejected() {
        let mut t = IdTable::new(1);
        t.define_node(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_above_k_plus_one_rejected() {
        let mut t = IdTable::new(1);
        t.define_node(3);
    }
}
