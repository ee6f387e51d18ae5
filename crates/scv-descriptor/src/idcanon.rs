//! Canonical renaming of auxiliary descriptor IDs.
//!
//! An observer's IDs split into two classes: location IDs `1..=L`, whose
//! identities are meaningful (they *are* the protocol's storage
//! locations), and auxiliary IDs above `L`, whose identities are
//! arbitrary pool choices. Two (observer, checker) pairs that differ only
//! by a permutation of the auxiliary IDs are bisimilar: every component of
//! the pipeline treats IDs as opaque table indices, so renaming them
//! consistently on both sides changes nothing observable.
//!
//! [`IdCanon`] assigns auxiliary IDs dense canonical numbers in first-use
//! order during a deterministic encoding traversal; the model checker
//! hashes product states through it, collapsing the aux-permutation orbit
//! to a single state (without it, state counts blow up by factors up to
//! `A!`).

use crate::symbol::IdNum;
use scv_types::SymPerm;

/// A symmetry view threaded through a canonical-encoding traversal.
///
/// Encoding a structure under a view produces exactly the byte sequence
/// that encoding the *renamed* structure would produce, without
/// materialising the rename: processor/block/value identities go through
/// `perm`, and location IDs go through the protocol-derived location maps.
/// `loc[old]` is the renamed location of `old` (1-based, index 0 unused);
/// `loc_inv` is its inverse, for traversals that iterate storage in
/// renamed-location order.
#[derive(Clone, Copy, Debug)]
pub struct SymView<'a> {
    /// The identity renaming over processors, blocks, and values.
    pub perm: &'a SymPerm,
    /// Forward location map: `loc[old_id] = new_id` for `1..=L`.
    pub loc: &'a [u32],
    /// Inverse location map: `loc_inv[new_id] = old_id` for `1..=L`.
    pub loc_inv: &'a [u32],
}

/// First-use canonical renaming for IDs above a fixed base, optionally
/// composed with a location permutation on the fixed IDs.
///
/// Auxiliary IDs are small bounded integers (an observer's ID space is
/// `1..=k`), so the renaming is a dense table indexed by `id - base - 1`
/// rather than a hash map, and a list of the IDs renamed since the last
/// reset makes [`IdCanon::reset`] cost O(renamed) instead of O(table).
///
/// The location map is *borrowed*: one canonicalization per group element
/// per sealed state runs on the model checker's hot path, and the maps are
/// precomputed once per group element — cloning a `Vec<u32>` into every
/// `IdCanon` was pure allocator traffic.
#[derive(Debug)]
pub struct IdCanon<'a> {
    base: IdNum,
    /// `slot[id - base - 1]` is 1 + the first-use index of auxiliary `id`,
    /// or 0 while `id` is not renamed. Grows on demand, never shrinks.
    slot: Vec<u32>,
    /// Auxiliary IDs renamed since the last reset, in first-use order.
    touched: Vec<IdNum>,
    locs: Option<&'a [u32]>,
}

// Manual `Clone` so `clone_from` reuses the target's tables.
impl Clone for IdCanon<'_> {
    fn clone(&self) -> Self {
        IdCanon {
            base: self.base,
            slot: self.slot.clone(),
            touched: self.touched.clone(),
            locs: self.locs,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.base = source.base;
        self.slot.clone_from(&source.slot);
        self.touched.clone_from(&source.touched);
        self.locs = source.locs;
    }
}

impl<'a> IdCanon<'a> {
    /// IDs `1..=base` are fixed (returned as-is); higher IDs are renamed.
    pub fn new(base: IdNum) -> Self {
        IdCanon {
            base,
            slot: Vec::new(),
            touched: Vec::new(),
            locs: None,
        }
    }

    /// Like [`IdCanon::new`], but IDs `1..=base` map through `locs`
    /// (`locs[id]` for `id <= base`) instead of staying fixed — used when
    /// encoding a structure under a block/processor symmetry view whose
    /// location IDs are renamed by the protocol's location permutation.
    pub fn with_locs(base: IdNum, locs: &'a [u32]) -> Self {
        debug_assert!(locs.len() > base as usize, "locs must cover 1..=base");
        IdCanon {
            locs: Some(locs),
            ..IdCanon::new(base)
        }
    }

    /// Canonical number for `id`: itself (or its location-map image) if
    /// `id <= base`, otherwise `base + 1 + k` where `k` is the 0-based
    /// first-use index.
    #[inline]
    pub fn canon(&mut self, id: IdNum) -> u64 {
        if id <= self.base {
            return match self.locs {
                Some(locs) => locs[id as usize] as u64,
                None => id as u64,
            };
        }
        let i = (id - self.base - 1) as usize;
        if i >= self.slot.len() {
            self.slot.resize(i + 1, 0);
        }
        if self.slot[i] == 0 {
            self.touched.push(id);
            self.slot[i] = self.touched.len() as u32;
        }
        self.base as u64 + self.slot[i] as u64
    }

    /// Reset to a fresh renaming (same base, same borrowed location map),
    /// keeping the tables' allocations — scratch reuse for callers that
    /// seal many states in a row. Costs O(renamed).
    pub fn reset(&mut self) {
        for id in self.touched.drain(..) {
            self.slot[(id - self.base - 1) as usize] = 0;
        }
    }

    /// Reset to a fresh renaming over plain (identity) locations with a
    /// possibly different base, keeping the tables' allocations. Lets one
    /// `IdCanon` stored in long-lived scratch serve every candidate of an
    /// expansion without a per-candidate allocation.
    pub fn reset_with(&mut self, base: IdNum) {
        self.reset();
        self.base = base;
        self.locs = None;
    }

    /// Swap in a different borrowed location map (the renaming is *not*
    /// cleared — pair with [`IdCanon::reset`]). Used by the orbit
    /// enumeration to reuse one renaming across group elements.
    pub fn set_locs(&mut self, locs: &'a [u32]) {
        debug_assert!(locs.len() > self.base as usize, "locs must cover 1..=base");
        self.locs = Some(locs);
    }

    /// Number of auxiliary IDs renamed so far.
    pub fn renamed(&self) -> usize {
        self.touched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locations_are_fixed_points() {
        let mut c = IdCanon::new(4);
        for id in 1..=4 {
            assert_eq!(c.canon(id), id as u64);
        }
        assert_eq!(c.renamed(), 0);
    }

    #[test]
    fn aux_ids_renamed_in_first_use_order() {
        let mut c = IdCanon::new(2);
        assert_eq!(c.canon(9), 3);
        assert_eq!(c.canon(5), 4);
        assert_eq!(c.canon(9), 3, "stable on reuse");
        assert_eq!(c.canon(7), 5);
        assert_eq!(c.renamed(), 3);
    }

    #[test]
    fn location_map_renames_fixed_ids() {
        // Swap locations 1 and 2; location 3 stays. Aux IDs still rename
        // first-use.
        let mut c = IdCanon::with_locs(3, &[0, 2, 1, 3]);
        assert_eq!(c.canon(1), 2);
        assert_eq!(c.canon(2), 1);
        assert_eq!(c.canon(3), 3);
        assert_eq!(c.canon(9), 4);
        assert_eq!(c.canon(9), 4);
        assert_eq!(c.renamed(), 1);
    }

    #[test]
    fn permuted_aux_ids_encode_identically() {
        // The whole point: two traversals that use different concrete aux
        // IDs in the same order produce the same canonical sequence.
        let mut a = IdCanon::new(1);
        let mut b = IdCanon::new(1);
        let seq_a: Vec<u64> = [4, 9, 4, 1, 9].iter().map(|&i| a.canon(i)).collect();
        let seq_b: Vec<u64> = [7, 3, 7, 1, 3].iter().map(|&i| b.canon(i)).collect();
        assert_eq!(seq_a, seq_b);
    }
}
