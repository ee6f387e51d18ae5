//! Sort-based symmetry canonicalization — the fast path behind
//! [`crate::SymmetryMode::Proc`] and [`crate::SymmetryMode::Full`].
//!
//! The reference canonicalizer (`VerifySystem::orbit_min`, kept selectable
//! as [`crate::SymmetryMode::FullEnum`]) walks the *entire* capped group:
//! `|G| - 1` renamed encodings per sealed state, each a full
//! observer/checker traversal. This module computes the **same
//! lexicographic minimum** — bit-for-bit, so fingerprints, state counts,
//! and checkpoints are interchangeable across the two paths — in three
//! accelerated phases:
//!
//! 1. **Sort-based refinement.** One symmetric dimension (the *inner*
//!    dimension, chosen as the sortable one with the largest factorial)
//!    acts positionally on a prefix of the protocol encoding
//!    ([`Symmetry::sort_keys`]). Stably sorting its elements by their
//!    composite key words yields the lexicographically minimal arrangement
//!    of that prefix in `O(n·lg n)` — when the keys are all distinct this
//!    *is* the unique argmin, and the whole inner factorial collapses to
//!    one candidate.
//! 2. **Residual-subgroup enumeration.** Tied key runs leave a residual
//!    subgroup `∏ len(run)!` that the prefix cannot discriminate; only
//!    those arrangements (times the enumerated *outer* perms over the
//!    remaining dimensions) are completed to full candidates. Tied
//!    elements are usually interchangeable outright: a few check walks
//!    split each run into classes whose transpositions are automorphisms
//!    of the state, and only distinct orders of class labels are walked,
//!    each tie counting for all `∏ |class|!` arrangements it stands for.
//! 3. **Incremental word-by-word comparison.** Each completed candidate
//!    streams its encoding through a [`CmpSink`] against the incumbent
//!    minimum and aborts at the first losing word — most candidates die
//!    within a handful of words instead of paying a full encoding walk.
//!    The covered prefix itself is skipped outright
//!    ([`CmpSink::skip_equal`]) once it is known to tie the incumbent's.
//!
//! Refinement reads protocol keys only: the observer and checker sections
//! are compared word by word, never sorted on.
//!
//! Every candidate is a member of the materialized capped group, located
//! by its factorial-number-system rank, so the precomputed location maps
//! (and their long-lived borrows inside the aux-ID renamer) are reused —
//! the steady-state loop allocates nothing.

use crate::verify::PermEntry;
use scv_checker::ScChecker;
use scv_descriptor::{CmpOutcome, CmpSink, EncSink, IdCanon, SymView};
use scv_observer::Observer;
use scv_protocol::Symmetry;
use scv_types::{factorial, ResidualEnum, SortKeyBuf, SymDim, SymDims};

/// Lexicographic rank of a forward permutation map among all permutations
/// of its length — the factorial-number-system index matching the order
/// `SymPerm::group` enumerates each dimension in.
fn lex_rank(fwd: &[u8]) -> usize {
    let n = fwd.len();
    let mut rank = 0usize;
    for i in 0..n {
        let smaller_later = fwd[i + 1..].iter().filter(|&&x| x < fwd[i]).count();
        rank = rank * (n - i) + smaller_later;
    }
    rank
}

/// The static shape of the fast path for one `VerifySystem`: which
/// dimension is resolved by sorting, and where each outer coset leader
/// (inner part = identity) sits in the materialized group list.
pub(crate) struct FastPlan {
    /// The dimension resolved by sort-based refinement.
    pub(crate) inner: SymDim,
    /// Index stride of the inner dimension's rank in the group list
    /// (`SymPerm::group` enumerates procs ⋉ blocks ⋉ values, values
    /// innermost).
    pub(crate) inner_stride: usize,
    /// Group-list index of every outer element's coset leader, ascending
    /// (so `[0]` is the identity).
    pub(crate) outer_base: Vec<usize>,
}

impl FastPlan {
    /// Build the plan for a capped dimension set whose materialized group
    /// has `group_len` elements, or `None` when no enabled dimension is
    /// sortable (the caller then falls back to full enumeration).
    pub(crate) fn build<P: Symmetry>(
        protocol: &P,
        dims: SymDims,
        perms: &[PermEntry],
    ) -> Option<FastPlan> {
        let group_len = perms.len();
        let params = protocol.params();
        let init = protocol.initial();
        let mut keys = SortKeyBuf::new();
        // The sortable dimension with the largest factorial benefits most
        // from refinement; the others are enumerated as outer perms.
        let inner = SymDim::ALL
            .into_iter()
            .filter(|&d| dims.has(d) && d.count(params) >= 2)
            .filter(|&d| protocol.sort_keys(&init, d, &mut keys).is_some())
            .max_by_key(|&d| d.count(params))?;
        let per_dim = |d: SymDim| {
            if dims.has(d) {
                factorial(d.count(params))
            } else {
                1
            }
        };
        let (np, nb, nv) = (
            per_dim(SymDim::Procs),
            per_dim(SymDim::Blocks),
            per_dim(SymDim::Values),
        );
        debug_assert_eq!(np * nb * nv, group_len, "group list matches dims");
        let inner_stride = match inner {
            SymDim::Procs => nb * nv,
            SymDim::Blocks => nv,
            SymDim::Values => 1,
        };
        let inner_count = factorial(inner.count(params));
        let mut outer_base = Vec::with_capacity(group_len / inner_count);
        for idx in 0..group_len {
            if (idx / inner_stride) % inner_count == 0 {
                outer_base.push(idx);
            }
        }
        Some(FastPlan {
            inner,
            inner_stride,
            outer_base,
        })
    }

    /// Group-list index of the candidate composed of outer coset leader
    /// `base` and the inner forward map `fwd`.
    fn candidate_index(&self, base: usize, fwd: &[u8]) -> usize {
        base + lex_rank(fwd) * self.inner_stride
    }
}

fn inner_map_matches(perm: &scv_types::SymPerm, dim: SymDim, fwd: &[u8]) -> bool {
    (0..fwd.len()).all(|i| {
        let got = match dim {
            SymDim::Procs => perm.proc_idx(i),
            SymDim::Blocks => perm.block_idx(i),
            SymDim::Values => perm.value_idx(i),
        };
        got == fwd[i] as usize
    })
}

/// Reusable work buffers for [`fast_min`] — non-generic, so one instance
/// serves every protocol's encoding scratch.
pub(crate) struct CanonScratch {
    keys: SortKeyBuf,
    /// `order[rank]` = inner element stably sorted to that rank.
    order: Vec<u8>,
    /// Maximal tied-key rank runs of `order`.
    runs: Vec<(u32, u32)>,
    residual: ResidualEnum,
    /// The block's first residual arrangement.
    first: Vec<u8>,
    /// The arrangement being walked.
    arr: Vec<u8>,
    /// Ranks `r` whose check walk (`first` with ranks `r`, `r + 1`
    /// swapped) found a class boundary.
    boundaries: Vec<u8>,
    /// Label orders of those check walks, back to back: the enumeration
    /// skips them, their outcomes are already tallied.
    walked: Vec<u8>,
    /// Label-order scratch.
    labels: Vec<u8>,
    /// Forward map scratch (`fwd[element] = rank`).
    fwd: Vec<u8>,
    /// Renamed protocol-encoding scratch for candidates whose proto words
    /// are not fully covered by the sort keys.
    proto_cand: Vec<u64>,
}

impl CanonScratch {
    pub(crate) fn new() -> CanonScratch {
        CanonScratch {
            keys: SortKeyBuf::new(),
            order: Vec::new(),
            runs: Vec::new(),
            residual: ResidualEnum::new(),
            first: Vec::new(),
            arr: Vec::new(),
            boundaries: Vec::new(),
            walked: Vec::new(),
            labels: Vec::new(),
            fwd: Vec::new(),
            proto_cand: Vec::new(),
        }
    }
}

/// How one residual candidate compared with the incumbent minimum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Walk {
    /// There was no incumbent: the candidate became the first one.
    First {
        /// The candidate is the identity element.
        identity: bool,
    },
    Less,
    Equal,
    /// Lost beyond the block-shared prefix.
    Greater,
    /// Lost within the block-shared prefix, so every remaining candidate
    /// of the block loses too.
    BlockLost,
}

/// Group elements mapping the state to the incumbent minimum, and whether
/// the identity encoding equals that minimum.
struct Ties {
    count: usize,
    /// Does the identity encoding (still) equal the incumbent? Tracked so
    /// `symmetry.canon_hits` stays exact without materializing the
    /// identity encoding: when the identity is a candidate of the first
    /// block at all, it is that block's first arrangement.
    identity_min: bool,
}

impl Ties {
    /// Account one walked label order standing for `weight` arrangements
    /// with the same encoding.
    fn tally(&mut self, walk: Walk, weight: usize) {
        match walk {
            Walk::Greater | Walk::BlockLost => {}
            Walk::First { identity } => {
                self.count = weight;
                self.identity_min = identity;
            }
            Walk::Less => {
                self.count = weight;
                self.identity_min = false;
            }
            Walk::Equal => self.count += weight,
        }
    }
}

/// Streams residual candidates against the incumbent minimum for one
/// [`fast_min`] call, carrying how far the current block's shared prefix
/// is known to tie the incumbent.
struct Walker<'a, P: Symmetry> {
    protocol: &'a P,
    plan: &'a FastPlan,
    perms: &'a [PermEntry],
    proto: &'a P::State,
    obs: &'a Observer,
    chk: &'a ScChecker,
    /// Fixed-ID base, for the debug contracts' from-scratch walks.
    #[cfg(debug_assertions)]
    base: u32,
    proto_len: usize,
    best: &'a mut Vec<u64>,
    cand: &'a mut Vec<u64>,
    fwd: &'a mut Vec<u8>,
    proto_cand: &'a mut Vec<u64>,
    have_best: bool,
    ids: IdCanon<'a>,
    /// Group-list index of the current block's outer coset leader.
    base_idx: usize,
    /// Protocol words the block's sort keys cover.
    covered: usize,
    /// The block-shared protocol prefix is known to equal the
    /// incumbent's, so candidates skip it without streaming.
    prefix_known_eq: bool,
}

impl<'a, P: Symmetry> Walker<'a, P> {
    /// The group element of the current block placing element
    /// `arr[rank]` at each rank.
    fn entry(&mut self, arr: &[u8]) -> (usize, &'a PermEntry) {
        self.fwd.clear();
        self.fwd.resize(arr.len(), 0);
        for (rank, &e) in arr.iter().enumerate() {
            self.fwd[e as usize] = rank as u8;
        }
        let idx = self.plan.candidate_index(self.base_idx, self.fwd);
        let e = &self.perms[idx];
        debug_assert!(
            inner_map_matches(&e.perm, self.plan.inner, self.fwd),
            "factorial-rank lookup disagrees with the composed renaming"
        );
        (idx, e)
    }

    /// Stream-compare E(g·s) for the arrangement `arr` against the
    /// incumbent, replacing it when the candidate is smaller.
    fn walk(&mut self, arr: &[u8]) -> Walk {
        let (idx, e) = self.entry(arr);
        let view = SymView {
            perm: &e.perm,
            loc: &e.locs,
            loc_inv: &e.locs_inv,
        };
        let (protocol, proto, obs, chk) = (self.protocol, self.proto, self.obs, self.chk);
        if !self.have_best {
            // Materialize the first candidate as the incumbent.
            self.best.clear();
            let ps = protocol.permute_state(proto, &e.perm);
            protocol.encode_state(&ps, self.best);
            debug_assert_eq!(
                self.best.len(),
                self.proto_len,
                "perms preserve encoding length"
            );
            self.ids.reset();
            self.ids.set_locs(&e.locs);
            obs.canonical_encoding_into(self.best, &mut self.ids, Some(&view));
            chk.canonical_encoding_into(self.best, &mut self.ids, Some(&view));
            self.have_best = true;
            self.prefix_known_eq = true;
            return Walk::First { identity: idx == 0 };
        }
        let covered = self.covered;
        let mut sink = CmpSink::new(self.best, self.cand);
        if self.prefix_known_eq && covered == self.proto_len {
            // The whole protocol prefix ties the incumbent's: no
            // renamed protocol state is materialized at all.
            sink.skip_equal(self.proto_len);
            #[cfg(debug_assertions)]
            {
                self.proto_cand.clear();
                let ps = protocol.permute_state(proto, &e.perm);
                protocol.encode_state(&ps, self.proto_cand);
                debug_assert_eq!(
                    &self.proto_cand[..],
                    &self.best[..self.proto_len],
                    "sort-key contract violated: skipped prefix differs"
                );
            }
        } else {
            self.proto_cand.clear();
            let ps = protocol.permute_state(proto, &e.perm);
            protocol.encode_state(&ps, self.proto_cand);
            if self.prefix_known_eq {
                sink.skip_equal(covered);
                debug_assert_eq!(
                    &self.proto_cand[..covered],
                    &self.best[..covered],
                    "sort-key contract violated: skipped prefix differs"
                );
                let _ = sink.words(&self.proto_cand[covered..]);
            } else {
                let _ = sink.words(self.proto_cand);
            }
            if sink.outcome() == CmpOutcome::Greater {
                if sink.matched() < covered {
                    // The candidate lost *within* the covered prefix,
                    // which every remaining candidate of this block
                    // shares: the whole block loses.
                    return Walk::BlockLost;
                }
                self.prefix_known_eq = true;
                return Walk::Greater;
            }
        }
        self.ids.reset();
        self.ids.set_locs(&e.locs);
        obs.canonical_encoding_into(&mut sink, &mut self.ids, Some(&view));
        if sink.outcome() != CmpOutcome::Greater {
            chk.canonical_encoding_into(&mut sink, &mut self.ids, Some(&view));
        }
        // Whatever the outcome, the candidate tied or beat the incumbent
        // through the protocol prefix, so the block-shared prefix is the
        // incumbent's from here on (a new incumbent is a member of this
        // block).
        self.prefix_known_eq = true;
        match sink.finish() {
            CmpOutcome::Less => {
                std::mem::swap(self.best, self.cand);
                Walk::Less
            }
            CmpOutcome::Equal => Walk::Equal,
            CmpOutcome::Greater => Walk::Greater,
        }
    }

    /// The complete encoding E(g·s) of the arrangement `arr`, walked from
    /// scratch.
    #[cfg(debug_assertions)]
    fn encoding_of(&mut self, arr: &[u8]) -> Vec<u64> {
        let (_, e) = self.entry(arr);
        let view = SymView {
            perm: &e.perm,
            loc: &e.locs,
            loc_inv: &e.locs_inv,
        };
        let mut out = Vec::new();
        let ps = self.protocol.permute_state(self.proto, &e.perm);
        self.protocol.encode_state(&ps, &mut out);
        let mut ids = IdCanon::new(self.base);
        ids.set_locs(&e.locs);
        self.obs
            .canonical_encoding_into(&mut out, &mut ids, Some(&view));
        self.chk
            .canonical_encoding_into(&mut out, &mut ids, Some(&view));
        out
    }

    /// The pruning contract: every residual arrangement the enumeration
    /// skips as a class permutation encodes exactly like the
    /// representative walked in its place.
    #[cfg(debug_assertions)]
    fn assert_classes(&mut self, order: &[u8], runs: &[(u32, u32)], classes: &ResidualEnum) {
        let mut all = ResidualEnum::new();
        all.reset(order, runs);
        let mut reps = std::collections::HashMap::<Vec<u8>, Vec<u64>>::new();
        let (mut labels, mut rep) = (Vec::new(), Vec::new());
        while let Some(arr) = all.next() {
            classes.labels_of(arr, &mut labels);
            classes.representative(&labels, &mut rep);
            if rep[..] == arr[..] {
                continue;
            }
            let arr = arr.to_vec();
            let got = self.encoding_of(&arr);
            if !reps.contains_key(&labels) {
                let enc = self.encoding_of(&rep);
                reps.insert(labels.clone(), enc);
            }
            debug_assert_eq!(
                &got, &reps[&labels],
                "pruning contract violated: a class permutation changes the encoding"
            );
        }
    }
}

/// Compute the orbit-minimum encoding of a product state via sort-based
/// refinement + residual enumeration + incremental comparison.
///
/// `proto_len` is the length of the protocol encoding (the same under
/// every renaming). `best` is overwritten: the first enumerated candidate
/// becomes the incumbent, so the identity encoding is never materialized.
/// On exit `best` holds exactly the encoding `orbit_min` would have
/// produced — byte-for-byte, tie counts included.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fast_min<P: Symmetry>(
    protocol: &P,
    plan: &FastPlan,
    perms: &[PermEntry],
    proto: &P::State,
    obs: &Observer,
    chk: &ScChecker,
    base: u32,
    proto_len: usize,
    best: &mut Vec<u64>,
    cand: &mut Vec<u64>,
    cs: &mut CanonScratch,
) {
    let params = protocol.params();
    let n = plan.inner.count(params) as usize;
    let mut ties = Ties {
        count: 0,
        identity_min: false,
    };
    let mut residual_total = 0u64;
    let mut w = Walker {
        protocol,
        plan,
        perms,
        proto,
        obs,
        chk,
        #[cfg(debug_assertions)]
        base,
        proto_len,
        best,
        cand,
        fwd: &mut cs.fwd,
        proto_cand: &mut cs.proto_cand,
        have_best: false,
        ids: IdCanon::new(base),
        base_idx: 0,
        covered: 0,
        prefix_known_eq: false,
    };

    for (ui, &base_idx) in plan.outer_base.iter().enumerate() {
        // The outer-renamed state the inner sort keys are read from. The
        // first outer element is the identity: borrow, no clone.
        let owned;
        let s_u: &P::State = if ui == 0 {
            proto
        } else {
            owned = protocol.permute_state(proto, &perms[base_idx].perm);
            &owned
        };
        let covered = protocol
            .sort_keys(s_u, plan.inner, &mut cs.keys)
            .expect("FastPlan::build verified the inner dimension is sortable");
        debug_assert!(covered <= proto_len && cs.keys.len() == n);
        // Phase 1: stable argsort by key = the lexicographically minimal
        // arrangement of the covered prefix.
        cs.order.clear();
        cs.order.extend(0..n as u8);
        let keys = &cs.keys;
        cs.order
            .sort_by(|&a, &b| keys.key(a as usize).cmp(keys.key(b as usize)));
        // Phase 2: tied runs = the residual subgroup the prefix cannot
        // discriminate.
        cs.runs.clear();
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n && keys.key(cs.order[j] as usize) == keys.key(cs.order[i] as usize) {
                j += 1;
            }
            if j - i >= 2 {
                cs.runs.push((i as u32, (j - i) as u32));
            }
            i = j;
        }
        cs.residual.reset(&cs.order, &cs.runs);
        residual_total += cs.residual.count();
        w.base_idx = base_idx;
        w.covered = covered;
        // Every candidate of this block shares the same covered prefix
        // (residual arrangements only permute within tied runs); it is
        // known to equal the incumbent's once a candidate of the block
        // has been walked to the end of it.
        w.prefix_known_eq = false;

        cs.first.clear();
        cs.first.extend_from_slice(
            cs.residual
                .next()
                .expect("a residual has a first arrangement"),
        );
        let first = w.walk(&cs.first);
        if first == Walk::BlockLost {
            continue;
        }
        ties.tally(first, 1);
        // Phase 2b: split each run into classes of interchangeable
        // elements. When E(g₀·s) is the incumbent, a check walk of g₀ with
        // two adjacent ranks swapped compares Equal exactly when swapping
        // those elements is an automorphism of the state; equal encodings
        // stay equal under every renaming, so each class's permutations
        // then map *every* arrangement of the block to its own encoding.
        // The walks are candidates of the block like any other: a boundary
        // check's outcome is tallied here and its label order skipped
        // below, so no arrangement is walked twice.
        let mut weight = 1usize;
        cs.boundaries.clear();
        cs.walked.clear();
        if first != Walk::Greater && !cs.runs.is_empty() {
            'checks: for &(s, l) in &cs.runs {
                for r in s as usize..(s + l) as usize - 1 {
                    cs.arr.clone_from(&cs.first);
                    cs.arr.swap(r, r + 1);
                    let walk = w.walk(&cs.arr);
                    if walk == Walk::Equal {
                        cs.residual.join(r);
                        continue;
                    }
                    // A lost check is a class boundary. The first
                    // incumbent is g₀, never a check.
                    debug_assert!(matches!(walk, Walk::Less | Walk::Greater | Walk::BlockLost));
                    cs.boundaries.push(r as u8);
                    if walk == Walk::Less {
                        // g₀ is not the block minimum, so later checks
                        // would compare against the wrong reference.
                        ties.tally(walk, 1);
                        break 'checks;
                    }
                }
            }
            weight = cs.residual.class_perms() as usize;
            // The incumbent's label order was tallied as one arrangement.
            ties.count += weight - 1;
            for &r in &cs.boundaries {
                cs.arr.clone_from(&cs.first);
                cs.arr.swap(r as usize, r as usize + 1);
                cs.residual.labels_of(&cs.arr, &mut cs.labels);
                cs.walked.extend_from_slice(&cs.labels);
            }
            #[cfg(debug_assertions)]
            if weight > 1 {
                w.assert_classes(&cs.order, &cs.runs, &cs.residual);
            }
        }
        // Nothing left when g₀ and the boundary checks already cover every
        // label order (always so for a single run of two).
        if cs.residual.count() == weight as u64 * (1 + cs.boundaries.len() as u64) {
            continue;
        }
        while let Some(arr) = cs.residual.next() {
            cs.arr.clear();
            cs.arr.extend_from_slice(arr);
            if cs.walked.chunks_exact(n).any(|l| l == cs.residual.labels()) {
                continue;
            }
            match w.walk(&cs.arr) {
                Walk::BlockLost => break,
                walk => ties.tally(walk, weight),
            }
        }
    }

    if scv_telemetry::enabled() {
        use scv_telemetry::{Hist, Metric};
        scv_telemetry::add(Metric::SymCanonicalized, 1);
        scv_telemetry::add(Metric::SymCanonHits, !ties.identity_min as u64);
        // Orbit-stabilizer: |orbit| = |G| / |{g : E(g·s) = min}| — only
        // enumerated candidates and their class permutations can tie the
        // minimum (every skipped block has a strictly greater covered
        // prefix), so `ties` is exact.
        scv_telemetry::record(Hist::SymOrbitSize, (perms.len() / ties.count) as u64);
        // The residual size before class pruning.
        if residual_total <= plan.outer_base.len() as u64 {
            scv_telemetry::add(Metric::SymRefineExact, 1);
        } else {
            scv_telemetry::record(Hist::SymResidualGroupSize, residual_total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_rank_matches_sorted_enumeration_order() {
        // All permutations of 0..4 in lexicographic order must rank 0..24.
        let mut perms: Vec<Vec<u8>> = Vec::new();
        fn rec(cur: &mut Vec<u8>, rest: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
            if rest.is_empty() {
                out.push(cur.clone());
                return;
            }
            for i in 0..rest.len() {
                let x = rest.remove(i);
                cur.push(x);
                rec(cur, rest, out);
                cur.pop();
                rest.insert(i, x);
            }
        }
        rec(&mut Vec::new(), &mut (0..4).collect(), &mut perms);
        perms.sort();
        for (i, p) in perms.iter().enumerate() {
            assert_eq!(lex_rank(p), i, "rank of {p:?}");
        }
    }
}
