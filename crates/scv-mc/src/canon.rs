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
//! Every candidate is a member of the materialized capped group, located
//! by its factorial-number-system rank, so the precomputed location maps
//! (and their long-lived borrows inside the aux-ID renamer) are reused —
//! the steady-state loop allocates nothing.

use crate::verify::PermEntry;
use scv_checker::ScChecker;
use scv_descriptor::{CmpOutcome, CmpSink, EncSink, IdCanon, SymView};
use scv_observer::Observer;
use scv_protocol::Symmetry;
use scv_types::{ResidualEnum, SortKeyBuf, SymDim, SymDims};

fn factorial(n: u8) -> usize {
    (1..=n as usize).product::<usize>().max(1)
}

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
    /// Observer-extension layout: `ext[e]` lists the 0-based locations the
    /// inner dimension moves together with element `e`, in identity
    /// position order — verified at build time against every inner
    /// element's materialized location map (see [`FastPlan::derive_ext`]).
    /// When present, the owner words of those locations extend each
    /// element's sort key past the protocol prefix through the encoding's
    /// `loc_owner` section, and locations in no row are fixed by every
    /// inner renaming (their words never discriminate).
    pub(crate) ext: Option<Vec<Vec<u32>>>,
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
        let ext = Self::derive_ext(params, inner, inner_stride, inner_count, perms);
        Some(FastPlan {
            inner,
            inner_stride,
            outer_base,
            ext,
        })
    }

    /// Derive and *verify* the per-element location rows the observer key
    /// extension needs. The candidate layout is guessed from the standard
    /// location spaces (`p·b` proc-major cache lines plus `b` memory
    /// locations, or `b` bare block locations), then checked exhaustively
    /// against the materialized location map of every inner group element:
    /// row `j` of element `e` must land on row `j` of `e`'s image, and
    /// every location outside the rows must be fixed. A protocol with any
    /// other location structure simply fails verification and keeps
    /// protocol-only keys — never an unsound extension.
    fn derive_ext(
        params: scv_types::Params,
        inner: SymDim,
        inner_stride: usize,
        inner_count: usize,
        perms: &[PermEntry],
    ) -> Option<Vec<Vec<u32>>> {
        let n = inner.count(params) as usize;
        let l = perms[0].locs.len().checked_sub(1)?;
        let (p, b) = (params.p as usize, params.b as usize);
        let rows: Vec<Vec<u32>> = match inner {
            SymDim::Procs if l == p * b + b => (0..n)
                .map(|e| (e * b..(e + 1) * b).map(|x| x as u32).collect())
                .collect(),
            SymDim::Blocks if l == p * b + b => (0..n)
                .map(|e| {
                    (0..p)
                        .map(|pi| (pi * b + e) as u32)
                        .chain([(p * b + e) as u32])
                        .collect()
                })
                .collect(),
            SymDim::Blocks if l == b => (0..n).map(|e| vec![e as u32]).collect(),
            // Unknown layout (or the values dimension, which never moves
            // locations): claim no rows — verification below then demands
            // every location be fixed, which still extends the covered
            // prefix through the whole (invariant) owner section.
            _ => vec![Vec::new(); n],
        };
        let mut in_row = vec![false; l];
        for row in &rows {
            for &pos in row {
                in_row[pos as usize] = true;
            }
        }
        for w in 0..inner_count {
            let e = &perms[w * inner_stride];
            let img = |x: usize| match inner {
                SymDim::Procs => e.perm.proc_idx(x),
                SymDim::Blocks => e.perm.block_idx(x),
                SymDim::Values => e.perm.value_idx(x),
            };
            for (elem, row) in rows.iter().enumerate() {
                let target = &rows[img(elem)];
                for (j, &pos) in row.iter().enumerate() {
                    if e.locs[pos as usize + 1] as usize - 1 != target[j] as usize {
                        return None;
                    }
                }
            }
            for (pos, covered) in in_row.iter().enumerate() {
                if !covered && e.locs[pos + 1] as usize - 1 != pos {
                    return None;
                }
            }
        }
        Some(rows)
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
/// serves both the per-worker lazy scratch and the thread-local used by
/// the materializing seal path (`successors`).
pub(crate) struct CanonScratch {
    keys: SortKeyBuf,
    /// Observer-extension key per element (owner words of its location
    /// row) — compared *after* `keys`, refining its ties.
    ext_keys: SortKeyBuf,
    /// Full-observer key per element (`last_op` + `bot_anchor` row) —
    /// compared after `ext_keys`, refining its ties through the entire
    /// observer encoding.
    obs_keys: SortKeyBuf,
    /// Owner words of the observer's `loc_owner` section, identity order.
    owner: Vec<u64>,
    /// Inverse block map of the current outer coset leader.
    binv: Vec<u8>,
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
            ext_keys: SortKeyBuf::new(),
            obs_keys: SortKeyBuf::new(),
            owner: Vec::new(),
            binv: Vec::new(),
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
    /// The identity, whose encoding already is the incumbent: not walked.
    Identity,
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
/// that minimum beats the identity encoding.
struct Ties {
    count: usize,
    beaten: bool,
    /// Does the identity encoding (still) equal the incumbent? Tracked so
    /// `symmetry.canon_hits` stays exact when the identity encoding was
    /// never materialized.
    identity_min: bool,
}

impl Ties {
    /// Account one walked label order standing for `weight` arrangements
    /// with the same encoding.
    fn tally(&mut self, walk: Walk, weight: usize) {
        match walk {
            Walk::Identity | Walk::Greater | Walk::BlockLost => {}
            Walk::First { identity } => {
                self.count = weight;
                self.identity_min = identity;
            }
            Walk::Less => {
                self.count = weight;
                self.beaten = true;
                self.identity_min = false;
            }
            Walk::Equal => self.count += weight,
        }
    }
}

/// Streams residual candidates against the incumbent minimum for one
/// [`fast_min`] call, carrying what earlier walks proved: the warm aux-ID
/// map, the observer section's length, and how far the current block's
/// shared prefix is known to tie the incumbent.
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
    /// The aux-ID renaming an observer walk builds is
    /// arrangement-invariant (first-use order = entry order), so one
    /// completed walk's map serves every candidate: `ids_warm` snapshots
    /// it, and candidates known to tie the incumbent through the whole
    /// observer section skip their observer walk entirely — clone the
    /// map, rename only the checker.
    ids_warm: IdCanon<'a>,
    warm: bool,
    /// Word index one past the observer section of the identity encoding —
    /// the same for every candidate (section lengths are
    /// arrangement-invariant) — or 0 until the first candidate is
    /// materialized.
    obs_end: usize,
    /// Group-list index of the current block's outer coset leader.
    base_idx: usize,
    /// Protocol words the block's sort keys cover.
    covered: usize,
    /// How far the incumbent's prefix is provably shared by every
    /// candidate of the block.
    covered_cmp: usize,
    /// The full-observer key extension is live for the block.
    use_full: bool,
    /// The block-shared protocol prefix is known to equal the
    /// incumbent's, so candidates skip it without streaming.
    prefix_known_eq: bool,
    /// Like `prefix_known_eq`, but through the whole observer section
    /// (`use_full`): the candidates' observer walks are re-derivations
    /// and are skipped.
    obs_eq: bool,
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
        if idx == 0 && self.have_best {
            return Walk::Identity;
        }
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
            if !self.warm {
                self.ids_warm.clone_from(&self.ids);
                self.warm = true;
            }
            if self.obs_end == 0 {
                self.obs_end = self.best.len();
                if self.use_full {
                    self.covered_cmp = self.obs_end;
                }
            }
            chk.canonical_encoding_into(self.best, &mut self.ids, Some(&view));
            self.have_best = true;
            self.prefix_known_eq = true;
            self.obs_eq = self.use_full && self.obs_end != 0;
            return Walk::First { identity: idx == 0 };
        }
        let (covered, obs_end) = (self.covered, self.obs_end);
        let mut sink = CmpSink::new(self.best, self.cand);
        let skip_obs = self.obs_eq && self.warm;
        if skip_obs {
            // The candidate provably ties the incumbent through the
            // whole observer section: skip straight to the checker
            // walk, with the aux-ID map restored from the snapshot.
            sink.skip_equal(obs_end);
            #[cfg(debug_assertions)]
            {
                self.proto_cand.clear();
                let ps = protocol.permute_state(proto, &e.perm);
                protocol.encode_state(&ps, self.proto_cand);
                let mut dbg_ids = IdCanon::new(self.base);
                dbg_ids.set_locs(&e.locs);
                obs.canonical_encoding_into(self.proto_cand, &mut dbg_ids, Some(&view));
                debug_assert_eq!(
                    &self.proto_cand[..],
                    &self.best[..obs_end],
                    "obs-skip contract violated: skipped region differs"
                );
            }
            self.ids.clone_from(&self.ids_warm);
            self.ids.set_locs(&e.locs);
        } else if self.prefix_known_eq && covered == self.proto_len {
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
        if !skip_obs {
            self.ids.reset();
            self.ids.set_locs(&e.locs);
            obs.canonical_encoding_into(&mut sink, &mut self.ids, Some(&view));
            if !self.warm && sink.outcome() != CmpOutcome::Greater {
                // The walk completed: the aux map is fully built.
                self.ids_warm.clone_from(&self.ids);
                self.warm = true;
            }
        }
        if sink.outcome() != CmpOutcome::Greater {
            chk.canonical_encoding_into(&mut sink, &mut self.ids, Some(&view));
        }
        let diverged_at = sink.matched();
        let full_known = self.use_full && obs_end != 0;
        match sink.finish() {
            CmpOutcome::Less => {
                std::mem::swap(self.best, self.cand);
                // The new incumbent is a member of this block: its whole
                // shared prefix is now the incumbent's.
                self.prefix_known_eq = true;
                self.obs_eq = full_known;
                Walk::Less
            }
            CmpOutcome::Equal => {
                self.prefix_known_eq = true;
                self.obs_eq = full_known;
                Walk::Equal
            }
            CmpOutcome::Greater => {
                if diverged_at < self.covered_cmp {
                    // Lost within the block-shared prefix (extended
                    // through the owner section when the extension is
                    // live): every remaining candidate loses there too.
                    return Walk::BlockLost;
                }
                // Lost beyond the shared prefix — the prefix itself tied
                // the incumbent's.
                self.prefix_known_eq = true;
                self.obs_eq = full_known && diverged_at >= obs_end;
                Walk::Greater
            }
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
/// On entry, `best` holds the identity candidate (injective protocol
/// prefix of `proto_len` words, then the plain canonical encodings) when
/// `have_identity` is true; otherwise only the protocol prefix, and the
/// first enumerated candidate is materialized as the incumbent instead
/// (saving the identity's observer/checker walk when no cache key needs
/// it). On exit `best` holds exactly the encoding `orbit_min` would have
/// produced — byte-for-byte, tie counts included.
///
/// `identity_obs_end` is the length of `best` after the identity's
/// observer encoding (before the checker's), used to extend block-shared
/// prefix pruning through the whole observer section — pass 0 when
/// unknown (or `have_identity` is false) and it is derived from the first
/// materialized candidate instead.
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
    have_identity: bool,
    identity_obs_end: usize,
) {
    let params = protocol.params();
    let n = plan.inner.count(params) as usize;
    // The initial count of 1 is the identity (skipped during enumeration
    // when its encoding is already the incumbent).
    let mut ties = Ties {
        count: 1,
        beaten: false,
        identity_min: have_identity,
    };
    let mut residual_total = 0u64;
    // The observer key extension: owner words are arrangement-invariant
    // node ranks, so tied protocol keys refine further by each element's
    // slice of the encoding's `loc_owner` section.
    let have_owner = plan.ext.is_some() && obs.owner_words(&mut cs.owner);
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
        have_best: have_identity,
        ids: IdCanon::new(base),
        ids_warm: IdCanon::new(base),
        warm: false,
        obs_end: if have_identity { identity_obs_end } else { 0 },
        base_idx: 0,
        covered: 0,
        covered_cmp: 0,
        use_full: false,
        prefix_known_eq: false,
        obs_eq: false,
    };

    for (ui, &base_idx) in plan.outer_base.iter().enumerate() {
        let u = &perms[base_idx].perm;
        // The outer-renamed state the inner sort keys are read from. The
        // first outer element is the identity: borrow, no clone.
        let owned;
        let s_u: &P::State = if ui == 0 {
            proto
        } else {
            owned = protocol.permute_state(proto, u);
            &owned
        };
        let covered = protocol
            .sort_keys(s_u, plan.inner, &mut cs.keys)
            .expect("FastPlan::build verified the inner dimension is sortable");
        debug_assert!(covered <= proto_len && cs.keys.len() == n);
        // The extension is sound only when the protocol keys already cover
        // the whole protocol prefix: the lex argument needs the covered
        // region contiguous from word 0.
        let use_ext = have_owner && covered == proto_len;
        cs.ext_keys.clear();
        if use_ext {
            let rows = plan.ext.as_deref().expect("have_owner implies ext");
            // Under the outer coset leader `u`, position `pos` of the
            // owner section reads the owner of `u⁻¹(pos)` — the inner
            // renaming only reorders whole rows (verified at build time).
            let u_inv = &perms[base_idx].locs_inv;
            for row in rows {
                cs.ext_keys.begin_key();
                for &pos in row {
                    cs.ext_keys
                        .push(cs.owner[u_inv[pos as usize + 1] as usize - 1]);
                }
            }
        }
        // Full-observer extension: when the inner dimension is processors,
        // the only encoding words past the owner section that *move* under
        // an inner renaming are each processor's `last_op` entry and
        // `bot_anchor` row — everything else (node sections, per-block
        // sections) is emitted in arrangement-invariant order. Those words
        // then extend the sort keys through the *entire* observer encoding,
        // and `proc_key_ext` itself gates the cases that would break the
        // invariance (heirs, dead keys).
        cs.obs_keys.clear();
        let use_full = use_ext && plan.inner == SymDim::Procs && {
            let b_count = params.b as usize;
            cs.binv.clear();
            cs.binv.resize(b_count, 0);
            for x in 0..b_count {
                cs.binv[u.block_idx(x)] = x as u8;
            }
            let binv = &cs.binv;
            obs.proc_key_ext(&|bi| binv[bi] as usize, &mut cs.obs_keys)
        };
        // Phase 1: stable argsort by composite key = the lexicographically
        // minimal arrangement of the covered prefix.
        cs.order.clear();
        cs.order.extend(0..n as u8);
        {
            let keys = &cs.keys;
            let ext = &cs.ext_keys;
            let obsk = &cs.obs_keys;
            cs.order.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                let mut c = keys.key(a).cmp(keys.key(b));
                if use_ext {
                    c = c.then_with(|| ext.key(a).cmp(ext.key(b)));
                }
                if use_full {
                    c = c.then_with(|| obsk.key(a).cmp(obsk.key(b)));
                }
                c
            });
        }
        // Phase 2: tied runs = the residual subgroup the prefix cannot
        // discriminate.
        cs.runs.clear();
        {
            let keys = &cs.keys;
            let ext = &cs.ext_keys;
            let obsk = &cs.obs_keys;
            let tied = |a: usize, b: usize| {
                keys.key(a) == keys.key(b)
                    && (!use_ext || ext.key(a) == ext.key(b))
                    && (!use_full || obsk.key(a) == obsk.key(b))
            };
            let mut i = 0usize;
            while i < n {
                let mut j = i + 1;
                while j < n && tied(cs.order[j] as usize, cs.order[i] as usize) {
                    j += 1;
                }
                if j - i >= 2 {
                    cs.runs.push((i as u32, (j - i) as u32));
                }
                i = j;
            }
        }
        cs.residual.reset(&cs.order, &cs.runs);
        residual_total += cs.residual.count();
        w.base_idx = base_idx;
        w.covered = covered;
        w.use_full = use_full;
        // How far the incumbent's prefix is provably shared by every
        // candidate of this block: through the whole observer encoding
        // when the full extension is live, through the owner section when
        // only the owner extension is (protocol prefix + entry-count word
        // + owners).
        w.covered_cmp = if use_full && w.obs_end != 0 {
            w.obs_end
        } else if use_ext {
            proto_len + 1 + cs.owner.len()
        } else {
            covered
        };
        // Every candidate of this block shares the same covered prefix
        // (residual arrangements only permute within tied runs). Initially
        // it is only known to equal the incumbent's for the identity block
        // when the identity arrangement is itself minimal (a stable sort
        // then reproduces the identity order).
        w.prefix_known_eq =
            w.have_best && ui == 0 && cs.order.iter().enumerate().all(|(i, &e)| e as usize == i);
        w.obs_eq = w.prefix_known_eq && use_full && w.obs_end != 0;

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
                    // A lost check is a class boundary. The identity and
                    // the first incumbent are both g₀, never a check.
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
        let min_beats_identity = if have_identity {
            ties.beaten
        } else {
            !ties.identity_min
        };
        scv_telemetry::add(Metric::SymCanonHits, min_beats_identity as u64);
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

/// Access the thread-local scratch used by the materializing seal path
/// (the lazy expansion path carries a [`CanonScratch`] in its per-worker
/// scratch instead).
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut CanonScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<CanonScratch> =
            std::cell::RefCell::new(CanonScratch::new());
    }
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
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
