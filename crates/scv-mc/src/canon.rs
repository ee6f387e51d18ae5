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
//!    remaining dimensions) are completed to full candidates.
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
            fwd: Vec::new(),
            proto_cand: Vec::new(),
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
    let mut have_best = have_identity;
    // Group elements mapping this state to the current minimum; the
    // initial 1 is the identity (skipped during enumeration when its
    // encoding is already the incumbent).
    let mut ties = 1usize;
    let mut beaten = false;
    // Does the identity encoding (still) equal the incumbent? Tracked so
    // `symmetry.canon_hits` stays exact when the identity encoding was
    // never materialized.
    let mut identity_min = have_identity;
    let mut ids = IdCanon::new(base);
    // The aux-ID renaming an observer walk builds is arrangement-invariant
    // (first-use order = entry order), so one completed walk's map serves
    // every candidate: `ids_warm` snapshots it, and candidates known to
    // tie the incumbent through the whole observer section skip their
    // observer walk entirely — clone the map, rename only the checker.
    let mut ids_warm = IdCanon::new(base);
    let mut warm = false;
    let mut residual_total = 0u64;
    // The observer key extension: owner words are arrangement-invariant
    // node ranks, so tied protocol keys refine further by each element's
    // slice of the encoding's `loc_owner` section.
    let have_owner = plan.ext.is_some() && obs.owner_words(&mut cs.owner);
    // Word index one past the observer section of the identity encoding —
    // the same for every candidate (section lengths are arrangement-
    // invariant) — or 0 until the first candidate is materialized.
    let mut obs_end = if have_identity { identity_obs_end } else { 0 };

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
            let u = &perms[base_idx].perm;
            for x in 0..b_count {
                cs.binv[u.block_idx(x)] = x as u8;
            }
            let binv = &cs.binv;
            obs.proc_key_ext(&|bi| binv[bi] as usize, &mut cs.obs_keys)
        };
        // How far the incumbent's prefix is provably shared by every
        // candidate of this block: through the whole observer encoding
        // when the full extension is live, through the owner section when
        // only the owner extension is (protocol prefix + entry-count word
        // + owners).
        let mut covered_cmp = if use_full && obs_end != 0 {
            obs_end
        } else if use_ext {
            proto_len + 1 + cs.owner.len()
        } else {
            covered
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
        // Every candidate of this block shares the same covered prefix
        // (residual arrangements only permute within tied runs). Once that
        // prefix is known to equal the incumbent's, later candidates skip
        // it without streaming; initially this is only known for the
        // identity block when the identity arrangement is itself minimal
        // (a stable sort then reproduces the identity order).
        let mut prefix_known_eq =
            have_best && ui == 0 && cs.order.iter().enumerate().all(|(i, &e)| e as usize == i);
        // Like `prefix_known_eq`, but for the block-shared prefix extended
        // through the whole observer section (`use_full`): once a candidate
        // proves the incumbent ties it through `obs_end`, its siblings'
        // observer walks are pure re-derivations and are skipped.
        let mut obs_eq = prefix_known_eq && use_full && obs_end != 0;

        while let Some(arr) = cs.residual.next() {
            cs.fwd.clear();
            cs.fwd.resize(n, 0);
            for (rank, &e) in arr.iter().enumerate() {
                cs.fwd[e as usize] = rank as u8;
            }
            let idx = plan.candidate_index(base_idx, &cs.fwd);
            let e = &perms[idx];
            debug_assert!(
                inner_map_matches(&e.perm, plan.inner, &cs.fwd),
                "factorial-rank lookup disagrees with the composed renaming"
            );
            if idx == 0 && have_best {
                continue; // the identity: counted by the initial `ties`
            }
            let view = SymView {
                perm: &e.perm,
                loc: &e.locs,
                loc_inv: &e.locs_inv,
            };
            if !have_best {
                // Materialize the first candidate as the incumbent.
                best.clear();
                let ps = protocol.permute_state(proto, &e.perm);
                protocol.encode_state(&ps, best);
                debug_assert_eq!(best.len(), proto_len, "perms preserve encoding length");
                ids.reset();
                ids.set_locs(&e.locs);
                obs.canonical_encoding_into(best, &mut ids, Some(&view));
                if !warm {
                    ids_warm.clone_from(&ids);
                    warm = true;
                }
                if obs_end == 0 {
                    obs_end = best.len();
                    if use_full {
                        covered_cmp = obs_end;
                    }
                }
                chk.canonical_encoding_into(best, &mut ids, Some(&view));
                have_best = true;
                ties = 1;
                identity_min = idx == 0;
                prefix_known_eq = true;
                obs_eq = use_full && obs_end != 0;
                continue;
            }
            // Phase 3: stream-compare E(g·s) against the incumbent.
            let mut sink = CmpSink::new(best, cand);
            let skip_obs = obs_eq && warm;
            if skip_obs {
                // The candidate provably ties the incumbent through the
                // whole observer section: skip straight to the checker
                // walk, with the aux-ID map restored from the snapshot.
                sink.skip_equal(obs_end);
                #[cfg(debug_assertions)]
                {
                    cs.proto_cand.clear();
                    let ps = protocol.permute_state(proto, &e.perm);
                    protocol.encode_state(&ps, &mut cs.proto_cand);
                    let mut dbg_ids = IdCanon::new(base);
                    dbg_ids.set_locs(&e.locs);
                    obs.canonical_encoding_into(&mut cs.proto_cand, &mut dbg_ids, Some(&view));
                    debug_assert_eq!(
                        &cs.proto_cand[..],
                        &best[..obs_end],
                        "obs-skip contract violated: skipped region differs"
                    );
                }
                ids.clone_from(&ids_warm);
                ids.set_locs(&e.locs);
            } else if prefix_known_eq && covered == proto_len {
                // The whole protocol prefix ties the incumbent's: no
                // renamed protocol state is materialized at all.
                sink.skip_equal(proto_len);
                #[cfg(debug_assertions)]
                {
                    cs.proto_cand.clear();
                    let ps = protocol.permute_state(proto, &e.perm);
                    protocol.encode_state(&ps, &mut cs.proto_cand);
                    debug_assert_eq!(
                        &cs.proto_cand[..],
                        &best[..proto_len],
                        "sort-key contract violated: skipped prefix differs"
                    );
                }
            } else {
                cs.proto_cand.clear();
                let ps = protocol.permute_state(proto, &e.perm);
                protocol.encode_state(&ps, &mut cs.proto_cand);
                if prefix_known_eq {
                    sink.skip_equal(covered);
                    debug_assert_eq!(
                        &cs.proto_cand[..covered],
                        &best[..covered],
                        "sort-key contract violated: skipped prefix differs"
                    );
                    let _ = sink.words(&cs.proto_cand[covered..]);
                } else {
                    let _ = sink.words(&cs.proto_cand);
                }
                if sink.outcome() == CmpOutcome::Greater {
                    if sink.matched() < covered {
                        // The candidate lost *within* the covered prefix,
                        // which every remaining candidate of this block
                        // shares: the whole block loses.
                        break;
                    }
                    prefix_known_eq = true;
                    continue;
                }
            }
            if !skip_obs {
                ids.reset();
                ids.set_locs(&e.locs);
                obs.canonical_encoding_into(&mut sink, &mut ids, Some(&view));
                if !warm && sink.outcome() != CmpOutcome::Greater {
                    // The walk completed: the aux map is fully built.
                    ids_warm.clone_from(&ids);
                    warm = true;
                }
            }
            if sink.outcome() != CmpOutcome::Greater {
                chk.canonical_encoding_into(&mut sink, &mut ids, Some(&view));
            }
            let diverged_at = sink.matched();
            match sink.finish() {
                CmpOutcome::Less => {
                    std::mem::swap(best, cand);
                    ties = 1;
                    beaten = true;
                    identity_min = false;
                    prefix_known_eq = true;
                    // The new incumbent is a member of this block: its
                    // whole shared prefix is now the incumbent's.
                    obs_eq = use_full && obs_end != 0;
                }
                CmpOutcome::Equal => {
                    ties += 1;
                    prefix_known_eq = true;
                    obs_eq = use_full && obs_end != 0;
                }
                CmpOutcome::Greater => {
                    if diverged_at < covered_cmp {
                        // Lost within the block-shared prefix (extended
                        // through the owner section when the extension is
                        // live): every remaining candidate loses there too.
                        break;
                    }
                    // Lost beyond the shared prefix — the prefix itself
                    // tied the incumbent's.
                    prefix_known_eq = true;
                    obs_eq = use_full && obs_end != 0 && diverged_at >= obs_end;
                }
            }
        }
    }

    if scv_telemetry::enabled() {
        use scv_telemetry::{Hist, Metric};
        scv_telemetry::add(Metric::SymCanonicalized, 1);
        let min_beats_identity = if have_identity { beaten } else { !identity_min };
        scv_telemetry::add(Metric::SymCanonHits, min_beats_identity as u64);
        // Orbit-stabilizer: |orbit| = |G| / |{g : E(g·s) = min}| — only
        // enumerated candidates can tie the minimum (every skipped one has
        // a strictly greater covered prefix), so `ties` is exact.
        scv_telemetry::record(Hist::SymOrbitSize, (perms.len() / ties) as u64);
        if residual_total <= plan.outer_base.len() as u64 {
            scv_telemetry::add(Metric::SymRefineExact, 1);
        } else {
            scv_telemetry::add(Metric::SymResidualEnum, 1);
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
