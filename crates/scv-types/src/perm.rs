//! Reorderings (permutations) of traces and the serial-reordering predicate
//! of §2.2.
//!
//! A reordering of a trace of length `k` is a permutation `Π = π(1)..π(k)`;
//! the reordered trace is `t_{π(1)}, ..., t_{π(k)}`. `Π` is a *serial
//! reordering* if it preserves every processor's program order and the
//! reordered trace is serial. A protocol is sequentially consistent iff all
//! of its traces have a serial reordering.

use crate::ids::{BlockId, Params, ProcId, Value};
use crate::op::Op;
use crate::trace::Trace;

/// A permutation of the positions of a trace. `perm[j] = i` means the `j`-th
/// operation of the reordered trace is the `i`-th operation (0-based) of the
/// original trace — i.e. `perm` is the paper's `π` shifted to 0-based
/// indices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reordering(Vec<usize>);

impl Reordering {
    /// The identity reordering on `n` elements.
    pub fn identity(n: usize) -> Self {
        Reordering((0..n).collect())
    }

    /// Build from an explicit permutation vector; panics if `perm` is not a
    /// permutation of `0..perm.len()`.
    pub fn new(perm: Vec<usize>) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &i in &perm {
            assert!(i < n && !seen[i], "not a permutation of 0..{n}");
            seen[i] = true;
        }
        Reordering(perm)
    }

    /// Length of the underlying trace.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is this the empty reordering?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The permutation as a slice (`perm[j]` = original position of the
    /// `j`-th reordered operation).
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// The inverse permutation: `inv[i]` = position of original operation
    /// `i` in the reordered trace (the paper's `π⁻¹`).
    pub fn inverse(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.0.len()];
        for (j, &i) in self.0.iter().enumerate() {
            inv[i] = j;
        }
        inv
    }

    /// Apply the reordering to a trace, producing `T' = t_{π(1)},...,t_{π(k)}`.
    pub fn apply(&self, trace: &Trace) -> Trace {
        assert_eq!(self.len(), trace.len(), "reordering/trace length mismatch");
        Trace::from_ops(self.0.iter().map(|&i| trace[i]))
    }

    /// Does the reordering preserve per-processor program order? For all
    /// operations `a < b` of the same processor, `π⁻¹(a) < π⁻¹(b)`.
    pub fn preserves_program_order(&self, trace: &Trace) -> bool {
        assert_eq!(self.len(), trace.len(), "reordering/trace length mismatch");
        let inv = self.inverse();
        let mut last_pos: Vec<Option<(usize, usize)>> = Vec::new(); // (orig, reordered) per proc idx
        for i in 0..trace.len() {
            let p = trace[i].proc.idx();
            if last_pos.len() <= p {
                last_pos.resize(p + 1, None);
            }
            if let Some((_, prev_j)) = last_pos[p] {
                if inv[i] < prev_j {
                    return false;
                }
            }
            last_pos[p] = Some((i, inv[i]));
        }
        true
    }

    /// Is this a *serial reordering* of the trace (§2.2): program order is
    /// preserved and the reordered trace is serial?
    pub fn is_serial_reordering(&self, trace: &Trace) -> bool {
        self.preserves_program_order(trace) && self.apply(trace).is_serial()
    }
}

/// Which identity dimensions of a protocol may be permuted without
/// changing its behaviour.
///
/// A protocol whose transition relation treats processor numbers (or block
/// numbers, or data values) interchangeably is *symmetric* in that
/// dimension: renaming the identities maps runs to runs. A [`SymPerm`]
/// drawn from the enabled dimensions then acts on states, operations, and
/// traces, and the model checker may explore one representative per orbit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SymDims {
    /// Processor identities are interchangeable.
    pub procs: bool,
    /// Memory-block identities are interchangeable.
    pub blocks: bool,
    /// Data values are interchangeable (`⊥` is always a fixed point).
    pub values: bool,
}

impl SymDims {
    /// No symmetric dimension: only the identity permutation.
    pub const NONE: SymDims = SymDims {
        procs: false,
        blocks: false,
        values: false,
    };

    /// All three dimensions are symmetric.
    pub const FULL: SymDims = SymDims {
        procs: true,
        blocks: true,
        values: true,
    };

    /// Only processor identities are symmetric.
    pub const PROCS: SymDims = SymDims {
        procs: true,
        blocks: false,
        values: false,
    };

    /// Dimensions symmetric under both `self` and `other`.
    pub fn intersect(self, other: SymDims) -> SymDims {
        SymDims {
            procs: self.procs && other.procs,
            blocks: self.blocks && other.blocks,
            values: self.values && other.values,
        }
    }

    /// Dimensions enabled in `self` but not in `other`.
    pub fn difference(self, other: SymDims) -> SymDims {
        SymDims {
            procs: self.procs && !other.procs,
            blocks: self.blocks && !other.blocks,
            values: self.values && !other.values,
        }
    }

    /// Is any dimension enabled?
    pub fn any(self) -> bool {
        self.procs || self.blocks || self.values
    }

    /// Is `dim` enabled?
    pub fn has(self, dim: SymDim) -> bool {
        match dim {
            SymDim::Procs => self.procs,
            SymDim::Blocks => self.blocks,
            SymDim::Values => self.values,
        }
    }

    /// Return a copy with `dim` set to `on`.
    pub fn with(self, dim: SymDim, on: bool) -> SymDims {
        let mut d = self;
        match dim {
            SymDim::Procs => d.procs = on,
            SymDim::Blocks => d.blocks = on,
            SymDim::Values => d.values = on,
        }
        d
    }
}

/// The enabled dimensions joined by `+` (`procs+blocks+values`), or
/// `none`.
impl std::fmt::Display for SymDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = [
            (self.procs, "procs"),
            (self.blocks, "blocks"),
            (self.values, "values"),
        ]
        .into_iter()
        .filter_map(|(on, name)| on.then_some(name))
        .collect();
        if names.is_empty() {
            f.write_str("none")
        } else {
            f.write_str(&names.join("+"))
        }
    }
}

/// One of the three symmetric identity dimensions of [`SymDims`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SymDim {
    /// Processor identities.
    Procs,
    /// Memory-block identities.
    Blocks,
    /// Data values (`⊥` is a fixed point).
    Values,
}

impl SymDim {
    /// All three dimensions, in a fixed order.
    pub const ALL: [SymDim; 3] = [SymDim::Procs, SymDim::Blocks, SymDim::Values];

    /// The number of interchangeable elements of this dimension under
    /// `params`.
    pub fn count(self, params: Params) -> u8 {
        match self {
            SymDim::Procs => params.p,
            SymDim::Blocks => params.b,
            SymDim::Values => params.v,
        }
    }
}

/// A simultaneous renaming of processor, block, and value identities —
/// one element of the symmetry group `S_p × S_b × S_v` (or a subgroup of
/// it when some dimensions are disabled).
///
/// Renamings are stored 0-based over the parameter ranges of a fixed
/// [`Params`]; [`Value::BOTTOM`] is always a fixed point. Both the forward
/// and inverse maps are kept so array-reindexing traversals (which need
/// "which old index lands at new position `i`") are O(1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymPerm {
    proc: Vec<u8>,
    block: Vec<u8>,
    value: Vec<u8>,
    inv_proc: Vec<u8>,
    inv_block: Vec<u8>,
    inv_value: Vec<u8>,
}

fn invert(fwd: &[u8]) -> Vec<u8> {
    let mut inv = vec![0u8; fwd.len()];
    for (i, &j) in fwd.iter().enumerate() {
        inv[j as usize] = i as u8;
    }
    inv
}

/// All permutations of `0..n`, identity first (lexicographic order).
fn all_perms(n: u8) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut cur: Vec<u8> = (0..n).collect();
    fn rec(cur: &mut Vec<u8>, k: usize, out: &mut Vec<Vec<u8>>) {
        if k == cur.len() {
            out.push(cur.clone());
            return;
        }
        for i in k..cur.len() {
            cur.swap(k, i);
            rec(cur, k + 1, out);
            cur.swap(k, i);
        }
    }
    rec(&mut cur, 0, &mut out);
    out.sort();
    out
}

fn factorial(n: u8) -> usize {
    (1..=n as usize).product::<usize>().max(1)
}

impl SymPerm {
    /// The identity renaming for `params`.
    pub fn identity(params: Params) -> SymPerm {
        SymPerm::from_parts(
            (0..params.p).collect(),
            (0..params.b).collect(),
            (0..params.v).collect(),
        )
    }

    /// Build from 0-based forward maps; panics if any map is not a
    /// permutation of its index range.
    pub fn from_parts(proc: Vec<u8>, block: Vec<u8>, value: Vec<u8>) -> SymPerm {
        for part in [&proc, &block, &value] {
            let mut seen = vec![false; part.len()];
            for &j in part.iter() {
                assert!(
                    (j as usize) < part.len() && !seen[j as usize],
                    "not a permutation"
                );
                seen[j as usize] = true;
            }
        }
        let inv_proc = invert(&proc);
        let inv_block = invert(&block);
        let inv_value = invert(&value);
        SymPerm {
            proc,
            block,
            value,
            inv_proc,
            inv_block,
            inv_value,
        }
    }

    /// Overwrite this renaming in place from 0-based forward maps,
    /// reusing the existing allocations — the hot-loop counterpart of
    /// [`SymPerm::from_parts`] for canonicalization scratch buffers.
    ///
    /// Permutation validity is only checked under `debug_assertions`;
    /// callers produce the maps from rank arrays that are permutations by
    /// construction.
    pub fn assign_parts(&mut self, proc: &[u8], block: &[u8], value: &[u8]) {
        #[cfg(debug_assertions)]
        for part in [proc, block, value] {
            let mut seen = vec![false; part.len()];
            for &j in part {
                assert!(
                    (j as usize) < part.len() && !seen[j as usize],
                    "not a permutation"
                );
                seen[j as usize] = true;
            }
        }
        fn set(dst: &mut Vec<u8>, inv: &mut Vec<u8>, src: &[u8]) {
            dst.clear();
            dst.extend_from_slice(src);
            inv.clear();
            inv.resize(src.len(), 0);
            for (i, &j) in src.iter().enumerate() {
                inv[j as usize] = i as u8;
            }
        }
        set(&mut self.proc, &mut self.inv_proc, proc);
        set(&mut self.block, &mut self.inv_block, block);
        set(&mut self.value, &mut self.inv_value, value);
    }

    /// Overwrite one dimension of this renaming in place (see
    /// [`SymPerm::assign_parts`]).
    pub fn assign_dim(&mut self, dim: SymDim, fwd: &[u8]) {
        let (dst, inv) = match dim {
            SymDim::Procs => (&mut self.proc, &mut self.inv_proc),
            SymDim::Blocks => (&mut self.block, &mut self.inv_block),
            SymDim::Values => (&mut self.value, &mut self.inv_value),
        };
        dst.clear();
        dst.extend_from_slice(fwd);
        inv.clear();
        inv.resize(fwd.len(), 0);
        for (i, &j) in fwd.iter().enumerate() {
            debug_assert!((j as usize) < fwd.len(), "not a permutation");
            inv[j as usize] = i as u8;
        }
    }

    /// Is this the identity on every dimension?
    pub fn is_identity(&self) -> bool {
        let id = |m: &[u8]| m.iter().enumerate().all(|(i, &j)| i as u8 == j);
        id(&self.proc) && id(&self.block) && id(&self.value)
    }

    /// Rename a processor.
    pub fn proc(&self, p: ProcId) -> ProcId {
        ProcId::from_idx(self.proc[p.idx()] as usize)
    }

    /// Rename a block.
    pub fn block(&self, b: BlockId) -> BlockId {
        BlockId::from_idx(self.block[b.idx()] as usize)
    }

    /// Rename a value (`⊥` is fixed).
    pub fn value(&self, v: Value) -> Value {
        if v.is_bottom() {
            v
        } else {
            Value(self.value[(v.0 - 1) as usize] + 1)
        }
    }

    /// Rename a 0-based processor index.
    pub fn proc_idx(&self, i: usize) -> usize {
        self.proc[i] as usize
    }

    /// Rename a 0-based block index.
    pub fn block_idx(&self, i: usize) -> usize {
        self.block[i] as usize
    }

    /// Rename a 0-based value index.
    pub fn value_idx(&self, i: usize) -> usize {
        self.value[i] as usize
    }

    /// The old processor index that lands at new index `i`.
    pub fn inv_proc_idx(&self, i: usize) -> usize {
        self.inv_proc[i] as usize
    }

    /// The old block index that lands at new index `i`.
    pub fn inv_block_idx(&self, i: usize) -> usize {
        self.inv_block[i] as usize
    }

    /// Rename all identities of an operation.
    pub fn op(&self, op: Op) -> Op {
        let mut out = op;
        out.proc = self.proc(op.proc);
        out.block = self.block(op.block);
        out.value = self.value(op.value);
        out
    }

    /// Composition `self ∘ other` (apply `other` first, then `self`).
    pub fn compose(&self, other: &SymPerm) -> SymPerm {
        let comp = |f: &[u8], g: &[u8]| g.iter().map(|&i| f[i as usize]).collect::<Vec<u8>>();
        SymPerm::from_parts(
            comp(&self.proc, &other.proc),
            comp(&self.block, &other.block),
            comp(&self.value, &other.value),
        )
    }

    /// The order of the group `group(params, dims, cap)` would enumerate
    /// *before* applying the cap.
    pub fn group_order(params: Params, dims: SymDims) -> usize {
        let f = |on: bool, n: u8| if on { factorial(n) } else { 1 };
        f(dims.procs, params.p) * f(dims.blocks, params.b) * f(dims.values, params.v)
    }

    /// Shrink `dims` until the product group fits under `cap` elements.
    ///
    /// Each round drops the *enabled dimension with the smallest
    /// factorial* — the one whose loss degrades the quotient least
    /// (dropping a dimension of `n` elements forfeits an up-to-`n!`-fold
    /// state reduction). Ties break values → blocks → procs, matching the
    /// historical fixed order. The result is always a whole product of
    /// symmetric groups, i.e. a true subgroup of `S_p × S_b × S_v`, which
    /// is what makes orbit-minimum canonicalization sound.
    pub fn capped_dims(params: Params, dims: SymDims, cap: usize) -> SymDims {
        let mut dims = dims;
        while dims.any() && Self::group_order(params, dims) > cap {
            let weakest = [SymDim::Values, SymDim::Blocks, SymDim::Procs]
                .into_iter()
                .filter(|&d| dims.has(d))
                .min_by_key(|&d| factorial(d.count(params)))
                .expect("dims.any() guarantees an enabled dimension");
            dims = dims.with(weakest, false);
        }
        dims
    }

    /// Enumerate the symmetry group over the enabled dimensions, identity
    /// first.
    ///
    /// If the full product group exceeds `cap` elements, whole dimensions
    /// are dropped per [`SymPerm::capped_dims`] until it fits.
    pub fn group(params: Params, dims: SymDims, cap: usize) -> Vec<SymPerm> {
        let dims = Self::capped_dims(params, dims, cap);
        let one = |n: u8| vec![(0..n).collect::<Vec<u8>>()];
        let procs = if dims.procs {
            all_perms(params.p)
        } else {
            one(params.p)
        };
        let blocks = if dims.blocks {
            all_perms(params.b)
        } else {
            one(params.b)
        };
        let values = if dims.values {
            all_perms(params.v)
        } else {
            one(params.v)
        };
        let mut out = Vec::with_capacity(procs.len() * blocks.len() * values.len());
        for pp in &procs {
            for bb in &blocks {
                for vv in &values {
                    out.push(SymPerm::from_parts(pp.clone(), bb.clone(), vv.clone()));
                }
            }
        }
        out
    }
}

/// Reusable buffer of per-element composite sort keys for one symmetric
/// dimension, filled by a protocol's `Symmetry::sort_keys` and consumed by
/// the sort-based canonicalization fast path.
///
/// Key `i` is the sequence of `encode_state` words contributed by element
/// `i` of the dimension, in position order. Keys are stored back-to-back
/// in one arena so refilling allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct SortKeyBuf {
    words: Vec<u64>,
    starts: Vec<u32>,
}

impl SortKeyBuf {
    /// Empty buffer.
    pub fn new() -> SortKeyBuf {
        SortKeyBuf::default()
    }

    /// Drop all keys (allocations are retained).
    pub fn clear(&mut self) {
        self.words.clear();
        self.starts.clear();
    }

    /// Start the key of the next element.
    pub fn begin_key(&mut self) {
        self.starts.push(self.words.len() as u32);
    }

    /// Append one word to the key opened by the last `begin_key`.
    pub fn push(&mut self, w: u64) {
        debug_assert!(!self.starts.is_empty(), "push before begin_key");
        self.words.push(w);
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Are there no keys?
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The key of element `i`.
    pub fn key(&self, i: usize) -> &[u64] {
        let lo = self.starts[i] as usize;
        let hi = self
            .starts
            .get(i + 1)
            .map_or(self.words.len(), |&s| s as usize);
        &self.words[lo..hi]
    }
}

/// Enumerator of the *residual subgroup* left over after sort-based
/// refinement: the product of symmetric groups on the tied cells of a
/// sorted element order.
///
/// `reset(order, runs)` takes the refined arrangement (`order[rank]` = the
/// element placed at that rank) and the maximal runs of ranks whose sort
/// keys tied; `next()` then yields every arrangement obtained by permuting
/// elements *within* each tied run — `∏ len(run)!` arrangements in total,
/// the refined one (each run sorted ascending) first.
///
/// Elements of a run may further be declared interchangeable
/// ([`ResidualEnum::join`]), splitting each run into *classes*. The
/// enumerator then permutes class labels instead of element ids and
/// yields one representative per distinct label order — class members
/// fill their label's positions in ascending order — so each yielded
/// arrangement stands for the [`ResidualEnum::class_perms`] arrangements
/// that only permute elements within classes. Runs advance odometer-style
/// via the classic next-permutation step, which steps through multiset
/// permutations when labels repeat, so enumeration is allocation-free
/// after `reset`.
#[derive(Debug, Default)]
pub struct ResidualEnum {
    /// The first arrangement: `order` with each run sorted ascending.
    base: Vec<u8>,
    /// `class[rank]` = rank in `base` of the first member of the class
    /// holding `base[rank]`; classes are contiguous rank intervals.
    class: Vec<u8>,
    /// The current label order (`class` permuted within each run).
    labels: Vec<u8>,
    /// The current representative arrangement.
    cur: Vec<u8>,
    /// `rank_of[element]` = rank of the element in `base`.
    rank_of: Vec<u8>,
    /// Per-class fill cursor while building a representative.
    fill: Vec<u8>,
    runs: Vec<(u32, u32)>,
    started: bool,
    done: bool,
}

/// Advance `seg` to its next permutation in lexicographic order; returns
/// false (leaving `seg` sorted ascending, i.e. wrapped around) when `seg`
/// was the last one. Repeated values yield each distinct multiset
/// permutation once.
fn next_permutation(seg: &mut [u8]) -> bool {
    if seg.len() < 2 {
        return false;
    }
    let mut i = seg.len() - 1;
    while i > 0 && seg[i - 1] >= seg[i] {
        i -= 1;
    }
    if i == 0 {
        seg.reverse();
        return false;
    }
    let mut j = seg.len() - 1;
    while seg[j] <= seg[i - 1] {
        j -= 1;
    }
    seg.swap(i - 1, j);
    seg[i..].reverse();
    true
}

/// Write the representative arrangement of the label order `labels` into
/// `out` (whose ranks outside `runs` already hold `base`): each position
/// takes the next unused member of its class, in `base` order.
fn fill_representative(
    base: &[u8],
    runs: &[(u32, u32)],
    labels: &[u8],
    fill: &mut [u8],
    out: &mut [u8],
) {
    for &(s, l) in runs {
        let run = s as usize..(s + l) as usize;
        for r in run.clone() {
            fill[r] = r as u8;
        }
        for p in run {
            let c = labels[p] as usize;
            out[p] = base[fill[c] as usize];
            fill[c] += 1;
        }
    }
}

impl ResidualEnum {
    /// Empty enumerator; call `reset` before use.
    pub fn new() -> ResidualEnum {
        ResidualEnum::default()
    }

    /// Load a refined arrangement and its tied runs (`(start, len)` rank
    /// ranges, each of length ≥ 2). Within each run the elements are
    /// sorted ascending so the odometer starts from each run's first
    /// permutation. Every element starts in a class of its own.
    pub fn reset(&mut self, order: &[u8], runs: &[(u32, u32)]) {
        let n = order.len();
        self.base.clear();
        self.base.extend_from_slice(order);
        self.runs.clear();
        self.runs.extend_from_slice(runs);
        for &(s, l) in &self.runs {
            debug_assert!(l >= 2 && (s + l) as usize <= n);
            self.base[s as usize..(s + l) as usize].sort_unstable();
        }
        self.class.clear();
        self.class.extend(0..n as u8);
        self.labels.clone_from(&self.class);
        self.cur.clone_from(&self.base);
        self.rank_of.clear();
        self.rank_of.resize(
            self.base.iter().map(|&e| e as usize + 1).max().unwrap_or(0),
            0,
        );
        for (r, &e) in self.base.iter().enumerate() {
            self.rank_of[e as usize] = r as u8;
        }
        self.fill.clear();
        self.fill.resize(n, 0);
        self.started = false;
        self.done = false;
    }

    /// Declare the elements at ranks `rank` and `rank + 1` of the first
    /// arrangement interchangeable, merging their classes. Both ranks
    /// must lie in one run, and the enumerator must not have advanced
    /// past its first arrangement (joins keep that label order first).
    pub fn join(&mut self, rank: usize) {
        debug_assert!(
            self.runs
                .iter()
                .any(|&(s, l)| s as usize <= rank && rank + 1 < (s + l) as usize),
            "joined ranks must share a run"
        );
        debug_assert_eq!(
            self.labels, self.class,
            "join after the enumerator advanced"
        );
        let (keep, gone) = (self.class[rank], self.class[rank + 1]);
        for c in self.class.iter_mut().filter(|c| **c == gone) {
            *c = keep;
        }
        self.labels.clone_from(&self.class);
    }

    /// Total number of arrangements of the residual subgroup,
    /// `∏ len(run)!` — independent of any joins.
    pub fn count(&self) -> u64 {
        self.runs
            .iter()
            .map(|&(_, l)| (1..=l as u64).product::<u64>())
            .product()
    }

    /// How many arrangements each yielded representative stands for:
    /// `∏ |class|!` over the classes (1 when nothing was joined).
    pub fn class_perms(&self) -> u64 {
        let mut total = 1u64;
        let mut size = 0u64;
        for (r, &c) in self.class.iter().enumerate() {
            size = if r > 0 && self.class[r - 1] == c {
                size + 1
            } else {
                1
            };
            total *= size;
        }
        total
    }

    /// The class-label order of the arrangement last yielded.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// The class-label order of an arbitrary arrangement of the residual
    /// subgroup (`out[rank]` = class of the element at that rank).
    pub fn labels_of(&self, arr: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend(
            arr.iter()
                .map(|&e| self.class[self.rank_of[e as usize] as usize]),
        );
    }

    /// The representative arrangement `next()` yields for the label
    /// order `labels`.
    pub fn representative(&self, labels: &[u8], out: &mut Vec<u8>) {
        out.clone_from(&self.base);
        let mut fill = vec![0u8; self.base.len()];
        fill_representative(&self.base, &self.runs, labels, &mut fill, out);
    }

    /// The next arrangement (`slice[rank]` = element), or `None` when all
    /// distinct label orders have been yielded.
    ///
    /// Not an `Iterator`: the yielded slice borrows the enumerator's own
    /// scratch buffer (a lending iterator), which the trait cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&[u8]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.cur);
        }
        for &(s, l) in &self.runs {
            if next_permutation(&mut self.labels[s as usize..(s + l) as usize]) {
                fill_representative(
                    &self.base,
                    &self.runs,
                    &self.labels,
                    &mut self.fill,
                    &mut self.cur,
                );
                return Some(&self.cur);
            }
            // This run wrapped back to sorted order; carry into the next.
        }
        self.done = true;
        None
    }
}

/// Merge per-processor operation streams into a single trace according to an
/// interleaving choice sequence. `schedule[j]` names the processor (0-based
/// index into `streams`) whose next unconsumed operation appears at position
/// `j`. Useful for constructing traces with known serial reorderings.
pub fn interleave(streams: &[Vec<Op>], schedule: &[usize]) -> Option<Trace> {
    let mut cursors = vec![0usize; streams.len()];
    let mut out = Trace::new();
    for &s in schedule {
        let cur = cursors.get_mut(s)?;
        let op = streams.get(s)?.get(*cur)?;
        out.push(*op);
        *cur += 1;
    }
    if cursors.iter().zip(streams).all(|(c, s)| *c == s.len()) {
        Some(out)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, ProcId, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }
    fn ld(p: u8, b: u8, v: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value(v))
    }

    #[test]
    fn identity_preserves_program_order() {
        let t = Trace::from_ops([st(1, 1, 1), ld(2, 1, 1), st(1, 2, 1)]);
        let r = Reordering::identity(3);
        assert!(r.preserves_program_order(&t));
        assert_eq!(r.apply(&t), t);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_permutation_rejected() {
        let _ = Reordering::new(vec![0, 0, 2]);
    }

    #[test]
    fn inverse_is_inverse() {
        let r = Reordering::new(vec![2, 0, 3, 1]);
        let inv = r.inverse();
        for (j, &i) in r.as_slice().iter().enumerate() {
            assert_eq!(inv[i], j);
        }
    }

    #[test]
    fn figure1_sc_reordering() {
        // Figure 1 (message-passing litmus): P1: ST x=1; ST y=2.
        // P2: LD y; LD x. The outcome r2=0 (y read as ⊥), r1=1 is SC via
        // the reordering that slots P2's LD y between P1's two stores.
        let t = Trace::from_ops([
            st(1, 1, 1),                                    // P1: ST x=1
            st(1, 2, 2),                                    // P1: ST y=2
            Op::load(ProcId(2), BlockId(2), Value::BOTTOM), // P2: LD y -> ⊥
            ld(2, 1, 1),                                    // P2: LD x -> 1
        ]);
        // Reordered: ST x=1, LD y=⊥, ST y=2, LD x=1.
        let r = Reordering::new(vec![0, 2, 1, 3]);
        assert!(r.preserves_program_order(&t));
        assert!(r.apply(&t).is_serial());
        assert!(r.is_serial_reordering(&t));
        // The trace itself is not serial (LD y returns ⊥ after ST y).
        assert!(!t.is_serial());
    }

    #[test]
    fn program_order_violation_detected() {
        let t = Trace::from_ops([st(1, 1, 1), st(1, 1, 2)]);
        let r = Reordering::new(vec![1, 0]);
        assert!(!r.preserves_program_order(&t));
        assert!(!r.is_serial_reordering(&t));
    }

    #[test]
    fn interleave_round_trip() {
        let p1 = vec![st(1, 1, 1), ld(1, 1, 2)];
        let p2 = vec![st(2, 1, 2)];
        let t = interleave(&[p1, p2], &[0, 1, 0]).unwrap();
        assert_eq!(t.ops(), &[st(1, 1, 1), st(2, 1, 2), ld(1, 1, 2)]);
        assert!(t.is_serial());
    }

    #[test]
    fn sym_group_enumerates_product_of_symmetric_groups() {
        let params = Params::new(3, 2, 2);
        let g = SymPerm::group(params, SymDims::FULL, 1_000_000);
        assert_eq!(g.len(), 6 * 2 * 2);
        assert!(g[0].is_identity(), "identity comes first");
        assert_eq!(g.iter().filter(|p| p.is_identity()).count(), 1);
        // Closure under composition (it is a group).
        for a in &g {
            for b in &g {
                assert!(g.contains(&a.compose(b)));
            }
        }
    }

    #[test]
    fn sym_group_cap_drops_whole_dimensions() {
        let params = Params::new(4, 3, 3);
        // 4!·3!·3! = 864 > 200 → values and blocks tie as weakest (3! each,
        // tie-break prefers values) → drop values → 144; still > 100 →
        // drop blocks → 24.
        let g = SymPerm::group(params, SymDims::FULL, 200);
        assert_eq!(g.len(), 24 * 6);
        let g = SymPerm::group(params, SymDims::FULL, 100);
        assert_eq!(g.len(), 24);
        // Each capped result is still closed under composition.
        for a in g.iter().take(8) {
            for b in g.iter().take(8) {
                assert!(g.contains(&a.compose(b)));
            }
        }
    }

    #[test]
    fn capped_dims_drops_least_valuable_dimension_first() {
        // (p,b,v) = (2,3,3): 2!·3!·3! = 72 > 40. The weakest enabled
        // dimension is procs (2! = 2 < 3!), so the least-reduction policy
        // drops procs and keeps 3!·3! = 36 — the historical fixed
        // values→blocks order would have kept only 2!·3! = 12.
        let params = Params::new(2, 3, 3);
        let d = SymPerm::capped_dims(params, SymDims::FULL, 40);
        assert!(!d.procs && d.blocks && d.values);
        assert_eq!(SymPerm::group_order(params, d), 36);
        // Under the cap nothing is dropped; over any bound everything is.
        assert_eq!(
            SymPerm::capped_dims(params, SymDims::FULL, 72),
            SymDims::FULL
        );
        assert_eq!(
            SymPerm::capped_dims(params, SymDims::FULL, 0),
            SymDims::NONE
        );
    }

    #[test]
    fn residual_enum_yields_product_of_run_factorials() {
        // Arrangement [3,1,2,0,4] with tied runs at ranks 0..2 and 2..5
        // (lengths 2 and 3): 2!·3! = 12 distinct arrangements, each a
        // permutation within its runs only.
        let mut re = ResidualEnum::new();
        re.reset(&[3, 1, 2, 0, 4], &[(0, 2), (2, 3)]);
        assert_eq!(re.count(), 12);
        let mut seen = std::collections::HashSet::new();
        while let Some(a) = re.next() {
            assert_eq!(a.len(), 5);
            let mut r0 = [a[0], a[1]];
            let mut r1 = [a[2], a[3], a[4]];
            r0.sort_unstable();
            r1.sort_unstable();
            assert_eq!(r0, [1, 3], "run 0 permutes only its own elements");
            assert_eq!(r1, [0, 2, 4], "run 1 permutes only its own elements");
            assert!(seen.insert(a.to_vec()), "arrangement repeated");
        }
        assert_eq!(seen.len(), 12);
        // No runs → exactly the input arrangement, once.
        re.reset(&[2, 0, 1], &[]);
        assert_eq!(re.count(), 1);
        assert_eq!(re.next(), Some(&[2, 0, 1][..]));
        assert_eq!(re.next(), None);
    }

    #[test]
    fn residual_enum_joined_classes_partition_the_residual() {
        // Same residual as above (2!·3! = 12 arrangements); elements 0 and
        // 2 of the second run are declared interchangeable, so only the
        // 2!·3 = 6 distinct label orders are yielded, each standing for
        // 2! arrangements.
        let mut re = ResidualEnum::new();
        re.reset(&[3, 1, 2, 0, 4], &[(0, 2), (2, 3)]);
        assert_eq!(
            re.next(),
            Some(&[1, 3, 0, 2, 4][..]),
            "runs start ascending"
        );
        re.join(2);
        assert_eq!(re.count(), 12, "count stays the unpruned residual size");
        assert_eq!(re.class_perms(), 2);
        let mut reps = vec![vec![1u8, 3, 0, 2, 4]];
        let mut lab = Vec::new();
        let mut rep = Vec::new();
        while let Some(a) = re.next() {
            let a = a.to_vec();
            re.labels_of(&a, &mut lab);
            assert_eq!(lab, re.labels(), "labels of the yielded arrangement");
            re.representative(&lab, &mut rep);
            assert_eq!(
                rep, a,
                "yielded arrangement is its label order's representative"
            );
            reps.push(a);
        }
        assert_eq!(reps.len(), 6);
        // Every arrangement of the unpruned residual maps to exactly one
        // representative, and each representative covers class_perms().
        let mut all = ResidualEnum::new();
        all.reset(&[3, 1, 2, 0, 4], &[(0, 2), (2, 3)]);
        let mut covered = std::collections::HashMap::new();
        while let Some(a) = all.next() {
            re.labels_of(a, &mut lab);
            re.representative(&lab, &mut rep);
            assert!(reps.contains(&rep), "{a:?} maps to an unyielded {rep:?}");
            *covered.entry(rep.clone()).or_insert(0u64) += 1;
        }
        assert_eq!(covered.len(), 6);
        assert!(covered.values().all(|&c| c == re.class_perms()));
        // Joining a whole run leaves a single label order for it.
        re.reset(&[2, 0, 1], &[(0, 3)]);
        assert!(re.next().is_some());
        re.join(1);
        re.join(0);
        assert_eq!(re.class_perms(), 6);
        assert_eq!(re.next(), None);
    }

    #[test]
    fn assign_parts_matches_from_parts() {
        let mut p = SymPerm::identity(Params::new(3, 2, 2));
        p.assign_parts(&[2, 0, 1], &[1, 0], &[0, 1]);
        assert_eq!(
            p,
            SymPerm::from_parts(vec![2, 0, 1], vec![1, 0], vec![0, 1])
        );
        p.assign_dim(SymDim::Procs, &[1, 2, 0]);
        assert_eq!(
            p,
            SymPerm::from_parts(vec![1, 2, 0], vec![1, 0], vec![0, 1])
        );
        for i in 0..3 {
            assert_eq!(p.inv_proc_idx(p.proc_idx(i)), i);
        }
    }

    #[test]
    fn sort_key_buf_round_trips_keys() {
        let mut kb = SortKeyBuf::new();
        kb.begin_key();
        kb.push(7);
        kb.push(8);
        kb.begin_key();
        kb.begin_key();
        kb.push(9);
        assert_eq!(kb.len(), 3);
        assert_eq!(kb.key(0), &[7, 8]);
        assert_eq!(kb.key(1), &[] as &[u64]);
        assert_eq!(kb.key(2), &[9]);
        kb.clear();
        assert!(kb.is_empty());
    }

    #[test]
    fn sym_perm_renames_ops_and_fixes_bottom() {
        let perm = SymPerm::from_parts(vec![1, 0], vec![0, 1], vec![1, 0]);
        assert_eq!(
            perm.op(st(1, 1, 1)),
            Op::store(ProcId(2), BlockId(1), Value(2))
        );
        let bot = Op::load(ProcId(2), BlockId(2), Value::BOTTOM);
        assert_eq!(perm.op(bot).value, Value::BOTTOM);
        assert_eq!(perm.op(bot).proc, ProcId(1));
    }

    #[test]
    fn sym_perm_inverse_indexing() {
        let perm = SymPerm::from_parts(vec![2, 0, 1], vec![0], vec![0]);
        for i in 0..3 {
            assert_eq!(perm.inv_proc_idx(perm.proc_idx(i)), i);
        }
        assert!(!perm.is_identity());
        assert!(SymPerm::identity(Params::new(3, 1, 1)).is_identity());
    }

    #[test]
    fn sym_dims_intersection() {
        let d = SymDims::FULL.intersect(SymDims::PROCS);
        assert_eq!(d, SymDims::PROCS);
        assert!(d.any());
        assert!(!SymDims::NONE.any());
        assert_eq!(
            SymPerm::group_order(Params::new(3, 2, 2), SymDims::FULL),
            24
        );
    }

    #[test]
    fn interleave_rejects_bad_schedules() {
        let p1 = vec![st(1, 1, 1)];
        assert!(interleave(std::slice::from_ref(&p1), &[0, 0]).is_none()); // too many picks
        assert!(interleave(std::slice::from_ref(&p1), &[1]).is_none()); // unknown stream
        assert!(interleave(&[p1], &[]).is_none()); // stream not drained
    }
}
