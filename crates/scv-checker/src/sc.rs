//! The full sequential-consistency checker of Theorem 3.1.
//!
//! [`ScChecker`] reads an observer's descriptor stream and accepts iff the
//! stream describes an acyclic constraint graph (§3.1) for its trace — so
//! that, by Lemma 3.1, any topological order of the graph is a serial
//! reordering. It combines, in streaming form:
//!
//! * the cycle check of Lemma 3.3 — here via an incrementally maintained
//!   *reachability closure* over the retained nodes (edge contraction
//!   preserves exactly reachability, so the closure is the canonical form
//!   of the contracted active graph);
//! * constraint 2 — per-processor program order totality, via
//!   `program-edge-in/out` bits plus end-of-string source/sink counting;
//! * constraint 3 — per-block ST order totality, likewise;
//! * constraint 4 — `inheritance-edge-in` bits with label matching;
//! * constraint 5(a) — the `forced-edge-on-path-to` variable: a LD node's
//!   removal is *deferred* until its forced edge to the ST-order successor
//!   of its inheritance source is seen, a later LD of the same processor
//!   inheriting from the same ST supersedes it (the program-order-path
//!   proviso), or — the paper's contraction rule — the forced edge is
//!   inherited through a same-processor node it reaches;
//! * constraint 5(b) — each `LD(P,B,⊥)` needs a forced edge on a
//!   program-order path to the first ST in `B`'s ST order; per
//!   (processor, block) only the most recent `⊥` load is retained.
//!
//! Like the paper's checker, the forced-edge rules are enforced up to
//! *reachability*: every discharged obligation corresponds to a path from
//! the load to the store that must follow it, which is exactly what the
//! serial-reordering extraction needs. The number of retained nodes is
//! bounded by the active-ID space plus the deferred nodes (`p` per pending
//! store plus `p·b` bottom loads), so the checker is finite-state for any
//! fixed protocol parameters.

use scv_descriptor::{Descriptor, IdNum, Symbol};
use scv_graph::EdgeSet;
use scv_types::pack::{put_varint, take_bytes, take_varint};
use scv_types::{Op, OpKind, Pack, Value};
use std::cell::Cell;
use std::fmt;
use std::num::NonZeroU32;

/// A generational handle to a (possibly already finalized) node record.
/// Generations start at 1, so `Option<Handle>` takes no more room than a
/// handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Handle {
    slot: u32,
    gen: NonZeroU32,
}

impl Handle {
    /// The handle as one word, the form a [`Link`] stores.
    fn bits(self) -> u64 {
        (self.gen.get() as u64) << 32 | self.slot as u64
    }

    /// Inverse of [`Handle::bits`].
    fn from_bits(bits: u64) -> Self {
        Handle {
            slot: bits as u32,
            gen: NonZeroU32::new((bits >> 32) as u32).expect("a link names a live generation"),
        }
    }
}

/// Why the checker rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScError {
    /// Symbol index at which the rejection fired; `None` for end-of-string
    /// rejections.
    pub position: Option<usize>,
    /// The violated rule.
    pub kind: ScErrorKind,
}

/// The rule a rejected descriptor violated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScErrorKind {
    /// An edge closed a directed cycle: the graph is not acyclic.
    CycleClosed,
    /// An edge referenced an unassigned ID.
    DanglingEdge,
    /// An ID outside `1..=k+1`.
    IdOutOfRange,
    /// A node descriptor without an operation label.
    UnlabeledNode,
    /// An edge descriptor without annotations.
    UnlabeledEdge,
    /// Pathologically many simultaneously retained nodes (sanity cap).
    TooManyRetained,
    /// Constraint 2 violated (program order).
    ProgramOrder(&'static str),
    /// Constraint 3 violated (ST order).
    StOrder(&'static str),
    /// Constraint 4 violated (inheritance).
    Inheritance(&'static str),
    /// Constraint 5(a) violated: a LD's forced edge never materialized.
    ForcedUnsatisfied,
    /// Constraint 5(b) violated: a `⊥` load lacks its forced edge to the
    /// first ST of its block.
    BottomUnsatisfied,
}

impl fmt::Display for ScError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.position {
            Some(p) => write!(f, "rejected at symbol {p}: {:?}", self.kind),
            None => write!(f, "rejected at end of input: {:?}", self.kind),
        }
    }
}

impl std::error::Error for ScError {}

/// Checker verdict with diagnostics.
pub type ScVerdict = Result<(), ScError>;

/// Where a block's first-in-ST-order store stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum HeadState {
    /// Unknown so far.
    #[default]
    Unknown,
    /// Confirmed and still retained.
    Alive(Handle),
    /// Confirmed, record already finalized (⊥-load obligations against it
    /// were resolved at confirmation time).
    ConfirmedGone,
}

/// The bits of [`NodeRec::flags`], laid out exactly as the canonical
/// encoding emits them in each node's flag word.
mod flag {
    /// A program-order edge enters the node.
    pub const PO_IN: u16 = 1 << 0;
    /// A program-order edge leaves the node.
    pub const PO_OUT: u16 = 1 << 1;
    /// An ST-order edge enters the node.
    pub const STO_IN: u16 = 1 << 2;
    /// An ST-order edge leaves the node.
    pub const STO_OUT: u16 = 1 << 3;
    /// An inheritance edge enters the node.
    pub const INH_IN: u16 = 1 << 4;
    /// LD: the required forced edge has been seen (directly, or inherited
    /// through reachability per the contraction rule).
    pub const FORCED_DONE: u16 = 1 << 5;
    /// LD: the inheritance source is still active with no ST-order
    /// successor yet, so the obligation cannot be evaluated.
    pub const WAITING_SUCC: u16 = 1 << 6;
    /// A later LD of the same processor covers this node's obligation
    /// (program-order-path proviso of constraint 5).
    pub const SUPERSEDED: u16 = 1 << 7;
    /// LD: the forced-edge target exists but was finalized before the
    /// obligation was met (only supersession can save the node now).
    pub const TARGET_DEAD: u16 = 1 << 8;
    /// ST: the ST-order successor exists but was finalized.
    pub const SUCC_DEAD: u16 = 1 << 9;
    /// `⊥` LD: the block's first store was confirmed while this node was
    /// retained, and the node had no forced edge to it.
    pub const BOT_UNSAT: u16 = 1 << 10;
    /// `⊥` LD: as [`BOT_UNSAT`], but the forced edge was there. Neither
    /// bit set means the obligation is still open.
    pub const BOT_SAT: u16 = 1 << 11;
}

/// One retained node. Every variable-length list a node owns lives in
/// the checker's [`Link`] pool, so the record is fixed-size and `Copy`:
/// cloning a checker copies its slots with one `memcpy`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct NodeRec {
    gen: NonZeroU32,
    label: Op,
    /// Number of descriptor IDs currently naming this node.
    id_count: u32,
    /// The node's [`flag`] bits.
    flags: u16,
    /// Monotone birth index; only relative order among retained nodes is
    /// used (the canonical encoding ranks it away).
    birth: u64,
    /// LD: the ST-order successor of the inheritance source — the
    /// `forced-edge-on-path-to` variable of the paper. `None` with
    /// [`flag::TARGET_DEAD`] set means the successor exists but was
    /// finalized before the obligation was met.
    forced_target: Option<Handle>,
    /// ST: next node in ST order, once known (`None` with
    /// [`flag::SUCC_DEAD`] if the successor was finalized).
    sto_succ: Option<Handle>,
    /// Reachability closure, slots 0..64: bit `s` is set iff the node in
    /// slot `s` is reachable from this node in the (contracted) witness
    /// graph. Retained nodes rarely reach slot 64; the closure words for
    /// higher slots are [`List::Reach`] links.
    reach: u64,
}

impl NodeRec {
    fn has(&self, f: u16) -> bool {
        self.flags & f != 0
    }
    fn set(&mut self, f: u16) {
        self.flags |= f;
    }
    fn unset(&mut self, f: u16) {
        self.flags &= !f;
    }
    fn is_load(&self) -> bool {
        self.label.kind == OpKind::Load
    }
    fn is_store(&self) -> bool {
        self.label.kind == OpKind::Store
    }
    fn is_bottom_load(&self) -> bool {
        self.is_load() && self.label.value.is_bottom()
    }
}

/// Which of its owner's lists a [`Link`] belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum List {
    /// `⊥` LD: retained stores of the same block this node has forced
    /// edges to (pruned when a target is finalized).
    BotForced,
    /// ST: the most recent inheriting LD per processor awaiting this
    /// store's ST-order successor.
    Heirs,
    /// Targets of this node's *forced* edges (retained nodes only).
    ForcedOut,
    /// Reachability closure words beyond [`NodeRec::reach`].
    Reach,
}

/// One entry of the checker-wide list pool. The pool replaces four `Vec`s
/// per node, most of them empty: it is kept sorted by `(owner, list)`, and
/// within one list in insertion order, so each node's list is one
/// contiguous run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Link {
    /// Slot of the node that owns the list.
    owner: u32,
    list: List,
    /// [`List::Heirs`]: the heir's processor. [`List::Reach`]: the closure
    /// word's index (word `w` covers slots `64w..64w + 64`, `w ≥ 1`).
    key: u8,
    /// A target [`Handle`] ([`Handle::bits`]), or a closure word.
    val: u64,
}

impl Link {
    fn handle(&self) -> Handle {
        debug_assert!(self.list != List::Reach, "a closure word is no handle");
        Handle::from_bits(self.val)
    }
}

/// The slots whose bits are set in closure word `w` (slot `64w + bit`).
fn word_slots(w: u32, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let b = bits.trailing_zeros();
        bits &= bits - 1;
        Some(w * 64 + b)
    })
}

/// End-of-string tallies for one processor's program order or one block's
/// ST order: how many members lacked an in-edge / out-edge (saturating at
/// 2 — only 0, 1, "many" matter).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct OrderTally {
    no_in: u8,
    no_out: u8,
}

impl OrderTally {
    fn bump_in(&mut self) {
        self.no_in = (self.no_in + 1).min(2);
    }
    fn bump_out(&mut self) {
        self.no_out = (self.no_out + 1).min(2);
    }
}

/// A small map kept as a key-sorted `Vec<(K, V)>`. The checker's tallies
/// hold at most one entry per processor, block or (processor, block), and
/// its owner table one per live descriptor ID, so a binary search beats a
/// tree, iteration runs in key order exactly like the `BTreeMap` it
/// replaced (the canonical encoding depends on that order), and
/// `clone_from` — once per replayed candidate on the lazy expansion path —
/// copies into the existing allocation.
#[derive(PartialEq, Eq, Debug)]
struct SortedMap<K, V>(Vec<(K, V)>);

impl<K: Copy, V: Copy> Clone for SortedMap<K, V> {
    fn clone(&self) -> Self {
        SortedMap(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap(Vec::new())
    }
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    fn find(&self, k: K) -> Result<usize, usize> {
        self.0.binary_search_by(|(x, _)| x.cmp(&k))
    }

    fn get(&self, k: K) -> Option<&V> {
        self.find(k).ok().map(|i| &self.0[i].1)
    }

    /// The value under `k`, inserting `V::default()` first if absent.
    fn entry_or_default(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.find(k) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (k, V::default()));
                i
            }
        };
        &mut self.0[i].1
    }

    /// Set `k` to `v`, returning the previous value.
    fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(k) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, v)),
            Err(i) => {
                self.0.insert(i, (k, v));
                None
            }
        }
    }

    /// Remove `k`, returning its value.
    fn remove(&mut self, k: K) -> Option<V> {
        self.find(k).ok().map(|i| self.0.remove(i).1)
    }

    /// Entries in ascending key order.
    fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }
}

/// Per-processor program-order tallies.
type ProcTally = SortedMap<u8, OrderTally>;
/// Per-block ST-order tallies and head state.
type BlockTally = SortedMap<u8, (OrderTally, HeadState)>;

/// Work buffers of [`ScChecker::check_end`] and the canonical encoding,
/// reused across calls so neither allocates in steady state. They live in
/// a thread-local slot ([`Scratch::take`]); a [`ScratchGuard`] hands them
/// back on every exit path, including the early returns of an encoding
/// walk whose sink aborted.
#[derive(Default)]
struct Scratch {
    retained: Vec<(u64, Handle)>,
    rank_by_slot: Vec<(u32, u64)>,
    owners: Vec<(u64, u64)>,
    bf: Vec<u64>,
    heirs: Vec<(u8, u64)>,
    fo: Vec<u64>,
    reach_ranks: Vec<u64>,
    ptally: Vec<u64>,
    btally: Vec<(u64, u64)>,
    bots: Vec<(u64, u64)>,
    /// `check_end`'s working copies of the order tallies.
    end_procs: ProcTally,
    end_blocks: BlockTally,
}

thread_local! {
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

impl Scratch {
    /// Borrow this thread's buffers (fresh ones if they are already out —
    /// a nested call — or not yet made).
    fn take() -> ScratchGuard {
        ScratchGuard(Some(SCRATCH.with(Cell::take).unwrap_or_default()))
    }
}

/// Holds the thread's [`Scratch`] while a call uses it; returns it on drop.
struct ScratchGuard(Option<Box<Scratch>>);

impl std::ops::Deref for ScratchGuard {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.0.as_deref().expect("scratch held until drop")
    }
}

impl std::ops::DerefMut for ScratchGuard {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.0.as_deref_mut().expect("scratch held until drop")
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let buffers = self.0.take();
        SCRATCH.with(|c| c.set(buffers));
    }
}

/// Sanity cap on simultaneously retained nodes: a stream that never lets
/// anything finalize is rejected with [`ScErrorKind::TooManyRetained`].
const MAX_SLOTS: usize = 4096;

/// Streaming statistics, for the bandwidth experiments of §4.4.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScStats {
    /// Maximum number of retained (active + deferred) nodes.
    pub max_retained: usize,
    /// Total symbols processed.
    pub symbols: usize,
}

/// The finite-state sequential-consistency checker (Theorem 3.1).
#[derive(PartialEq, Eq, Debug)]
pub struct ScChecker {
    k: u32,
    /// The node each live descriptor ID names. Sized by the live IDs, not
    /// by `k`: most of `1..=k+1` is unowned at any time, and every product
    /// state carries this table.
    owner: SortedMap<IdNum, Handle>,
    /// Retained nodes; a new node takes the lowest empty slot.
    slots: Vec<Option<NodeRec>>,
    /// Every retained node's lists, in one sorted pool (see [`Link`]).
    links: Vec<Link>,
    next_gen: NonZeroU32,
    birth: u64,
    /// Symbols processed so far.
    position: usize,
    /// Per-processor program-order tallies.
    proc_tally: ProcTally,
    /// Per-block ST-order tallies and head state.
    block_tally: BlockTally,
    /// Most recent `⊥` load per (processor, block).
    last_bot: SortedMap<(u8, u8), Handle>,
    /// [`ScStats::max_retained`].
    max_retained: usize,
    /// The rejection, once raised (boxed: rare, and absorbing, so it costs
    /// an accepting checker one pointer).
    rejected: Option<Box<ScError>>,
}

// Manual `Clone` so `clone_from` reuses the target's allocations
// field-by-field. Lazy expansion replays candidate transitions into a
// scratch checker via `clone_from` on the model checker's hot path; the
// derived impl reallocates `slots`/`links`/`owner` and all three tallies
// per replay.
impl Clone for ScChecker {
    fn clone(&self) -> Self {
        ScChecker {
            k: self.k,
            owner: self.owner.clone(),
            slots: self.slots.clone(),
            links: self.links.clone(),
            next_gen: self.next_gen,
            birth: self.birth,
            position: self.position,
            proc_tally: self.proc_tally.clone(),
            block_tally: self.block_tally.clone(),
            last_bot: self.last_bot.clone(),
            max_retained: self.max_retained,
            rejected: self.rejected.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.k = source.k;
        self.owner.clone_from(&source.owner);
        self.slots.clone_from(&source.slots);
        self.links.clone_from(&source.links);
        self.next_gen = source.next_gen;
        self.birth = source.birth;
        self.position = source.position;
        self.proc_tally.clone_from(&source.proc_tally);
        self.block_tally.clone_from(&source.block_tally);
        self.last_bot.clone_from(&source.last_bot);
        self.max_retained = source.max_retained;
        self.rejected = source.rejected.clone();
    }
}

/// A handle that may be absent, as varints: the generation (0 for none),
/// then the slot.
fn put_handle(out: &mut Vec<u8>, h: Option<Handle>) {
    match h {
        None => out.push(0),
        Some(h) => {
            put_varint(out, h.gen.get() as u64);
            put_varint(out, h.slot as u64);
        }
    }
}

/// Inverse of [`put_handle`].
fn take_handle(bytes: &mut &[u8]) -> Option<Handle> {
    let gen = NonZeroU32::new(take_varint(bytes) as u32)?;
    Some(Handle {
        slot: take_varint(bytes) as u32,
        gen,
    })
}

/// A handle that is there.
fn take_live(bytes: &mut &[u8]) -> Handle {
    take_handle(bytes).expect("a packed handle names a node")
}

impl OrderTally {
    /// Both saturating counts (each 0, 1 or 2) in one byte.
    fn byte(self) -> u8 {
        self.no_in | self.no_out << 2
    }

    fn from_byte(b: u8) -> Self {
        OrderTally {
            no_in: b & 3,
            no_out: b >> 2,
        }
    }
}

/// A packed sorted map: its length, then each entry.
fn put_map<K: Copy, V>(
    out: &mut Vec<u8>,
    m: &SortedMap<K, V>,
    mut entry: impl FnMut(&mut Vec<u8>, K, &V),
) {
    put_varint(out, m.0.len() as u64);
    for &(k, ref v) in &m.0 {
        entry(out, k, v);
    }
}

/// Inverse of [`put_map`], into `m`'s allocation.
fn take_map<K, V>(
    bytes: &mut &[u8],
    m: &mut SortedMap<K, V>,
    mut entry: impl FnMut(&mut &[u8]) -> (K, V),
) {
    m.0.clear();
    for _ in 0..take_varint(bytes) {
        let e = entry(bytes);
        m.0.push(e);
    }
}

/// The whole checker but a rejection, which is absorbing: a rejected
/// state is a counterexample, never queued. Counts, IDs, generations,
/// slots and closure words are varints, so a record takes a few bytes per
/// retained node where the live `NodeRec` takes 48.
impl Pack for ScChecker {
    fn pack(&self, out: &mut Vec<u8>) {
        assert!(
            self.rejected.is_none(),
            "a rejected checker is never packed"
        );
        put_varint(out, self.k as u64);
        put_map(out, &self.owner, |out, id, &h| {
            put_varint(out, id as u64);
            put_handle(out, Some(h));
        });
        put_varint(out, self.slots.len() as u64);
        for slot in &self.slots {
            let Some(n) = slot else {
                out.push(0);
                continue;
            };
            put_varint(out, n.gen.get() as u64);
            n.label.pack(out);
            put_varint(out, n.id_count as u64);
            put_varint(out, n.flags as u64);
            put_varint(out, n.birth);
            put_handle(out, n.forced_target);
            put_handle(out, n.sto_succ);
            put_varint(out, n.reach);
        }
        put_varint(out, self.links.len() as u64);
        for l in &self.links {
            put_varint(out, l.owner as u64);
            out.extend_from_slice(&[l.list as u8, l.key]);
            match l.list {
                List::Reach => put_varint(out, l.val),
                _ => put_handle(out, Some(l.handle())),
            }
        }
        put_varint(out, self.next_gen.get() as u64);
        put_varint(out, self.birth);
        put_varint(out, self.position as u64);
        put_map(out, &self.proc_tally, |out, p, t| {
            out.extend_from_slice(&[p, t.byte()])
        });
        put_map(out, &self.block_tally, |out, b, &(t, head)| {
            out.extend_from_slice(&[b, t.byte()]);
            match head {
                HeadState::Unknown => out.push(0),
                HeadState::Alive(h) => {
                    out.push(1);
                    put_handle(out, Some(h));
                }
                HeadState::ConfirmedGone => out.push(2),
            }
        });
        put_map(out, &self.last_bot, |out, (p, b), &h| {
            out.extend_from_slice(&[p, b]);
            put_handle(out, Some(h));
        });
        put_varint(out, self.max_retained as u64);
    }

    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        self.k = take_varint(bytes) as u32;
        take_map(bytes, &mut self.owner, |bytes| {
            (take_varint(bytes) as IdNum, take_live(bytes))
        });
        self.slots.clear();
        for _ in 0..take_varint(bytes) {
            let Some(gen) = NonZeroU32::new(take_varint(bytes) as u32) else {
                self.slots.push(None);
                continue;
            };
            let mut label = Op::load(scv_types::ProcId(1), scv_types::BlockId(1), Value::BOTTOM);
            label.unpack_from(bytes);
            self.slots.push(Some(NodeRec {
                gen,
                label,
                id_count: take_varint(bytes) as u32,
                flags: take_varint(bytes) as u16,
                birth: take_varint(bytes),
                forced_target: take_handle(bytes),
                sto_succ: take_handle(bytes),
                reach: take_varint(bytes),
            }));
        }
        self.links.clear();
        for _ in 0..take_varint(bytes) {
            let owner = take_varint(bytes) as u32;
            let b = take_bytes(bytes, 2);
            let list = [List::BotForced, List::Heirs, List::ForcedOut, List::Reach][b[0] as usize];
            let val = match list {
                List::Reach => take_varint(bytes),
                _ => take_live(bytes).bits(),
            };
            self.links.push(Link {
                owner,
                list,
                key: b[1],
                val,
            });
        }
        self.next_gen = NonZeroU32::new(take_varint(bytes) as u32).expect("generations start at 1");
        self.birth = take_varint(bytes);
        self.position = take_varint(bytes) as usize;
        take_map(bytes, &mut self.proc_tally, |bytes| {
            let b = take_bytes(bytes, 2);
            (b[0], OrderTally::from_byte(b[1]))
        });
        take_map(bytes, &mut self.block_tally, |bytes| {
            let b = take_bytes(bytes, 3);
            let head = match b[2] {
                0 => HeadState::Unknown,
                1 => HeadState::Alive(take_live(bytes)),
                _ => HeadState::ConfirmedGone,
            };
            (b[0], (OrderTally::from_byte(b[1]), head))
        });
        take_map(bytes, &mut self.last_bot, |bytes| {
            let b = take_bytes(bytes, 2);
            ((b[0], b[1]), take_live(bytes))
        });
        self.max_retained = take_varint(bytes) as usize;
        self.rejected = None;
    }
}

impl ScChecker {
    /// A checker for *k*-graph descriptors.
    pub fn new(k: u32) -> Self {
        ScChecker {
            k,
            owner: SortedMap::default(),
            slots: Vec::new(),
            links: Vec::new(),
            next_gen: NonZeroU32::MIN,
            birth: 0,
            position: 0,
            proc_tally: SortedMap::default(),
            block_tally: SortedMap::default(),
            last_bot: SortedMap::default(),
            max_retained: 0,
            rejected: None,
        }
    }

    /// The bandwidth parameter.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Streaming statistics so far.
    pub fn stats(&self) -> ScStats {
        ScStats {
            max_retained: self.max_retained,
            symbols: self.position,
        }
    }

    /// Number of currently retained (active + deferred) nodes.
    pub fn retained_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Run the checker over a whole descriptor.
    pub fn check(d: &Descriptor) -> ScVerdict {
        let mut c = ScChecker::new(d.k);
        for s in &d.symbols {
            c.step(s)?;
        }
        c.finish()
    }

    /// Process one symbol. Once an error is returned the checker stays
    /// rejected (subsequent calls return the same error).
    pub fn step(&mut self, sym: &Symbol) -> ScVerdict {
        if let Some(e) = &self.rejected {
            return Err(ScError::clone(e));
        }
        let pos = self.position;
        self.position += 1;
        if scv_telemetry::enabled() {
            scv_telemetry::add(scv_telemetry::Metric::CheckerSymbols, 1);
            if matches!(sym, Symbol::Edge { .. }) {
                scv_telemetry::add(scv_telemetry::Metric::CheckerEdges, 1);
            }
        }
        let result = self.step_inner(sym, pos);
        if let Err(e) = &result {
            self.rejected = Some(Box::new(e.clone()));
            if scv_telemetry::recorder_enabled() {
                scv_telemetry::recorder::instant(
                    scv_telemetry::recorder::InstantKind::CheckerReject,
                    pos as u64,
                );
            }
        }
        self.max_retained = self.max_retained.max(self.retained_count());
        result
    }

    fn step_inner(&mut self, sym: &Symbol, pos: usize) -> ScVerdict {
        let reject = |kind: ScErrorKind| {
            Err(ScError {
                position: Some(pos),
                kind,
            })
        };
        // The owner table is keyed, not indexed, by ID, so this is the
        // only guard against IDs outside `1..=k+1`.
        let in_range = |id: IdNum| id >= 1 && id <= self.k + 1;
        if !in_range(sym.min_id()) || !in_range(sym.max_id()) {
            return reject(ScErrorKind::IdOutOfRange);
        }
        match *sym {
            Symbol::Node { id, label } => {
                let Some(op) = label else {
                    return reject(ScErrorKind::UnlabeledNode);
                };
                self.retire_id(id)?;
                let h = self.alloc_node(op, pos)?;
                self.owner.insert(id, h);
                self.rec_mut(h).id_count = 1;
                self.on_node_created(h, op);
                Ok(())
            }
            Symbol::AddId { of, add } => {
                if of == add {
                    return Ok(());
                }
                self.retire_id(add)?;
                if let Some(&h) = self.owner.get(of) {
                    self.owner.insert(add, h);
                    self.rec_mut(h).id_count += 1;
                }
                Ok(())
            }
            Symbol::Edge { from, to, label } => {
                let (Some(&u), Some(&v)) = (self.owner.get(from), self.owner.get(to)) else {
                    return reject(ScErrorKind::DanglingEdge);
                };
                let Some(ann) = label.filter(|a| !a.is_empty()) else {
                    return reject(ScErrorKind::UnlabeledEdge);
                };
                if u == v || self.reaches(v, u) {
                    return reject(ScErrorKind::CycleClosed);
                }
                self.add_reach(u, v);
                self.apply_annotations(u, v, ann, pos)
            }
        }
    }

    /// End of input: run the end-of-string checks of Theorem 3.1.
    pub fn finish(self) -> ScVerdict {
        self.check_end()
    }

    /// The end-of-string checks of Theorem 3.1, *without* consuming the
    /// checker — traces are prefix-closed, so callers (the model checker's
    /// prefix-closure probe in particular) may ask "would this be a valid
    /// run end?" at any point and keep streaming afterwards.
    pub fn check_end(&self) -> ScVerdict {
        if let Some(e) = &self.rejected {
            return Err(ScError::clone(e));
        }
        let reject = |kind: ScErrorKind| {
            Err(ScError {
                position: None,
                kind,
            })
        };

        // Fold retained nodes into copies of the order tallies.
        let mut scratch = Scratch::take();
        let Scratch {
            end_procs: proc_tally,
            end_blocks: block_tally,
            ..
        } = &mut *scratch;
        proc_tally.clone_from(&self.proc_tally);
        block_tally.clone_from(&self.block_tally);
        for h in self.live_handles() {
            let r = self.rec(h);
            let t = proc_tally.entry_or_default(r.label.proc.0);
            if !r.has(flag::PO_IN) {
                t.bump_in();
            }
            if !r.has(flag::PO_OUT) {
                t.bump_out();
            }
            if r.is_store() {
                let (t, head) = block_tally.entry_or_default(r.label.block.0);
                if !r.has(flag::STO_IN) {
                    t.bump_in();
                    if *head == HeadState::Unknown {
                        *head = HeadState::Alive(h);
                    }
                }
                if !r.has(flag::STO_OUT) {
                    t.bump_out();
                }
            }
        }

        // Constraints 2 / 3: exactly one source and one sink per processor
        // and per block-with-stores (cycles were rejected eagerly, so this
        // forces a single chain).
        for t in proc_tally.values() {
            if t.no_in != 1 || t.no_out != 1 {
                return reject(ScErrorKind::ProgramOrder("order is not a single chain"));
            }
        }
        for (t, _) in block_tally.values() {
            if t.no_in != 1 || t.no_out != 1 {
                return reject(ScErrorKind::StOrder("order is not a single chain"));
            }
        }

        // Constraints 4 and 5 for retained nodes.
        for h in self.live_handles() {
            let r = self.rec(h);
            if r.is_load() && !r.is_bottom_load() {
                if !r.has(flag::INH_IN) {
                    return reject(ScErrorKind::Inheritance("load never inherited a value"));
                }
                // `WAITING_SUCC` at end of string: the source never got an
                // ST-order successor (it is last in its block's validated
                // order) — vacuous. Otherwise the forced edge must have
                // been seen, or the load superseded.
                if !r.has(flag::SUPERSEDED | flag::WAITING_SUCC | flag::FORCED_DONE)
                    && (r.forced_target.is_some() || r.has(flag::TARGET_DEAD))
                {
                    return reject(ScErrorKind::ForcedUnsatisfied);
                }
            }
            if r.is_bottom_load() && !r.has(flag::SUPERSEDED) {
                let block = r.label.block.0;
                let ok = match block_tally.get(block) {
                    None => true, // no stores to the block: vacuous
                    Some((_, HeadState::Alive(head))) => {
                        self.has_link(h.slot, List::BotForced, *head)
                    }
                    Some((_, HeadState::ConfirmedGone)) => r.has(flag::BOT_SAT),
                    Some((_, HeadState::Unknown)) => {
                        unreachable!("tally passed: chain head exists")
                    }
                };
                if !ok {
                    return reject(ScErrorKind::BottomUnsatisfied);
                }
            }
        }
        Ok(())
    }

    /// A canonical encoding of the checker state, independent of absolute
    /// birth/generation counters, slot arrangement, and — through `ids` —
    /// of the arbitrary identities of auxiliary descriptor IDs. The same
    /// [`scv_descriptor::IdCanon`] must be threaded through the paired
    /// observer's encoding *first*, so the renaming is consistent across
    /// the product state. Two checkers with the same encoding accept
    /// exactly the same future symbol streams up to that renaming.
    pub fn canonical_encoding(&self, out: &mut Vec<u64>, ids: &mut scv_descriptor::IdCanon<'_>) {
        self.encode_canonical(out, ids, None);
    }

    /// Stream [`ScChecker::canonical_encoding`] (optionally renamed
    /// through `view`) into an arbitrary [`scv_descriptor::EncSink`] —
    /// e.g. an incremental lexicographic comparator that aborts the walk
    /// at the first losing word during orbit-minimum canonicalization.
    /// With a `view`, `ids` must be the same
    /// [`scv_descriptor::IdCanon`] (built with
    /// [`scv_descriptor::IdCanon::with_locs`]) already threaded through the
    /// paired observer's view encoding.
    pub fn canonical_encoding_into<S: scv_descriptor::EncSink>(
        &self,
        out: &mut S,
        ids: &mut scv_descriptor::IdCanon<'_>,
        view: Option<&scv_descriptor::SymView<'_>>,
    ) {
        self.encode_canonical(out, ids, view);
    }

    fn encode_canonical<S: scv_descriptor::EncSink>(
        &self,
        out: &mut S,
        ids: &mut scv_descriptor::IdCanon<'_>,
        view: Option<&scv_descriptor::SymView<'_>>,
    ) {
        use scv_types::{BlockId, ProcId, Value};
        // Abort the walk the moment the sink refuses a word (see
        // `EncSink::word`); partial output is discarded by the sink.
        macro_rules! emit {
            ($w:expr) => {
                if !out.word($w) {
                    return;
                }
            };
        }
        macro_rules! emit_all {
            ($ws:expr) => {
                if !out.words($ws) {
                    return;
                }
            };
        }
        // Identity renamings for labels/tallies; the sorts below restore
        // the renamed structure's emission order.
        let re_p = |p: u8| view.map_or(p, |v| v.perm.proc(ProcId(p)).0);
        let re_b = |b: u8| view.map_or(b, |v| v.perm.block(BlockId(b)).0);
        let re_v = |val: u64| match view {
            // ⊥ (0) and the discharged-load sentinel (0xFF) are fixed.
            Some(v) if val != 0 && val != 0xFF => v.perm.value(Value(val as u8)).0 as u64,
            _ => val,
        };
        // Every buffer below comes from the thread's reused scratch.
        let mut scratch = Scratch::take();
        let Scratch {
            retained,
            rank_by_slot,
            owners,
            bf,
            heirs,
            fo,
            reach_ranks,
            ptally,
            btally,
            bots,
            ..
        } = &mut *scratch;
        retained.clear();
        retained.extend(self.live_handles().map(|h| (self.rec(h).birth, h)));
        retained.sort_unstable_by_key(|&(b, _)| b);
        // Rank table indexed directly by slot: each live slot holds at
        // most one retained handle, so this replaces two hash maps on a
        // path the model checker hits per sealed candidate. The
        // generation rides along to catch tokens referencing a stale
        // handle (which the old `rank[&h]` indexing would have caught by
        // panicking).
        rank_by_slot.clear();
        rank_by_slot.resize(self.slots.len(), (0, u64::MAX));
        for (i, &(_, h)) in retained.iter().enumerate() {
            rank_by_slot[h.slot as usize] = (h.gen.get(), i as u64);
        }
        let rank_by_slot = &*rank_by_slot;
        let tok = |h: Option<Handle>| -> u64 {
            h.map_or(u64::MAX, |h| {
                let (gen, r) = rank_by_slot[h.slot as usize];
                debug_assert!(
                    r != u64::MAX && gen == h.gen.get(),
                    "token references a non-retained handle"
                );
                r
            })
        };
        emit!(retained.len() as u64);
        // Owner table keyed by canonical ID (location IDs are fixed
        // points; auxiliary IDs were renamed by the observer's encoding).
        owners.clear();
        owners.extend(
            self.owner
                .iter()
                .map(|(id, &h)| (ids.canon(id), tok(Some(h)))),
        );
        owners.sort_unstable();
        emit!(owners.len() as u64);
        for &(id, t) in owners.iter() {
            emit!(id);
            emit!(t);
        }
        for &(_, h) in retained.iter() {
            let r = self.rec(h);
            let links = self.links_of(h.slot);
            let targets = |list: List| {
                links
                    .iter()
                    .filter(move |l| l.list == list)
                    .map(|l| tok(Some(l.handle())))
            };
            // A load's value is never read again once its inheritance bit
            // is set (future inh edges are rejected on that bit before any
            // label comparison), so it is erased to a sentinel — loads
            // that already inherited differ only structurally.
            let value = if r.is_load() && !r.label.value.is_bottom() && r.has(flag::INH_IN) {
                0xFFu64
            } else {
                r.label.value.0 as u64
            };
            emit!(
                (re_p(r.label.proc.0) as u64) << 24
                    | (re_b(r.label.block.0) as u64) << 16
                    | re_v(value) << 8
                    | r.is_store() as u64
            );
            // The flag bits sit where the encoding wants them.
            emit!((r.id_count as u64) << 16 | r.flags as u64);
            emit!(tok(r.forced_target));
            emit!(tok(r.sto_succ));
            bf.clear();
            bf.extend(targets(List::BotForced));
            bf.sort_unstable();
            emit!(bf.len() as u64);
            emit_all!(bf);
            heirs.clear();
            heirs.extend(
                links
                    .iter()
                    .filter(|l| l.list == List::Heirs)
                    .map(|l| (re_p(l.key), tok(Some(l.handle())))),
            );
            heirs.sort_unstable();
            emit!(heirs.len() as u64);
            for &(p, x) in heirs.iter() {
                emit!((p as u64) << 32 | x);
            }
            fo.clear();
            fo.extend(targets(List::ForcedOut));
            fo.sort_unstable();
            emit!(fo.len() as u64);
            emit_all!(fo);
            // Reachability closure as a rank set (slots retained under any
            // generation, exactly as the old slot-keyed map behaved).
            reach_ranks.clear();
            let spill = links
                .iter()
                .filter(|l| l.list == List::Reach)
                .flat_map(|l| word_slots(l.key as u32, l.val));
            reach_ranks.extend(word_slots(0, r.reach).chain(spill).filter_map(|s| {
                let (_, rr) = rank_by_slot[s as usize];
                (rr != u64::MAX).then_some(rr)
            }));
            reach_ranks.sort_unstable();
            emit!(reach_ranks.len() as u64);
            emit_all!(reach_ranks);
        }
        // Tallies are keyed by processor/block number: rename the keys and
        // re-sort so emission order matches the renamed maps.
        ptally.clear();
        ptally.extend(
            self.proc_tally
                .iter()
                .map(|(p, t)| (re_p(p) as u64) << 16 | (t.no_in as u64) << 8 | t.no_out as u64),
        );
        ptally.sort_unstable();
        emit_all!(ptally);
        btally.clear();
        btally.extend(self.block_tally.iter().map(|(b, (t, head))| {
            (
                (re_b(b) as u64) << 16 | (t.no_in as u64) << 8 | t.no_out as u64,
                match head {
                    HeadState::Unknown => u64::MAX,
                    HeadState::ConfirmedGone => u64::MAX - 1,
                    HeadState::Alive(h) => tok(Some(*h)),
                },
            )
        }));
        btally.sort_unstable();
        for &(t, head) in btally.iter() {
            emit!(t);
            emit!(head);
        }
        bots.clear();
        bots.extend(
            self.last_bot
                .iter()
                .map(|((p, b), h)| ((re_p(p) as u64) << 8 | re_b(b) as u64, tok(Some(*h)))),
        );
        bots.sort_unstable();
        for &(k, t) in bots.iter() {
            emit!(k);
            emit!(t);
        }
        emit!(self.rejected.is_some() as u64);
    }

    // ----- node lifecycle -------------------------------------------------

    fn alloc_node(&mut self, op: Op, pos: usize) -> Result<Handle, ScError> {
        let gen = self.next_gen;
        // Wraps to 1 rather than overflowing: generations only need to
        // differ between a slot's successive occupants.
        self.next_gen = gen.checked_add(1).unwrap_or(NonZeroU32::MIN);
        let birth = self.birth;
        self.birth += 1;
        let rec = NodeRec {
            gen,
            label: op,
            id_count: 0,
            flags: 0,
            birth,
            forced_target: None,
            sto_succ: None,
            reach: 0,
        };
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(s) => {
                self.slots[s] = Some(rec);
                s as u32
            }
            None => {
                // Sanity cap against adversarial streams that never let
                // anything finalize; real observers retain O(L + pb).
                if self.slots.len() >= MAX_SLOTS {
                    return Err(ScError {
                        position: Some(pos),
                        kind: ScErrorKind::TooManyRetained,
                    });
                }
                self.slots.push(Some(rec));
                (self.slots.len() - 1) as u32
            }
        };
        Ok(Handle { slot, gen })
    }

    fn on_node_created(&mut self, h: Handle, op: Op) {
        self.proc_tally.entry_or_default(op.proc.0);
        if op.is_store() {
            self.block_tally.entry_or_default(op.block.0);
        }
        if op.is_load() && op.value.is_bottom() {
            // Supersede the previous ⊥ load of this (processor, block).
            let key = (op.proc.0, op.block.0);
            if let Some(prev) = self.last_bot.insert(key, h) {
                if self.rec_opt(prev).is_some() {
                    self.rec_mut(prev).set(flag::SUPERSEDED);
                    self.try_finalize(prev);
                }
            }
        }
    }

    /// Handles of the retained records, in slot order.
    fn live_handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.slots.iter().enumerate().filter_map(|(s, r)| {
            r.as_ref().map(|r| Handle {
                slot: s as u32,
                gen: r.gen,
            })
        })
    }

    fn rec(&self, h: Handle) -> &NodeRec {
        let r = self.slots[h.slot as usize].as_ref().expect("live handle");
        debug_assert_eq!(r.gen, h.gen, "stale handle");
        r
    }

    fn rec_mut(&mut self, h: Handle) -> &mut NodeRec {
        let r = self.slots[h.slot as usize].as_mut().expect("live handle");
        debug_assert_eq!(r.gen, h.gen, "stale handle");
        r
    }

    /// Like [`Self::rec`] but `None` for finalized handles.
    fn rec_opt(&self, h: Handle) -> Option<&NodeRec> {
        self.slots[h.slot as usize]
            .as_ref()
            .filter(|r| r.gen == h.gen)
    }

    // ----- the list pool ---------------------------------------------------

    /// Every link the node in slot `owner` holds, grouped by list.
    fn links_of(&self, owner: u32) -> &[Link] {
        let lo = self.links.partition_point(|l| l.owner < owner);
        let hi = lo + self.links[lo..].partition_point(|l| l.owner == owner);
        &self.links[lo..hi]
    }

    /// Where `owner`'s `list` sits in the pool.
    fn list_range(&self, owner: u32, list: List) -> std::ops::Range<usize> {
        let lo = self
            .links
            .partition_point(|l| (l.owner, l.list) < (owner, list));
        let hi = lo + self.links[lo..].partition_point(|l| (l.owner, l.list) == (owner, list));
        lo..hi
    }

    /// The targets in `owner`'s `list`, in insertion order.
    fn targets(&self, owner: u32, list: List) -> Vec<Handle> {
        self.links[self.list_range(owner, list)]
            .iter()
            .map(Link::handle)
            .collect()
    }

    fn has_link(&self, owner: u32, list: List, to: Handle) -> bool {
        let bits = to.bits();
        self.links[self.list_range(owner, list)]
            .iter()
            .any(|l| l.val == bits)
    }

    /// Append a link to the end of `owner`'s `list`.
    fn push_link(&mut self, owner: u32, list: List, key: u8, val: u64) {
        let at = self.list_range(owner, list).end;
        self.links.insert(
            at,
            Link {
                owner,
                list,
                key,
                val,
            },
        );
    }

    /// Drop ID `id`; if its owner lost its last ID, run the deactivation
    /// checks and possibly finalize it.
    fn retire_id(&mut self, id: IdNum) -> ScVerdict {
        let Some(h) = self.owner.remove(id) else {
            return Ok(());
        };
        let r = self.rec_mut(h);
        r.id_count -= 1;
        if r.id_count > 0 {
            return Ok(());
        }
        self.deactivate(h)
    }

    /// A node lost its last ID: per the paper, reject a non-⊥ load removed
    /// without inheritance; release waiting heirs of a store (its ST-order
    /// successor can no longer appear); then finalize unless deferred.
    fn deactivate(&mut self, h: Handle) -> ScVerdict {
        let r = *self.rec(h);
        if r.is_load() && !r.is_bottom_load() && !r.has(flag::INH_IN) {
            return Err(ScError {
                position: Some(self.position.saturating_sub(1)),
                kind: ScErrorKind::Inheritance("load removed without inheritance edge"),
            });
        }
        if r.is_store() {
            let heirs = self.list_range(h.slot, List::Heirs);
            if !heirs.is_empty() {
                let heirs: Vec<Handle> = self.links.drain(heirs).map(|l| l.handle()).collect();
                for j in heirs {
                    if self.rec_opt(j).is_some() {
                        self.rec_mut(j).unset(flag::WAITING_SUCC);
                        self.try_finalize(j);
                    }
                }
            }
        }
        self.try_finalize(h);
        Ok(())
    }

    /// Finalize `h` if it is inactive and has no pending obligations:
    /// tally its order bits, propagate its forced edges per the
    /// contraction rule, scrub references to it, and drop the record.
    fn try_finalize(&mut self, h: Handle) {
        let Some(&r) = self.rec_opt(h) else { return };
        if r.id_count > 0 {
            return;
        }
        let pending = if r.is_bottom_load() {
            !r.has(flag::SUPERSEDED | flag::BOT_SAT)
        } else if r.is_load() {
            !r.has(flag::SUPERSEDED)
                && (r.has(flag::WAITING_SUCC)
                    || ((r.forced_target.is_some() || r.has(flag::TARGET_DEAD))
                        && !r.has(flag::FORCED_DONE)))
        } else {
            false
        };
        if pending {
            return;
        }

        // Tally order bits (the "counted when removed from the active
        // graph" step of the paper's checker).
        let t = self.proc_tally.entry_or_default(r.label.proc.0);
        if !r.has(flag::PO_IN) {
            t.bump_in();
        }
        if !r.has(flag::PO_OUT) {
            t.bump_out();
        }
        if r.is_store() {
            let mut confirm_head = false;
            {
                let (t, head) = self.block_tally.entry_or_default(r.label.block.0);
                if !r.has(flag::STO_IN) {
                    t.bump_in();
                    // No future in-edge can arrive: this is the confirmed
                    // head of the block's ST order.
                    if *head == HeadState::Unknown {
                        *head = HeadState::ConfirmedGone;
                        confirm_head = true;
                    }
                }
                if !r.has(flag::STO_OUT) {
                    t.bump_out();
                }
            }
            if confirm_head {
                // Resolve the ⊥-load obligations against the head now,
                // before the record disappears.
                let block = r.label.block.0;
                let loads: Vec<Handle> = self
                    .live_handles()
                    .filter(|&x| {
                        let n = self.rec(x);
                        n.is_bottom_load() && n.label.block.0 == block
                    })
                    .collect();
                for j in loads {
                    let sat = self.has_link(j.slot, List::BotForced, h);
                    let n = self.rec_mut(j);
                    n.unset(flag::BOT_SAT | flag::BOT_UNSAT);
                    n.set(if sat { flag::BOT_SAT } else { flag::BOT_UNSAT });
                }
            }
        }

        // The paper's contraction rule, in reachability form: every
        // retained same-processor node that reaches `h` inherits `h`'s
        // forced edges.
        let forced_out = self.targets(h.slot, List::ForcedOut);
        if !forced_out.is_empty() {
            let preds: Vec<Handle> = self
                .live_handles()
                .filter(|&x| x != h && self.rec(x).label.proc == r.label.proc && self.reaches(x, h))
                .collect();
            for g in preds {
                for &j in &forced_out {
                    if self.rec_opt(j).is_some() {
                        self.note_forced(g, j);
                    }
                }
            }
        }

        // Scrub references to the dying node from the retained set, and
        // drop the dying node's own lists.
        let (word, bit) = (h.slot / 64, 1u64 << (h.slot % 64));
        for n in self.slots.iter_mut().flatten() {
            if word == 0 {
                n.reach &= !bit;
            }
            if n.sto_succ == Some(h) {
                n.sto_succ = None;
                n.set(flag::SUCC_DEAD);
            }
            if n.forced_target == Some(h) {
                n.forced_target = None;
                n.set(flag::TARGET_DEAD);
            }
        }
        let dead = h.bits();
        self.links.retain_mut(|l| {
            if l.owner == h.slot {
                return false;
            }
            if l.list != List::Reach {
                return l.val != dead;
            }
            if l.key as u32 == word {
                l.val &= !bit;
            }
            l.val != 0
        });
        self.slots[h.slot as usize] = None;
    }

    // ----- reachability ----------------------------------------------------

    /// Record the edge `u -> v` in the reachability closure: everything
    /// that reaches `u` (and `u` itself) now reaches `v` and all `v`
    /// reaches.
    fn add_reach(&mut self, u: Handle, v: Handle) {
        debug_assert!(u != v);
        let add = self.rec(v).reach | if v.slot < 64 { 1 << v.slot } else { 0 };
        if self.slots.len() <= 64 {
            // Every slot fits the inline word, so no node has a spilled
            // closure word.
            let ubit = 1u64 << u.slot;
            for (s, n) in self.slots.iter_mut().enumerate() {
                if let Some(n) = n {
                    if s as u32 == u.slot || n.reach & ubit != 0 {
                        n.reach |= add;
                    }
                }
            }
            return;
        }
        let mut spill: Vec<(u8, u64)> = self
            .links_of(v.slot)
            .iter()
            .filter(|l| l.list == List::Reach)
            .map(|l| (l.key, l.val))
            .collect();
        if v.slot >= 64 {
            spill.push(((v.slot / 64) as u8, 1 << (v.slot % 64)));
        }
        let from: Vec<Handle> = self
            .live_handles()
            .filter(|&x| x.slot == u.slot || self.reaches(x, u))
            .collect();
        for x in from {
            self.rec_mut(x).reach |= add;
            for &(key, bits) in &spill {
                let r = self.list_range(x.slot, List::Reach);
                match self.links[r].iter_mut().find(|l| l.key == key) {
                    Some(l) => l.val |= bits,
                    None => self.push_link(x.slot, List::Reach, key, bits),
                }
            }
        }
    }

    /// Is `to` reachable from `from`?
    fn reaches(&self, from: Handle, to: Handle) -> bool {
        if to.slot < 64 {
            return self.rec(from).reach & (1 << to.slot) != 0;
        }
        let (key, bit) = ((to.slot / 64) as u8, 1u64 << (to.slot % 64));
        self.links[self.list_range(from.slot, List::Reach)]
            .iter()
            .any(|l| l.key == key && l.val & bit != 0)
    }

    // ----- annotation handling ---------------------------------------------

    fn apply_annotations(&mut self, u: Handle, v: Handle, ann: EdgeSet, pos: usize) -> ScVerdict {
        let reject = |kind: ScErrorKind| {
            Err(ScError {
                position: Some(pos),
                kind,
            })
        };

        if ann.contains(EdgeSet::PO) {
            let (ru, rv) = (*self.rec(u), *self.rec(v));
            if ru.label.proc != rv.label.proc {
                return reject(ScErrorKind::ProgramOrder("edge joins different processors"));
            }
            if ru.birth >= rv.birth {
                return reject(ScErrorKind::ProgramOrder("edge contradicts trace order"));
            }
            if ru.has(flag::PO_OUT) {
                return reject(ScErrorKind::ProgramOrder("two program-order successors"));
            }
            if rv.has(flag::PO_IN) {
                return reject(ScErrorKind::ProgramOrder("two program-order predecessors"));
            }
            self.rec_mut(u).set(flag::PO_OUT);
            self.rec_mut(v).set(flag::PO_IN);
        }

        if ann.contains(EdgeSet::STO) {
            let (ru, rv) = (*self.rec(u), *self.rec(v));
            let (lu, lv) = (ru.label, rv.label);
            if !lu.is_store() || !lv.is_store() || lu.block != lv.block {
                return reject(ScErrorKind::StOrder("edge is not between STs to one block"));
            }
            if ru.has(flag::STO_OUT) {
                return reject(ScErrorKind::StOrder("two ST-order successors"));
            }
            if rv.has(flag::STO_IN) {
                return reject(ScErrorKind::StOrder("two ST-order predecessors"));
            }
            let ru = self.rec_mut(u);
            ru.set(flag::STO_OUT);
            ru.sto_succ = Some(v);
            self.rec_mut(v).set(flag::STO_IN);
            // Initialize forced-edge-on-path-to for every waiting heir.
            // The heirs stay registered: a later load inheriting from `u`
            // may still supersede them (program-order-path proviso).
            for j in self.targets(u.slot, List::Heirs) {
                if self.rec_opt(j).is_none() {
                    continue;
                }
                let already_forced = self.has_link(j.slot, List::ForcedOut, v);
                let rj = self.rec_mut(j);
                rj.forced_target = Some(v);
                rj.unset(flag::WAITING_SUCC);
                if already_forced {
                    rj.set(flag::FORCED_DONE);
                }
                self.try_finalize(j);
            }
        }

        if ann.contains(EdgeSet::INH) {
            let (ru, rv) = (*self.rec(u), *self.rec(v));
            let (lu, lv) = (ru.label, rv.label);
            if !lu.is_store() || !lv.is_load() || lv.value.is_bottom() {
                return reject(ScErrorKind::Inheritance(
                    "inheritance must run from a ST to a non-⊥ LD",
                ));
            }
            if lu.block != lv.block || lu.value != lv.value {
                return reject(ScErrorKind::Inheritance("source does not match load"));
            }
            if rv.has(flag::INH_IN) {
                return reject(ScErrorKind::Inheritance("two inheritance edges"));
            }
            self.rec_mut(v).set(flag::INH_IN);
            match ru.sto_succ {
                Some(k) => {
                    let already_forced = self.has_link(v.slot, List::ForcedOut, k);
                    let rv = self.rec_mut(v);
                    rv.forced_target = Some(k);
                    if already_forced {
                        rv.set(flag::FORCED_DONE);
                    }
                }
                None if ru.has(flag::SUCC_DEAD) => {
                    // The successor exists but was finalized: the forced
                    // edge can no longer be expressed. Only supersession
                    // can discharge this load now.
                    self.rec_mut(v).set(flag::TARGET_DEAD);
                }
                None => {
                    self.rec_mut(v).set(flag::WAITING_SUCC);
                }
            }
            // Register v as the newest heir of u for its processor,
            // superseding any previous one (whether or not the ST-order
            // successor is already known): a forced edge from the latest
            // inheritor covers earlier ones via the program-order path.
            let proc = lv.proc.0;
            let heirs = self.list_range(u.slot, List::Heirs);
            let prev = self.links[heirs.clone()]
                .iter()
                .position(|l| l.key == proc)
                .map(|i| self.links.remove(heirs.start + i).handle());
            self.push_link(u.slot, List::Heirs, proc, v.bits());
            if let Some(prev) = prev {
                if self.rec_opt(prev).is_some() && prev != v {
                    self.rec_mut(prev).set(flag::SUPERSEDED);
                    self.try_finalize(prev);
                }
            }
        }

        if ann.contains(EdgeSet::FORCED) {
            self.note_forced(u, v);
        }
        Ok(())
    }

    /// A forced edge `u -> v` exists (read from the input, or inherited
    /// through the contraction rule): discharge matching obligations on
    /// `u`.
    fn note_forced(&mut self, u: Handle, v: Handle) {
        if !self.has_link(u.slot, List::ForcedOut, v) {
            self.push_link(u.slot, List::ForcedOut, 0, v.bits());
        }
        let ru = self.rec_mut(u);
        if ru.forced_target == Some(v) {
            ru.set(flag::FORCED_DONE);
        }
        let ru = *ru;
        if ru.is_bottom_load() {
            let same_block_store = self
                .rec_opt(v)
                .is_some_and(|rv| rv.is_store() && rv.label.block == ru.label.block);
            if same_block_store && !self.has_link(u.slot, List::BotForced, v) {
                self.push_link(u.slot, List::BotForced, 0, v.bits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_descriptor::{encode, naive_descriptor};
    use scv_graph::{graph_from_serial_reordering, saturated_graph, ConstraintGraph, Witness};
    use scv_types::{BlockId, Op, ProcId, Reordering, Trace, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }
    fn ld(p: u8, b: u8, v: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value(v))
    }
    fn ldb(p: u8, b: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value::BOTTOM)
    }

    fn figure3_trace() -> Trace {
        Trace::from_ops([
            st(1, 1, 1),
            ld(2, 1, 1),
            st(1, 1, 2),
            ld(2, 1, 1),
            ld(2, 1, 2),
        ])
    }

    /// The paper's hand-written 3-bandwidth descriptor for Figure 3.
    fn figure3_descriptor() -> Descriptor {
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, ld(2, 1, 1)),
            Symbol::edge(1, 2, EdgeSet::INH),
            Symbol::node(3, st(1, 1, 2)),
            Symbol::edge(1, 3, EdgeSet::PO_STO),
            Symbol::node(4, ld(2, 1, 1)),
            Symbol::edge(1, 4, EdgeSet::INH),
            Symbol::edge(2, 4, EdgeSet::PO),
            Symbol::edge(4, 3, EdgeSet::FORCED),
            Symbol::node(1, ld(2, 1, 2)),
            Symbol::edge(3, 1, EdgeSet::INH),
            Symbol::edge(4, 1, EdgeSet::PO),
        ];
        d
    }

    #[test]
    fn accepts_figure3_descriptor() {
        assert_eq!(ScChecker::check(&figure3_descriptor()), Ok(()));
    }

    #[test]
    fn accepts_saturated_witness_graphs() {
        let t = figure3_trace();
        let r = Reordering::new(vec![0, 1, 3, 2, 4]);
        let w = Witness::from_serial_reordering(&t, &r);
        let g = saturated_graph(&t, &w);
        let d = naive_descriptor(&g);
        assert_eq!(ScChecker::check(&d), Ok(()));
        let d = encode(&g, g.bandwidth() as u32).unwrap();
        assert_eq!(ScChecker::check(&d), Ok(()));
    }

    #[test]
    fn rejects_missing_forced_edge() {
        // Figure 3's descriptor without the forced edge (4,3): node 4's
        // obligation (triple ST1, LD4, ST3) is never met.
        let mut d = figure3_descriptor();
        d.symbols
            .retain(|s| !matches!(s, Symbol::Edge { from: 4, to: 3, .. }));
        let err = ScChecker::check(&d).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::ForcedUnsatisfied);
    }

    #[test]
    fn rejects_missing_inheritance_at_recycle() {
        // A LD is recycled before any inheritance edge reaches it.
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, ld(2, 1, 1)),
            Symbol::node(2, ld(2, 1, 1)), // recycles the first LD: reject
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::Inheritance(_)));
    }

    #[test]
    fn rejects_missing_inheritance_at_end() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![Symbol::node(1, st(1, 1, 1)), Symbol::node(2, ld(2, 1, 1))];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::Inheritance(_)));
        assert_eq!(err.position, None);
    }

    #[test]
    fn rejects_value_mismatched_inheritance() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, ld(2, 1, 2)),
            Symbol::edge(1, 2, EdgeSet::INH),
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::Inheritance(_)));
    }

    #[test]
    fn rejects_double_inheritance() {
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(2, 1, 1)),
            Symbol::edge(1, 2, EdgeSet::STO),
            Symbol::node(3, ld(1, 1, 1)),
            Symbol::edge(1, 3, EdgeSet::PO_INH),
            Symbol::edge(2, 3, EdgeSet::INH),
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::Inheritance(_)));
    }

    #[test]
    fn rejects_cycle() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(2, 1, 2)),
            Symbol::edge(1, 2, EdgeSet::STO),
            Symbol::edge(2, 1, EdgeSet::FORCED),
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::CycleClosed);
        assert_eq!(err.position, Some(3));
    }

    #[test]
    fn rejects_po_out_of_trace_order() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(1, 1, 2)),
            Symbol::edge(2, 1, EdgeSet::PO), // backwards
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::ProgramOrder(_)));
    }

    #[test]
    fn rejects_missing_po_edge_at_end() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(1, 1, 2)),
            Symbol::edge(1, 2, EdgeSet::STO), // po missing
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::ProgramOrder(_)));
        assert_eq!(err.position, None);
    }

    #[test]
    fn rejects_cross_processor_po() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(2, 1, 2)),
            Symbol::edge(1, 2, EdgeSet::PO),
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::ProgramOrder(_)));
    }

    #[test]
    fn rejects_split_st_order() {
        // Three stores to one block, but only one STo edge: not a chain.
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(2, 1, 2)),
            Symbol::node(3, st(3, 1, 3)),
            Symbol::edge(1, 2, EdgeSet::STO),
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert!(matches!(err.kind, ScErrorKind::StOrder(_)));
    }

    #[test]
    fn accepts_st_order_against_trace_order() {
        // STo may contradict trace order (that is its purpose).
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(2, 1, 2)),
            Symbol::edge(2, 1, EdgeSet::STO),
        ];
        assert_eq!(ScChecker::check(&d), Ok(()));
    }

    #[test]
    fn bottom_load_requires_forced_edge_to_first_store() {
        // LD(P2,B1,⊥) then ST(P1,B1,1): without the forced edge, reject.
        let mut d = Descriptor::new(2);
        d.symbols = vec![Symbol::node(1, ldb(2, 1)), Symbol::node(2, st(1, 1, 1))];
        let err = ScChecker::check(&d).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::BottomUnsatisfied);
        // With the forced edge, accept.
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, ldb(2, 1)),
            Symbol::node(2, st(1, 1, 1)),
            Symbol::edge(1, 2, EdgeSet::FORCED),
        ];
        assert_eq!(ScChecker::check(&d), Ok(()));
    }

    #[test]
    fn bottom_load_vacuous_without_stores() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![Symbol::node(1, ldb(2, 1)), Symbol::node(2, ldb(1, 1))];
        assert_eq!(ScChecker::check(&d), Ok(()));
    }

    #[test]
    fn later_bottom_load_supersedes_earlier() {
        // Two ⊥ loads by the same processor; only the later carries the
        // forced edge (program-order-path proviso).
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, ldb(2, 1)),
            Symbol::node(2, ldb(2, 1)),
            Symbol::edge(1, 2, EdgeSet::PO),
            Symbol::node(3, st(1, 1, 1)),
            Symbol::edge(2, 3, EdgeSet::FORCED),
        ];
        assert_eq!(ScChecker::check(&d), Ok(()));
    }

    #[test]
    fn bottom_load_of_other_processor_not_superseded() {
        // ⊥ loads by different processors: each needs its own forced edge.
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, ldb(2, 1)),
            Symbol::node(2, ldb(3, 1)),
            Symbol::node(3, st(1, 1, 1)),
            Symbol::edge(2, 3, EdgeSet::FORCED),
            // P2's ⊥ load has no forced edge.
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::BottomUnsatisfied);
    }

    #[test]
    fn heir_superseded_by_later_load() {
        // Two LDs of P2 inherit from the same ST; only the later one gets
        // the forced edge once the next ST arrives — exactly Figure 3
        // without a direct forced edge from node 2.
        assert_eq!(ScChecker::check(&figure3_descriptor()), Ok(()));
    }

    #[test]
    fn unlabeled_node_rejected() {
        let mut d = Descriptor::new(1);
        d.symbols = vec![Symbol::Node { id: 1, label: None }];
        let err = ScChecker::check(&d).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::UnlabeledNode);
    }

    #[test]
    fn unlabeled_edge_rejected() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(1, 1, 2)),
            Symbol::Edge {
                from: 1,
                to: 2,
                label: None,
            },
        ];
        let err = ScChecker::check(&d).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::UnlabeledEdge);
    }

    #[test]
    fn lemma31_graphs_always_accepted() {
        // Every graph built from a serial reordering is an acyclic
        // constraint graph, so the checker must accept its descriptor.
        let traces: Vec<(Trace, Vec<usize>)> = vec![
            (figure3_trace(), vec![0, 1, 3, 2, 4]),
            (
                Trace::from_ops([ldb(1, 1), st(2, 1, 1), ld(1, 1, 1)]),
                vec![0, 1, 2],
            ),
            (
                Trace::from_ops([st(1, 1, 1), st(1, 2, 2), ldb(2, 2), ld(2, 1, 1)]),
                vec![0, 2, 1, 3],
            ),
        ];
        for (t, perm) in traces {
            let r = Reordering::new(perm);
            let g = graph_from_serial_reordering(&t, &r);
            let k = g.bandwidth() as u32;
            let d = encode(&g, k).unwrap();
            assert_eq!(ScChecker::check(&d), Ok(()), "trace {t}");
            let d = naive_descriptor(&g);
            assert_eq!(ScChecker::check(&d), Ok(()), "naive, trace {t}");
        }
    }

    #[test]
    fn retained_nodes_stay_bounded() {
        // A long alternating ST/LD workload encoded at its natural
        // bandwidth: the checker must not accumulate deferred nodes.
        let mut ops = Vec::new();
        for i in 0..200u32 {
            let v = 1 + (i % 3) as u8;
            ops.push(st(1, 1, v));
            ops.push(ld(2, 1, v));
        }
        let t = Trace::from_ops(ops);
        assert!(t.is_serial());
        let r = Reordering::identity(t.len());
        let g = graph_from_serial_reordering(&t, &r);
        let k = g.bandwidth() as u32;
        let d = encode(&g, k).unwrap();
        let mut c = ScChecker::new(d.k);
        for s in &d.symbols {
            c.step(s).unwrap();
            assert!(
                c.retained_count() <= (k as usize + 1) + 8,
                "retained blow-up"
            );
        }
        c.finish().unwrap();
    }

    /// Differential test: the streaming checker must agree with the
    /// whole-graph reference (axioms + acyclicity) on saturated witness
    /// graphs and on mutated variants.
    #[test]
    fn differential_against_whole_graph_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use scv_graph::random::{random_witnessed_trace, WorkloadConfig};
        use scv_graph::validate_constraint_graph;

        let mut rng = SmallRng::seed_from_u64(42);
        let cfg = WorkloadConfig::new(scv_types::Params::new(3, 2, 3), 40);
        let mut positives = 0;
        for _ in 0..60 {
            let wt = random_witnessed_trace(&cfg, 5, &mut rng);
            let mut g = saturated_graph(&wt.trace, &wt.witness);
            // Randomly drop one edge annotation set entirely (possible
            // violation) in a third of the cases.
            let mutate = rng.gen_range(0..3) == 0;
            if mutate {
                let edges: Vec<(usize, usize, EdgeSet)> = g.edges().collect();
                if !edges.is_empty() {
                    let victim = edges[rng.gen_range(0..edges.len())];
                    let mut g2 = ConstraintGraph::with_nodes(g.labels().to_vec());
                    for (u, v, a) in edges {
                        if (u, v) != (victim.0, victim.1) {
                            g2.add_edge(u, v, a);
                        }
                    }
                    g = g2;
                }
            }
            let reference_ok = validate_constraint_graph(&g, &wt.trace).is_ok() && g.is_acyclic();
            let k = g.bandwidth().max(1) as u32;
            let d = encode(&g, k).unwrap();
            let streaming_ok = ScChecker::check(&d).is_ok();
            assert_eq!(
                streaming_ok, reference_ok,
                "disagreement (mutated={mutate}) on trace {}",
                wt.trace
            );
            positives += reference_ok as usize;
        }
        assert!(positives >= 20, "test should exercise plenty of positives");
    }
}

#[cfg(test)]
mod closure_tests {
    use super::*;
    use scv_descriptor::IdCanon;
    use scv_types::{BlockId, ProcId, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }
    fn ld(p: u8, b: u8, v: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value(v))
    }
    fn ldb(p: u8, b: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value::BOTTOM)
    }

    #[test]
    fn check_end_is_reusable_mid_stream() {
        // Prefix-closure probing: check_end never consumes, and the
        // checker keeps working afterwards.
        let mut c = ScChecker::new(3);
        c.step(&Symbol::node(1, st(1, 1, 1))).unwrap();
        assert_eq!(c.check_end(), Ok(()));
        c.step(&Symbol::node(2, ld(2, 1, 1))).unwrap();
        // Load without inheritance: a run ending here is invalid...
        assert!(c.check_end().is_err());
        // ...but the stream can continue and become valid again.
        c.step(&Symbol::edge(1, 2, EdgeSet::INH)).unwrap();
        assert_eq!(c.check_end(), Ok(()));
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn transitive_cycle_through_recycled_node_rejected() {
        // a -> b, b -> c, recycle b's ID, then c -> a must close the
        // (contracted) cycle via the reachability closure.
        let mut c = ScChecker::new(3);
        c.step(&Symbol::node(1, st(1, 1, 1))).unwrap(); // a
        c.step(&Symbol::node(2, st(1, 1, 2))).unwrap(); // b
        c.step(&Symbol::edge(1, 2, EdgeSet::PO_STO)).unwrap();
        c.step(&Symbol::node(3, st(1, 1, 1))).unwrap(); // c
        c.step(&Symbol::edge(2, 3, EdgeSet::PO_STO)).unwrap();
        c.step(&Symbol::node(2, st(2, 1, 2))).unwrap(); // recycles b
        let err = c.step(&Symbol::edge(3, 1, EdgeSet::STO)).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::CycleClosed);
    }

    #[test]
    fn inh_after_successor_died_rejects_at_end() {
        // ST a; ST b (a's STo successor); b loses its ID and finalizes; a
        // new load then inherits from a. Its forced edge to b can no
        // longer be expressed, so without supersession the run end must
        // reject with ForcedUnsatisfied.
        let mut c = ScChecker::new(4);
        c.step(&Symbol::node(1, st(1, 1, 1))).unwrap(); // a
        c.step(&Symbol::node(2, st(1, 1, 2))).unwrap(); // b
        c.step(&Symbol::edge(1, 2, EdgeSet::PO_STO)).unwrap();
        // b's ID is recycled for an unrelated third store of another
        // block; b finalizes (it had no obligations).
        c.step(&Symbol::node(2, st(2, 2, 1))).unwrap();
        // A load inherits from a, whose successor is now gone.
        c.step(&Symbol::node(3, ld(2, 1, 1))).unwrap();
        c.step(&Symbol::edge(2, 3, EdgeSet::PO)).unwrap();
        c.step(&Symbol::edge(1, 3, EdgeSet::INH)).unwrap();
        let err = c.check_end().unwrap_err();
        assert_eq!(err.kind, ScErrorKind::ForcedUnsatisfied);
        // A later load of the same processor inheriting from a supersedes
        // it — but inherits the same impossible obligation, so the end
        // check still rejects (soundly).
        c.step(&Symbol::node(4, ld(2, 1, 1))).unwrap();
        c.step(&Symbol::edge(3, 4, EdgeSet::PO)).unwrap();
        c.step(&Symbol::edge(1, 4, EdgeSet::INH)).unwrap();
        let err = c.finish().unwrap_err();
        assert_eq!(err.kind, ScErrorKind::ForcedUnsatisfied);
    }

    #[test]
    fn bottom_load_resolved_before_head_dies() {
        // LD(P2,B1,⊥) with forced edge to the first store; the store is
        // then recycled away — the obligation must have been resolved at
        // confirmation time.
        let mut c = ScChecker::new(4);
        c.step(&Symbol::node(1, ldb(2, 1))).unwrap();
        c.step(&Symbol::node(2, st(1, 1, 1))).unwrap();
        c.step(&Symbol::edge(1, 2, EdgeSet::FORCED)).unwrap();
        c.step(&Symbol::node(3, st(1, 1, 2))).unwrap();
        c.step(&Symbol::edge(2, 3, EdgeSet::PO_STO)).unwrap();
        // Recycle the first store's ID: it finalizes and is confirmed as
        // the block head; the ⊥-load's edge was recorded.
        c.step(&Symbol::node(2, ld(1, 1, 2))).unwrap();
        c.step(&Symbol::edge(3, 2, EdgeSet::PO_INH)).unwrap();
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn bottom_load_without_edge_rejected_after_head_dies() {
        let mut c = ScChecker::new(4);
        c.step(&Symbol::node(1, ldb(2, 1))).unwrap();
        c.step(&Symbol::node(2, st(1, 1, 1))).unwrap();
        // no forced edge
        c.step(&Symbol::node(3, st(1, 1, 2))).unwrap();
        c.step(&Symbol::edge(2, 3, EdgeSet::PO_STO)).unwrap();
        c.step(&Symbol::node(2, ld(1, 1, 2))).unwrap();
        c.step(&Symbol::edge(3, 2, EdgeSet::PO_INH)).unwrap();
        let err = c.finish().unwrap_err();
        assert_eq!(err.kind, ScErrorKind::BottomUnsatisfied);
    }

    #[test]
    fn canonical_encoding_ignores_aux_identity() {
        // Two checkers whose streams differ only in which auxiliary ID
        // (above the location base 2) names the load encode identically.
        let build = |aux: IdNum| {
            let mut c = ScChecker::new(6);
            c.step(&Symbol::node(1, st(1, 1, 1))).unwrap();
            c.step(&Symbol::node(aux, ld(2, 1, 1))).unwrap();
            c.step(&Symbol::edge(1, aux, EdgeSet::INH)).unwrap();
            c
        };
        let (a, b) = (build(3), build(6));
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        a.canonical_encoding(&mut ea, &mut IdCanon::new(2));
        b.canonical_encoding(&mut eb, &mut IdCanon::new(2));
        assert_eq!(ea, eb);
    }

    #[test]
    fn canonical_encoding_erases_discharged_load_values() {
        let build = |v: u8| {
            let mut c = ScChecker::new(6);
            c.step(&Symbol::node(1, st(1, 1, v))).unwrap();
            c.step(&Symbol::node(3, ld(2, 1, v))).unwrap();
            c.step(&Symbol::edge(1, 3, EdgeSet::INH)).unwrap();
            // Recycle the store so only the (discharged-by-waiting) load
            // and nothing value-bearing remains... keep both; the load's
            // value must be erased, the store's kept.
            c
        };
        let (a, b) = (build(1), build(2));
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        a.canonical_encoding(&mut ea, &mut IdCanon::new(2));
        b.canonical_encoding(&mut eb, &mut IdCanon::new(2));
        // The store's value still distinguishes the states.
        assert_ne!(ea, eb);
    }

    #[test]
    fn id_boundaries() {
        let k = 3;
        let encoding = |c: &ScChecker| {
            let mut e = Vec::new();
            c.canonical_encoding(&mut e, &mut IdCanon::new(2));
            e
        };
        // IDs range over 1..=k+1: 0 and k+2 are rejected, not indexed.
        for bad in [
            Symbol::node(0, st(1, 1, 1)),
            Symbol::node(k + 2, st(1, 1, 1)),
            Symbol::AddId { of: 1, add: k + 2 },
            Symbol::edge(1, k + 2, EdgeSet::PO),
        ] {
            let mut c = ScChecker::new(k);
            c.step(&Symbol::node(1, st(1, 1, 1))).unwrap();
            let err = c.step(&bad).unwrap_err();
            assert_eq!(err.kind, ScErrorKind::IdOutOfRange, "{bad:?}");
        }
        // The null ID k+1 is legal: it can name a node, and copying it
        // (never owned in observer output) orphans the target ID.
        let mut c = ScChecker::new(k);
        c.step(&Symbol::node(k + 1, st(1, 1, 1))).unwrap();
        c.step(&Symbol::node(1, st(2, 1, 2))).unwrap();
        c.step(&Symbol::edge(k + 1, 1, EdgeSet::STO)).unwrap();
        let mut c = ScChecker::new(k);
        c.step(&Symbol::node(1, st(1, 1, 1))).unwrap();
        c.step(&Symbol::AddId { of: k + 1, add: 1 }).unwrap();
        c.step(&Symbol::node(2, st(1, 1, 2))).unwrap();
        let err = c.step(&Symbol::edge(1, 2, EdgeSet::PO)).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::DanglingEdge);
        // An edge on an in-range ID that names no node dangles.
        let mut c = ScChecker::new(k);
        c.step(&Symbol::node(1, st(1, 1, 1))).unwrap();
        let err = c.step(&Symbol::edge(1, 2, EdgeSet::PO)).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::DanglingEdge);
        // Copying an unowned ID onto an unowned ID changes nothing.
        let mut c = ScChecker::new(k);
        c.step(&Symbol::node(1, st(1, 1, 1))).unwrap();
        let before = encoding(&c);
        c.step(&Symbol::AddId { of: 2, add: 3 }).unwrap();
        assert_eq!(encoding(&c), before);
        assert_eq!(c.retained_count(), 1);
        let err = c.step(&Symbol::edge(1, 3, EdgeSet::PO)).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::DanglingEdge);
    }

    /// Every retained node costs one slot, and a checker is cloned once
    /// per frontier state: the record must stay within a cache line, and
    /// neither an empty slot nor an absent handle may cost a tag word.
    #[test]
    fn node_record_fits_a_cache_line() {
        use std::mem::size_of;
        assert!(size_of::<NodeRec>() <= 64, "{} B", size_of::<NodeRec>());
        assert_eq!(size_of::<Option<NodeRec>>(), size_of::<NodeRec>());
        assert_eq!(size_of::<Option<Handle>>(), size_of::<Handle>());
        assert_eq!(size_of::<Link>(), 16);
    }

    /// A chain of retained nodes through slot 64 and beyond: the closure
    /// words past the inline one live in the pool, and must still close
    /// the cycle back to slot 0 and forget a finalized node.
    #[test]
    fn reachability_spills_past_slot_64() {
        // ⊥ loads of distinct processors stay retained after losing their
        // IDs (their obligation is open until the block's first store), so
        // node `i` sits in slot `i`. ID 1 keeps naming node 0; IDs 2..=5
        // rotate through the rest.
        let mut c = ScChecker::new(4);
        c.step(&Symbol::node(1, ldb(1, 1))).unwrap();
        let id = |i: u32| 2 + (i - 1) % 4;
        let mut prev = 1;
        for i in 1..70u32 {
            c.step(&Symbol::node(id(i), ldb(i as u8 + 1, 1))).unwrap();
            c.step(&Symbol::edge(prev, id(i), EdgeSet::FORCED)).unwrap();
            prev = id(i);
        }
        assert_eq!(c.retained_count(), 70);
        assert!(c.links.iter().any(|l| l.list == List::Reach));
        // Node 69 is reached from node 0 only through spilled words.
        let mut d = c.clone();
        let err = d.step(&Symbol::edge(prev, 1, EdgeSet::FORCED)).unwrap_err();
        assert_eq!(err.kind, ScErrorKind::CycleClosed);
        // A later ⊥ load of the same processor and block supersedes each
        // node, which finalizes it and scrubs its spilled bits everywhere.
        let mut e = c.clone();
        let before = e.links.len();
        for i in 0..70u32 {
            e.step(&Symbol::node(1, ldb(i as u8 + 1, 1))).unwrap();
        }
        assert!(e.links.len() < before, "finalized nodes keep their links");
        assert!(e.links.iter().all(|l| l.list != List::Reach || l.val != 0));
    }

    /// `clone_from` copies into the target's slot and pool buffers when
    /// they are large enough, as the lazy expansion path relies on.
    #[test]
    fn clone_from_reuses_the_buffers() {
        let mut big = ScChecker::new(6);
        big.step(&Symbol::node(1, ldb(2, 1))).unwrap();
        big.step(&Symbol::node(2, st(1, 1, 1))).unwrap();
        big.step(&Symbol::edge(1, 2, EdgeSet::FORCED)).unwrap();
        big.step(&Symbol::node(3, ld(2, 1, 1))).unwrap();
        big.step(&Symbol::edge(2, 3, EdgeSet::INH)).unwrap();
        assert!(!big.links.is_empty());
        let mut small = ScChecker::new(6);
        small.step(&Symbol::node(1, st(1, 1, 1))).unwrap();
        let mut target = big.clone();
        let (slots, links) = (target.slots.as_ptr(), target.links.as_ptr());
        target.clone_from(&small);
        assert_eq!(target, small);
        target.clone_from(&big);
        assert_eq!(target, big);
        assert_eq!(target.slots.as_ptr(), slots);
        assert_eq!(target.links.as_ptr(), links);
    }

    #[test]
    fn too_many_retained_rejected_not_panicking() {
        // 70 loads, none ever discharged (no inheritance), all retained as
        // heirs... simplest blow-up: distinct processors' ⊥-loads.
        let mut c = ScChecker::new(63);
        let mut err = None;
        for i in 0..70u32 {
            let p = (i % 200 + 1) as u8;
            // ⊥-loads per (proc, block) are retained until superseded.
            if let Err(e) = c.step(&Symbol::node(1 + (i % 64), ldb(p, 1))) {
                err = Some(e);
                break;
            }
        }
        if let Some(e) = err {
            assert_eq!(e.kind, ScErrorKind::TooManyRetained);
        }
    }
}
