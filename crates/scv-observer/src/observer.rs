//! The observer construction of Theorem 4.1.

use scv_descriptor::{Descriptor, IdNum, Symbol};
use scv_graph::EdgeSet;
use scv_protocol::{Action, CopySrc, LocId, Protocol, Run, StOrderPolicy, Step};
use scv_types::pack::{put_varint, take_bytes, take_varint};
use scv_types::{Op, Pack, Params};
use std::cell::Cell;
use std::num::NonZeroU32;
use std::sync::Arc;

/// Internal node key: a creation counter starting at 1, never reused. The
/// canonical encoding ranks keys and never emits their values, so 32 bits
/// only bound the nodes one run can create; a reference to a node
/// (`Option<Key>` included) costs 4 bytes.
type Key = NonZeroU32;

/// Static configuration extracted from a protocol.
#[derive(Clone, Debug)]
pub struct ObserverConfig {
    /// Protocol parameters.
    pub params: Params,
    /// Number of storage locations `L`.
    pub locations: u32,
    /// ST order policy.
    pub policy: StOrderPolicy,
}

impl ObserverConfig {
    /// Extract the configuration from a protocol.
    pub fn from_protocol<P: Protocol>(p: &P) -> Self {
        ObserverConfig {
            params: p.params(),
            locations: p.locations(),
            policy: p.st_order_policy(),
        }
    }
}

/// Streaming statistics, for the §4.4 size experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ObserverStats {
    /// High-water mark of simultaneously used auxiliary IDs.
    pub max_aux_in_use: usize,
    /// High-water mark of live node records.
    pub max_live_nodes: usize,
    /// Total symbols emitted.
    pub symbols: usize,
}

/// The immutable part of an observer: its configuration and what is
/// derived from it. Every observer cloned from one [`Observer::new`] —
/// every state of a search — shares it through one `Arc`.
struct Shared {
    cfg: ObserverConfig,
    /// Size `A` of the auxiliary ID pool `L+1 ..= L+A`.
    aux_total: usize,
    /// The block whose serialization location each location is, indexed
    /// by `loc - 1` (serialization policy only).
    serialization_of: Box<[Option<u8>]>,
}

/// Offsets into [`Observer::refs`], laid out as
/// `[loc_owner: L | last_op: p | sto_tail: b | first_st: b | bot_anchor: p·b]`.
impl Shared {
    fn p(&self) -> usize {
        self.cfg.params.p as usize
    }

    fn b(&self) -> usize {
        self.cfg.params.b as usize
    }

    /// Owner of location `loc` (IDs `1..=L`).
    fn owner(&self, loc: LocId) -> usize {
        assert!(
            (1..=self.cfg.locations).contains(&loc),
            "location {loc} outside 1..={}",
            self.cfg.locations
        );
        (loc - 1) as usize
    }

    /// Latest operation node of processor index `pi`.
    fn last_op(&self, pi: usize) -> usize {
        self.cfg.locations as usize + pi
    }

    /// ST-order tail of block index `b`.
    fn sto_tail(&self, b: usize) -> usize {
        self.last_op(self.p()) + b
    }

    /// First store in ST order of block index `b`.
    fn first_st(&self, b: usize) -> usize {
        self.sto_tail(self.b()) + b
    }

    /// Latest pinned `⊥` load of (processor index `pi`, block index `b`).
    fn bot_anchor(&self, pi: usize, b: usize) -> usize {
        self.first_st(self.b()) + pi * self.b() + b
    }

    fn table_len(&self) -> usize {
        self.bot_anchor(self.p(), 0)
    }
}

/// Why a node must remain addressable (hold an ID) even after its value
/// left every storage location. A node is released once no reason remains.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Pins {
    /// Latest operation of its processor (program-order anchor).
    po_anchor: bool,
    /// Tail of its block's ST order (next STo edge starts here).
    sto_tail: bool,
    /// Deferred heir: awaiting the ST-order successor of `heir_of`.
    heir_of: Option<Key>,
    /// Latest `⊥` load of its (processor, block), awaiting the block's
    /// first store.
    bot_anchor: bool,
    /// First store of its block in ST order (kept forever for late `⊥`
    /// loads).
    first_st: bool,
    /// ST-order successor of the still-inheritable store `Key`.
    forced_target_of: Option<Key>,
    /// Issued but not yet serialized (serialization policy only).
    pending_serialization: bool,
}

impl Pins {
    fn any(&self) -> bool {
        self.po_anchor
            || self.sto_tail
            || self.heir_of.is_some()
            || self.bot_anchor
            || self.first_st
            || self.forced_target_of.is_some()
            || self.pending_serialization
    }
}

#[derive(Debug, Default)]
struct ObsNode {
    /// Number of storage locations currently holding this node's value
    /// (only STs ever have a positive count).
    loc_count: u32,
    /// Auxiliary ID held, if any.
    aux: Option<IdNum>,
    pins: Pins,
    /// ST-order successor, once known.
    sto_succ: Option<Key>,
    /// Deferred heirs: latest inheriting LD per processor, awaiting this
    /// store's ST-order successor.
    heirs: Vec<(u8, Key)>,
}

// Manual `Clone` so `clone_from` reuses the heir list's allocation when
// the lazy expansion path replays candidates into a scratch observer.
impl Clone for ObsNode {
    fn clone(&self) -> Self {
        ObsNode {
            loc_count: self.loc_count,
            aux: self.aux,
            pins: self.pins.clone(),
            sto_succ: self.sto_succ,
            heirs: self.heirs.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.loc_count = source.loc_count;
        self.aux = source.aux;
        self.pins = source.pins.clone();
        self.sto_succ = source.sto_succ;
        self.heirs.clone_from(&source.heirs);
    }
}

/// The live node store, sorted by key. Keys are allocated monotonically,
/// so insertion is a push; lookup is a binary search over the handful of
/// live nodes, which beats hashing at these sizes. Unlike a `HashMap`,
/// `clone_from` can reuse every node's allocations — the lazy expansion
/// path clones the observer into scratch once per candidate transition —
/// and the canonical encoding walks the entries already in key order.
#[derive(Debug, Default)]
struct NodeMap(Vec<(Key, ObsNode)>);

impl Clone for NodeMap {
    fn clone(&self) -> Self {
        NodeMap(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        let keep = self.0.len().min(source.0.len());
        self.0.truncate(source.0.len());
        for (dst, src) in self.0.iter_mut().zip(&source.0[..keep]) {
            dst.0 = src.0;
            dst.1.clone_from(&src.1);
        }
        self.0.extend(source.0[keep..].iter().cloned());
    }
}

impl NodeMap {
    fn len(&self) -> usize {
        self.0.len()
    }

    /// The live `(key, node)` entries in ascending key order.
    fn entries(&self) -> &[(Key, ObsNode)] {
        &self.0
    }

    fn idx(&self, key: Key) -> Result<usize, usize> {
        self.0.binary_search_by_key(&key, |e| e.0)
    }

    fn contains_key(&self, key: &Key) -> bool {
        self.idx(*key).is_ok()
    }

    fn get(&self, key: &Key) -> Option<&ObsNode> {
        self.idx(*key).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, key: &Key) -> Option<&mut ObsNode> {
        self.idx(*key).ok().map(|i| &mut self.0[i].1)
    }

    fn insert(&mut self, key: Key, node: ObsNode) {
        match self.idx(key) {
            Ok(i) => self.0[i].1 = node,
            Err(i) => self.0.insert(i, (key, node)),
        }
    }

    fn remove(&mut self, key: &Key) -> Option<ObsNode> {
        self.idx(*key).ok().map(|i| self.0.remove(i).1)
    }
}

/// Work buffers of a step's edge queue and of the canonical encoding,
/// reused across calls and observers through a thread-local slot: neither
/// allocates in steady state, and no observer state carries their spare
/// capacity.
#[derive(Default)]
struct Scratch {
    edges: Vec<((Key, Key), EdgeSet)>,
    dead: Vec<(Key, u64)>,
    heirs: Vec<(u8, u64)>,
}

thread_local! {
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// Run `f` with this thread's [`Scratch`] (fresh buffers if they are
/// already out — a nested call — or not yet made).
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.with(Cell::take).unwrap_or_default();
    let r = f(&mut scratch);
    SCRATCH.with(|c| c.set(Some(scratch)));
    r
}

/// The automatically generated witness observer.
pub struct Observer {
    sh: Arc<Shared>,
    /// Every fixed-size node reference in one allocation; see the offset
    /// helpers on [`Shared`] for the layout.
    refs: Box<[Option<Key>]>,
    /// The auxiliary pool `L+1 ..= L+A` is handed out lowest-first: IDs
    /// below `aux_next` have been used, those at or above it never were.
    aux_next: IdNum,
    /// Used auxiliary IDs released since, reissued last-released first.
    aux_released: Vec<IdNum>,
    /// Live node records.
    nodes: NodeMap,
    next_key: Key,
    /// Issued but unserialized stores with their block index, in trace
    /// order (serialization policy only).
    pending: Vec<(u8, Key)>,
    stats: ObserverStats,
    /// Per-step edge accumulation (merged annotations): the thread's
    /// [`Scratch::edges`] while a step runs, empty between steps.
    edges: Vec<((Key, Key), EdgeSet)>,
}

// Manual `Clone` so `clone_from` reuses the target's allocations
// field-by-field. The lazy expansion path replays every candidate
// transition into a scratch observer via `clone_from`; the derived impl
// would drop and reallocate every vector on each replay.
impl Clone for Observer {
    fn clone(&self) -> Self {
        Observer {
            sh: Arc::clone(&self.sh),
            refs: self.refs.clone(),
            aux_next: self.aux_next,
            aux_released: self.aux_released.clone(),
            nodes: self.nodes.clone(),
            next_key: self.next_key,
            pending: self.pending.clone(),
            stats: self.stats,
            edges: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Replays within one search share the config: skip the refcount
        // traffic on its cache line.
        if !Arc::ptr_eq(&self.sh, &source.sh) {
            self.sh = Arc::clone(&source.sh);
        }
        self.refs.clone_from(&source.refs);
        self.aux_next = source.aux_next;
        self.aux_released.clone_from(&source.aux_released);
        self.nodes.clone_from(&source.nodes);
        self.next_key = source.next_key;
        self.pending.clone_from(&source.pending);
        self.stats = source.stats;
    }
}

/// A node reference as a varint: the key, or 0 for none.
fn put_key(out: &mut Vec<u8>, key: Option<Key>) {
    put_varint(out, key.map_or(0, |k| k.get() as u64));
}

/// Inverse of [`put_key`].
fn take_key(bytes: &mut &[u8]) -> Option<Key> {
    Key::new(take_varint(bytes) as u32)
}

/// A list of `(index byte, node)` pairs: its length, then each pair.
fn put_pairs(out: &mut Vec<u8>, pairs: &[(u8, Key)]) {
    put_varint(out, pairs.len() as u64);
    for &(i, k) in pairs {
        out.push(i);
        put_key(out, Some(k));
    }
}

/// Inverse of [`put_pairs`], into `pairs`' allocation.
fn take_pairs(bytes: &mut &[u8], pairs: &mut Vec<(u8, Key)>) {
    pairs.clear();
    for _ in 0..take_varint(bytes) {
        let i = take_bytes(bytes, 1)[0];
        pairs.push((i, take_key(bytes).expect("a packed pair names a node")));
    }
}

impl Pins {
    /// The five flags as one byte.
    fn bits(&self) -> u8 {
        self.po_anchor as u8
            | (self.sto_tail as u8) << 1
            | (self.bot_anchor as u8) << 2
            | (self.first_st as u8) << 3
            | (self.pending_serialization as u8) << 4
    }
}

/// Everything but the shared configuration, which a record leaves out:
/// unpack into an observer built from the same [`ObserverConfig`] (the
/// search's initial state). Keys, IDs and counts are varints; the
/// location-owner and anchor table is one varint per entry, most of them
/// a single zero byte for "none".
impl Pack for Observer {
    fn pack(&self, out: &mut Vec<u8>) {
        debug_assert!(self.edges.is_empty(), "packed mid-step");
        for &r in self.refs.iter() {
            put_key(out, r);
        }
        put_varint(out, self.aux_next as u64);
        self.aux_released.pack(out);
        put_varint(out, self.nodes.len() as u64);
        for (key, n) in self.nodes.entries() {
            put_key(out, Some(*key));
            put_varint(out, n.loc_count as u64);
            put_varint(out, n.aux.map_or(0, |a| a as u64 + 1));
            out.push(n.pins.bits());
            put_key(out, n.pins.heir_of);
            put_key(out, n.pins.forced_target_of);
            put_key(out, n.sto_succ);
            put_pairs(out, &n.heirs);
        }
        put_key(out, Some(self.next_key));
        put_pairs(out, &self.pending);
        put_varint(out, self.stats.max_aux_in_use as u64);
        put_varint(out, self.stats.max_live_nodes as u64);
        put_varint(out, self.stats.symbols as u64);
    }

    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        for r in self.refs.iter_mut() {
            *r = take_key(bytes);
        }
        self.aux_next = take_varint(bytes) as IdNum;
        self.aux_released.unpack_from(bytes);
        let n = take_varint(bytes) as usize;
        let nodes = &mut self.nodes.0;
        nodes.truncate(n);
        nodes.resize_with(n, || (Key::MIN, ObsNode::default()));
        for (key, node) in nodes.iter_mut() {
            *key = take_key(bytes).expect("a packed node has a key");
            node.loc_count = take_varint(bytes) as u32;
            node.aux = (take_varint(bytes) as IdNum).checked_sub(1);
            let bits = take_bytes(bytes, 1)[0];
            node.pins = Pins {
                po_anchor: bits & 1 != 0,
                sto_tail: bits & 2 != 0,
                heir_of: take_key(bytes),
                bot_anchor: bits & 4 != 0,
                first_st: bits & 8 != 0,
                forced_target_of: take_key(bytes),
                pending_serialization: bits & 16 != 0,
            };
            node.sto_succ = take_key(bytes);
            take_pairs(bytes, &mut node.heirs);
        }
        self.next_key = take_key(bytes).expect("a packed observer has a next key");
        take_pairs(bytes, &mut self.pending);
        self.stats = ObserverStats {
            max_aux_in_use: take_varint(bytes) as usize,
            max_live_nodes: take_varint(bytes) as usize,
            symbols: take_varint(bytes) as usize,
        };
    }
}

impl Observer {
    /// Build an observer for the given configuration.
    pub fn new(cfg: ObserverConfig) -> Self {
        let l = cfg.locations as usize;
        let p = cfg.params.p as usize;
        let b = cfg.params.b as usize;
        // Auxiliary pool, sized for the worst case of the pin analysis in
        // Theorem 4.1 (program-order anchors + ST tails + heirs + ⊥
        // anchors + first/forced-target stores), with slack.
        let aux_total = p + b + p * (b + l) + p * b + 2 * b + l + 8;
        let mut serialization_of = vec![None; l].into_boxed_slice();
        if let StOrderPolicy::Serialization { locs } = &cfg.policy {
            for (bi, &loc) in locs.iter().enumerate() {
                serialization_of[(loc - 1) as usize] = Some(bi as u8);
            }
        }
        let sh = Shared {
            cfg,
            aux_total,
            serialization_of,
        };
        Observer {
            refs: vec![None; sh.table_len()].into_boxed_slice(),
            aux_next: l as IdNum + 1,
            aux_released: Vec::new(),
            nodes: NodeMap::default(),
            next_key: Key::MIN,
            pending: Vec::new(),
            stats: ObserverStats::default(),
            edges: Vec::new(),
            sh: Arc::new(sh),
        }
    }

    /// The bandwidth parameter of the emitted descriptor: IDs range over
    /// `1..=k+1`, with `1..=L` the locations, then the auxiliary pool,
    /// then one reserved never-owned "null" ID used to orphan IDs.
    pub fn k(&self) -> u32 {
        self.sh.cfg.locations + self.sh.aux_total as u32
    }

    /// The reserved never-owned ID (`k+1`).
    fn null_id(&self) -> IdNum {
        self.k() + 1
    }

    /// The number of storage locations `L` (IDs `1..=L` are locations).
    pub fn location_count(&self) -> u32 {
        self.sh.cfg.locations
    }

    /// Streaming statistics.
    pub fn stats(&self) -> ObserverStats {
        self.stats
    }

    /// The location-owner section of [`Observer::refs`].
    fn loc_owner(&self) -> &[Option<Key>] {
        &self.refs[..self.sh.cfg.locations as usize]
    }

    /// Run `f` with the thread's edge queue installed as `self.edges`;
    /// every handler flushes it, so it goes back empty.
    fn with_edge_queue(&mut self, f: impl FnOnce(&mut Self)) {
        with_scratch(|s| {
            std::mem::swap(&mut self.edges, &mut s.edges);
            f(self);
            debug_assert!(self.edges.is_empty(), "unflushed edges");
            std::mem::swap(&mut self.edges, &mut s.edges);
        });
    }

    /// Observe one protocol step, appending descriptor symbols to `out`.
    pub fn step(&mut self, step: &Step, out: &mut Vec<Symbol>) {
        let _t = scv_telemetry::timer_sampled(scv_telemetry::Phase::ObserverStep);
        let before = out.len();
        self.with_edge_queue(|obs| match step.action {
            Action::Mem(op) if op.is_store() => obs.on_store(op, step, out),
            Action::Mem(op) => obs.on_load(op, step, out),
            Action::Internal(..) => obs.on_internal(step, out),
        });
        if scv_telemetry::enabled() {
            scv_telemetry::add(scv_telemetry::Metric::ObserverSteps, 1);
            scv_telemetry::add(
                scv_telemetry::Metric::ObserverSymbols,
                (out.len() - before) as u64,
            );
        }
        self.stats.symbols += out.len() - before;
        self.stats.max_live_nodes = self.stats.max_live_nodes.max(self.nodes.len());
        self.stats.max_aux_in_use = self.stats.max_aux_in_use.max(self.aux_in_use());
    }

    /// Are there stores still awaiting serialization (so that
    /// [`Observer::finish`] would emit trailing symbols)?
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// End of run: serialize any still-pending stores (emitting their ST
    /// order edges and the forced edges of their waiting heirs).
    pub fn finish(&mut self, out: &mut Vec<Symbol>) {
        let before = out.len();
        self.with_edge_queue(|obs| {
            for b in 0..obs.sh.b() {
                // This block's pending stores, in trace order.
                let mut i = 0;
                while i < obs.pending.len() {
                    if obs.pending[i].0 as usize != b {
                        i += 1;
                        continue;
                    }
                    let key = obs.pending.remove(i).1;
                    if let Some(n) = obs.nodes.get_mut(&key) {
                        n.pins.pending_serialization = false;
                        obs.serialize_store(b, key);
                    }
                }
                obs.flush_edges(out);
            }
        });
        scv_telemetry::add(
            scv_telemetry::Metric::ObserverSymbols,
            (out.len() - before) as u64,
        );
        self.stats.symbols += out.len() - before;
    }

    /// Observe a whole run, returning the descriptor.
    pub fn observe_run<P: Protocol>(protocol: &P, run: &Run) -> Descriptor {
        let mut obs = Observer::new(ObserverConfig::from_protocol(protocol));
        let mut d = Descriptor::new(obs.k());
        for s in &run.steps {
            obs.step(s, &mut d.symbols);
        }
        obs.finish(&mut d.symbols);
        d
    }

    // ----- event handlers ---------------------------------------------------

    fn on_store(&mut self, op: Op, step: &Step, out: &mut Vec<Symbol>) {
        let loc = step.tracking.loc.expect("ST carries a location label");
        // The overwritten occupant of `loc` may need rescuing first.
        self.rescue_if_needed(loc, out);
        let key = self.new_node();
        self.nodes.get_mut(&key).expect("live").loc_count = 1;
        let old = self.refs[self.sh.owner(loc)].replace(key);
        out.push(Symbol::node(loc, op));
        self.drop_loc_ref(old);

        self.take_po_anchor(key, op.proc.idx());
        let b = op.block.idx();
        match self.sh.cfg.policy {
            StOrderPolicy::RealTime => self.serialize_store(b, key),
            StOrderPolicy::Serialization { .. } => {
                self.nodes
                    .get_mut(&key)
                    .expect("live")
                    .pins
                    .pending_serialization = true;
                self.pending.push((b as u8, key));
            }
        }
        self.flush_edges(out);
        self.gc(key);
    }

    fn on_load(&mut self, op: Op, step: &Step, out: &mut Vec<Symbol>) {
        let loc = step.tracking.loc.expect("LD carries a location label");
        let src = self.refs[self.sh.owner(loc)];
        let key = self.new_node();
        // A LD node holds no storage location; give it an auxiliary ID.
        let aux = self.grab_aux();
        self.nodes.get_mut(&key).expect("live").aux = Some(aux);
        out.push(Symbol::node(aux, op));

        self.take_po_anchor(key, op.proc.idx());

        match src {
            Some(st) if !op.value.is_bottom() => {
                self.queue_edge(st, key, EdgeSet::INH);
                let succ = self.nodes.get(&st).and_then(|n| n.sto_succ);
                match succ {
                    Some(k) => self.queue_edge(key, k, EdgeSet::FORCED),
                    None => {
                        // Pin as the latest heir of (processor, st).
                        let proc = op.proc.0;
                        let prev = {
                            let n = self.nodes.get_mut(&st).expect("inheritable store is live");
                            let prev = n
                                .heirs
                                .iter()
                                .position(|(p, _)| *p == proc)
                                .map(|i| n.heirs.remove(i).1);
                            n.heirs.push((proc, key));
                            prev
                        };
                        self.nodes.get_mut(&key).expect("live").pins.heir_of = Some(st);
                        if let Some(prev) = prev {
                            if let Some(n) = self.nodes.get_mut(&prev) {
                                n.pins.heir_of = None;
                            }
                            self.gc(prev);
                        }
                    }
                }
            }
            _ => {
                // ⊥ load (or a value-less location, which the checker will
                // flag): constraint 5(b) handling.
                let b = op.block.idx();
                match self.refs[self.sh.first_st(b)] {
                    Some(first) => self.queue_edge(key, first, EdgeSet::FORCED),
                    None => {
                        let slot = self.sh.bot_anchor(op.proc.idx(), b);
                        let prev = self.refs[slot].replace(key);
                        self.nodes.get_mut(&key).expect("live").pins.bot_anchor = true;
                        if let Some(prev) = prev {
                            if let Some(n) = self.nodes.get_mut(&prev) {
                                n.pins.bot_anchor = false;
                            }
                            self.gc(prev);
                        }
                    }
                }
            }
        }
        self.flush_edges(out);
        self.gc(key);
    }

    fn on_internal(&mut self, step: &Step, out: &mut Vec<Symbol>) {
        for &(dst, src) in &step.tracking.copies {
            match src {
                CopySrc::Loc(srcl) if srcl != dst => {
                    self.rescue_if_needed(dst, out);
                    let d = self.sh.owner(dst);
                    let old = self.refs[d].take();
                    let gainer = self.refs[self.sh.owner(srcl)];
                    self.refs[d] = gainer;
                    out.push(Symbol::AddId { of: srcl, add: dst });
                    if let Some(g) = gainer {
                        self.nodes.get_mut(&g).expect("owner is live").loc_count += 1;
                    }
                    self.drop_loc_ref(old);
                    // Serialization events: a copy into a block's
                    // serialization location serializes the source store.
                    if let (Some(b), Some(g)) = (self.sh.serialization_of[d], gainer) {
                        let pending = self
                            .nodes
                            .get(&g)
                            .is_some_and(|n| n.pins.pending_serialization);
                        if pending {
                            self.pending.retain(|&(_, k)| k != g);
                            self.nodes
                                .get_mut(&g)
                                .expect("live")
                                .pins
                                .pending_serialization = false;
                            self.serialize_store(b as usize, g);
                        }
                    }
                }
                CopySrc::Loc(_) => {} // c_l(t) = l: unchanged
                CopySrc::Invalid => {
                    self.rescue_if_needed(dst, out);
                    let old = self.refs[self.sh.owner(dst)].take();
                    if old.is_some() {
                        out.push(Symbol::AddId {
                            of: self.null_id(),
                            add: dst,
                        });
                    }
                    self.drop_loc_ref(old);
                }
            }
            self.flush_edges(out);
        }
    }

    // ----- ST order / forced machinery --------------------------------------

    /// `node` becomes the next store of block `b` in ST order.
    fn serialize_store(&mut self, b: usize, node: Key) {
        match self.refs[self.sh.sto_tail(b)] {
            Some(tail) => {
                self.queue_edge(tail, node, EdgeSet::STO);
                // Forced edges for the tail's waiting heirs; they unpin.
                let heirs =
                    std::mem::take(&mut self.nodes.get_mut(&tail).expect("tail is live").heirs);
                for (_, j) in heirs {
                    if self.nodes.contains_key(&j) {
                        self.queue_edge(j, node, EdgeSet::FORCED);
                        self.nodes.get_mut(&j).expect("live").pins.heir_of = None;
                        self.gc(j);
                    }
                }
                self.nodes.get_mut(&tail).expect("live").sto_succ = Some(node);
                // Future loads may still inherit from the tail while its
                // value sits in some location: keep the successor
                // addressable for their forced edges.
                if self.nodes.get(&tail).expect("live").loc_count > 0 {
                    self.nodes
                        .get_mut(&node)
                        .expect("live")
                        .pins
                        .forced_target_of = Some(tail);
                }
                self.nodes.get_mut(&tail).expect("live").pins.sto_tail = false;
                self.gc(tail);
            }
            None => {
                // First store of the block in ST order: discharge the ⊥
                // anchors and stay pinned forever for late ⊥ loads.
                self.refs[self.sh.first_st(b)] = Some(node);
                self.nodes.get_mut(&node).expect("live").pins.first_st = true;
                for p in 0..self.sh.p() {
                    if let Some(j) = self.refs[self.sh.bot_anchor(p, b)].take() {
                        if self.nodes.contains_key(&j) {
                            self.queue_edge(j, node, EdgeSet::FORCED);
                            self.nodes.get_mut(&j).expect("live").pins.bot_anchor = false;
                            self.gc(j);
                        }
                    }
                }
            }
        }
        self.refs[self.sh.sto_tail(b)] = Some(node);
        self.nodes.get_mut(&node).expect("live").pins.sto_tail = true;
    }

    // ----- plumbing ----------------------------------------------------------

    fn new_node(&mut self) -> Key {
        let key = self.next_key;
        self.next_key = key
            .checked_add(1)
            .expect("observer node keys exhausted: 2^32 - 1 nodes created on one run");
        self.nodes.insert(key, ObsNode::default());
        key
    }

    /// Make `key` the program-order anchor of processor index `pi`,
    /// emitting the po edge from the previous anchor.
    fn take_po_anchor(&mut self, key: Key, pi: usize) {
        if let Some(prev) = self.refs[self.sh.last_op(pi)].replace(key) {
            self.queue_edge(prev, key, EdgeSet::PO);
            if let Some(n) = self.nodes.get_mut(&prev) {
                n.pins.po_anchor = false;
            }
            self.gc(prev);
        }
        self.nodes.get_mut(&key).expect("live").pins.po_anchor = true;
    }

    /// The occupant of location `loc` is about to lose that ID; if it is
    /// its last ID and the node is pinned, grant an auxiliary ID first.
    fn rescue_if_needed(&mut self, loc: LocId, out: &mut Vec<Symbol>) {
        let Some(key) = self.refs[self.sh.owner(loc)] else {
            return;
        };
        let needs = {
            let n = self.nodes.get(&key).expect("owner is live");
            n.loc_count == 1 && n.aux.is_none() && (n.pins.any() || !n.heirs.is_empty())
        };
        if needs {
            let aux = self.grab_aux();
            self.nodes.get_mut(&key).expect("live").aux = Some(aux);
            out.push(Symbol::AddId { of: loc, add: aux });
        }
    }

    /// Decrement the location count of a node that lost a location.
    fn drop_loc_ref(&mut self, old: Option<Key>) {
        let Some(key) = old else { return };
        let n = self.nodes.get_mut(&key).expect("ex-owner is live");
        n.loc_count -= 1;
        if n.loc_count == 0 {
            // The store's value left its last location: it can no longer
            // be inherited from, so its ST-order successor no longer needs
            // pinning on its behalf.
            if let Some(succ) = n.sto_succ {
                if let Some(sn) = self.nodes.get_mut(&succ) {
                    if sn.pins.forced_target_of == Some(key) {
                        sn.pins.forced_target_of = None;
                    }
                }
                self.gc(succ);
            }
        }
        self.gc(key);
    }

    /// An auxiliary ID: the last released one, else the lowest never used.
    fn grab_aux(&mut self) -> IdNum {
        if let Some(aux) = self.aux_released.pop() {
            return aux;
        }
        assert!(
            self.aux_next <= self.k(),
            "auxiliary ID pool exhausted (pin-analysis bound violated)"
        );
        self.aux_next += 1;
        self.aux_next - 1
    }

    /// Auxiliary IDs currently held by nodes.
    fn aux_in_use(&self) -> usize {
        (self.aux_next - self.sh.cfg.locations - 1) as usize - self.aux_released.len()
    }

    /// Queue an edge for emission at the next flush, merging annotations.
    fn queue_edge(&mut self, from: Key, to: Key, ann: EdgeSet) {
        if let Some(e) = self.edges.iter_mut().find(|(pair, _)| *pair == (from, to)) {
            e.1 |= ann;
            return;
        }
        self.edges.push(((from, to), ann));
    }

    /// Emit the queued edges using the nodes' current IDs, then release
    /// any endpoint whose ID was only kept alive for these edges.
    fn flush_edges(&mut self, out: &mut Vec<Symbol>) {
        // Out of the queue while its endpoints are gc'd, so `gc` sees no
        // edge deferring them; the buffer goes back cleared.
        let mut edges = std::mem::take(&mut self.edges);
        for &((from, to), ann) in &edges {
            let f = self.id_of(from);
            let t = self.id_of(to);
            out.push(Symbol::edge(f, t, ann));
        }
        for &((from, to), _) in &edges {
            self.gc(from);
            self.gc(to);
        }
        edges.clear();
        self.edges = edges;
    }

    /// Any current ID of a live node (auxiliary preferred, else a location
    /// it owns).
    fn id_of(&self, key: Key) -> IdNum {
        let n = self
            .nodes
            .get(&key)
            .expect("node referenced by an edge is live");
        if let Some(aux) = n.aux {
            return aux;
        }
        debug_assert!(n.loc_count > 0);
        (self
            .loc_owner()
            .iter()
            .position(|o| *o == Some(key))
            .expect("loc_count > 0") as IdNum)
            + 1
    }

    /// A canonical encoding of the observer state, independent of absolute
    /// node-key values, of statistics/counters, and — through `ids` — of
    /// the arbitrary identities of auxiliary descriptor IDs (the paired
    /// checker must be encoded with the *same* [`IdCanon`] so the renaming
    /// is consistent across the product state). Two observers with the
    /// same encoding behave identically (up to aux-ID renaming of the
    /// descriptor output) on all future inputs; the model checker hashes
    /// product states through this, making the composed state space finite
    /// and collapsing the aux-permutation orbit.
    pub fn canonical_encoding(&self, out: &mut Vec<u64>, ids: &mut scv_descriptor::IdCanon<'_>) {
        self.encode_canonical(out, ids, None);
    }

    /// Stream [`Observer::canonical_encoding`] (optionally renamed
    /// through `view`) into an arbitrary [`scv_descriptor::EncSink`] —
    /// e.g. an incremental lexicographic comparator that aborts the walk
    /// at the first losing word during orbit-minimum canonicalization.
    /// With a `view`, the traversal emits exactly the sequence the renamed
    /// observer would emit, without materialising the rename; `ids` must
    /// then have been built with [`scv_descriptor::IdCanon::with_locs`]
    /// using the same location map, and be shared with the paired
    /// checker's encoding.
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
        with_scratch(|Scratch { dead, heirs, .. }| {
            dead.clear();
            self.encode_with_scratch(out, ids, view, dead, heirs);
        });
    }

    fn encode_with_scratch<S: scv_descriptor::EncSink>(
        &self,
        out: &mut S,
        ids: &mut scv_descriptor::IdCanon<'_>,
        view: Option<&scv_descriptor::SymView<'_>>,
        dead: &mut Vec<(Key, u64)>,
        heirs: &mut Vec<(u8, u64)>,
    ) {
        // Abort the walk the moment the sink refuses a word (see
        // `EncSink::word`); partial output is discarded by the sink.
        macro_rules! emit {
            ($w:expr) => {
                if !out.word($w) {
                    return;
                }
            };
        }
        // Rank live keys by creation order (key order). One sorted entry
        // list serves both rank lookups (binary search — no hashing on a
        // path the model checker hits per sealed candidate) and the node
        // walk (no per-key map lookup).
        let entries = self.nodes.entries();
        // Dead tokens (e.g. a gc'd sto_succ) get stable fresh numbers in
        // first-appearance order of this deterministic encoding; there are
        // at most a handful per state, so a linear scan beats a map.
        let tok = |k: Option<Key>, dead: &mut Vec<(Key, u64)>| -> u64 {
            match k {
                None => u64::MAX,
                Some(k) => match entries.binary_search_by_key(&k, |&(ek, _)| ek) {
                    Ok(r) => r as u64,
                    Err(_) => match dead.iter().find(|&&(dk, _)| dk == k) {
                        Some(&(_, n)) => n,
                        None => {
                            let next = 1_000_000 + dead.len() as u64;
                            dead.push((k, next));
                            next
                        }
                    },
                },
            }
        };
        // Under a view, arrays indexed by location / processor / block are
        // walked in *renamed* index order, so position `i` of the output
        // holds what the renamed structure's position `i` would hold.
        let sh = &*self.sh;
        let old_proc = |i: usize| view.map_or(i, |v| v.perm.inv_proc_idx(i));
        let old_block = |i: usize| view.map_or(i, |v| v.perm.inv_block_idx(i));
        emit!(entries.len() as u64);
        let loc_owner = self.loc_owner();
        for i in 0..loc_owner.len() {
            let old = view.map_or(i, |v| v.loc_inv[i + 1] as usize - 1);
            emit!(tok(loc_owner[old], dead));
        }
        for (_, n) in entries {
            // Deliberately NOT encoded: the node's operation label. The
            // observer emits a node's label exactly once, at creation;
            // afterwards its own behaviour depends only on the structural
            // fields below, so label differences between otherwise-equal
            // observers are unobservable and encoding them would block
            // sound state merging.
            emit!(n.loc_count as u64);
            emit!(n.aux.map_or(u64::MAX, |a| ids.canon(a)));
            emit!(
                (n.pins.po_anchor as u64)
                    | (n.pins.sto_tail as u64) << 1
                    | (n.pins.bot_anchor as u64) << 2
                    | (n.pins.first_st as u64) << 3
                    | (n.pins.pending_serialization as u64) << 4
            );
            emit!(tok(n.pins.heir_of, dead));
            emit!(tok(n.pins.forced_target_of, dead));
            emit!(tok(n.sto_succ, dead));
            heirs.clear();
            for &(p, h) in &n.heirs {
                let p = view.map_or(p, |v| v.perm.proc(scv_types::ProcId(p)).0);
                heirs.push((p, tok(Some(h), dead)));
            }
            heirs.sort_unstable();
            emit!(heirs.len() as u64);
            for &(p, h) in heirs.iter() {
                emit!((p as u64) << 32 | h);
            }
        }
        for i in 0..sh.p() {
            emit!(tok(self.refs[sh.last_op(old_proc(i))], dead));
        }
        for i in 0..sh.b() {
            emit!(tok(self.refs[sh.sto_tail(old_block(i))], dead));
        }
        for i in 0..sh.b() {
            emit!(tok(self.refs[sh.first_st(old_block(i))], dead));
        }
        for pi in 0..sh.p() {
            for bi in 0..sh.b() {
                emit!(tok(
                    self.refs[sh.bot_anchor(old_proc(pi), old_block(bi))],
                    dead
                ));
            }
        }
        for bi in 0..sh.b() {
            let ob = old_block(bi) as u8;
            emit!(self.pending.iter().filter(|&&(b, _)| b == ob).count() as u64);
            for &(b, k) in &self.pending {
                if b == ob {
                    emit!(tok(Some(k), dead));
                }
            }
        }
        // The free auxiliary pool is deliberately NOT encoded: it is the
        // complement of the in-use set, and free IDs are anonymous — any
        // choice the pool makes later is neutral up to the renaming that
        // `ids` already applies.
    }

    /// Release the node's auxiliary ID / record once nothing references it.
    fn gc(&mut self, key: Key) {
        // Queued edges still reference the node; defer (gc re-runs later).
        if self.edges.iter().any(|((f, t), _)| *f == key || *t == key) {
            return;
        }
        let Some(n) = self.nodes.get(&key) else {
            return;
        };
        if n.pins.any() || !n.heirs.is_empty() {
            return;
        }
        if n.loc_count > 0 {
            // Still inheritable; no aux needed though.
            return;
        }
        if let Some(aux) = n.aux {
            // The ID simply becomes reusable; the checker treats the next
            // use of `aux` as the removal of this node.
            self.aux_released.push(aux);
        }
        self.nodes.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scv_checker::ScChecker;
    use scv_descriptor::decode;
    use scv_graph::{validate_constraint_graph, ConstraintGraph};
    use scv_protocol::{
        DirectoryProtocol, Fig4Protocol, LazyCaching, MsiProtocol, Runner, SerialMemory,
        StoreBufferTso,
    };
    use scv_types::Trace;

    /// The observed descriptor's trace (node labels in order) must equal
    /// the run's trace — property (i) of Definition 3.1.
    fn assert_trace_equal(d: &Descriptor, run: &Run) {
        let ops: Vec<Op> = d
            .symbols
            .iter()
            .filter_map(|s| match s {
                Symbol::Node { label, .. } => *label,
                _ => None,
            })
            .collect();
        assert_eq!(Trace::from_ops(ops), run.trace());
    }

    fn random_run<P: Protocol + Clone>(p: &P, steps: usize, seed: u64) -> Run {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut r = Runner::new(p.clone());
        r.run_random(steps, 0.5, &mut rng);
        r.into_run()
    }

    /// Full pipeline check on one run: the observer output must (a) decode
    /// to a graph satisfying all §3.1 axioms, (b) stream-check to the same
    /// verdict, and (c) carry the run's exact trace.
    fn pipeline_accepts<P: Protocol + Clone>(p: &P, steps: usize, seed: u64) {
        let run = random_run(p, steps, seed);
        let d = Observer::observe_run(p, &run);
        assert_trace_equal(&d, &run);
        let (dg, _) = decode(&d).unwrap_or_else(|e| panic!("{}: decode failed: {e}", p.name()));
        let cg: ConstraintGraph = dg
            .to_constraint_graph()
            .unwrap_or_else(|e| panic!("{}: bad graph: {e}", p.name()));
        let trace = run.trace();
        assert_eq!(
            validate_constraint_graph(&cg, &trace),
            Ok(()),
            "{}: axioms violated (seed {seed})",
            p.name()
        );
        assert!(
            cg.is_acyclic(),
            "{}: witness graph cyclic (seed {seed})",
            p.name()
        );
        assert_eq!(
            ScChecker::check(&d),
            Ok(()),
            "{}: streaming checker rejected (seed {seed})",
            p.name()
        );
    }

    #[test]
    fn serial_memory_runs_verify() {
        let p = SerialMemory::new(Params::new(2, 2, 2));
        for seed in 0..10 {
            pipeline_accepts(&p, 60, seed);
        }
    }

    #[test]
    fn msi_runs_verify() {
        let p = MsiProtocol::new(Params::new(2, 2, 2));
        for seed in 0..10 {
            pipeline_accepts(&p, 60, seed);
        }
        let p = MsiProtocol::new(Params::new(3, 2, 2));
        for seed in 0..5 {
            pipeline_accepts(&p, 80, 100 + seed);
        }
    }

    #[test]
    fn directory_runs_verify() {
        let p = DirectoryProtocol::new(Params::new(2, 2, 2));
        for seed in 0..10 {
            pipeline_accepts(&p, 80, seed);
        }
    }

    #[test]
    fn lazy_caching_runs_verify() {
        let p = LazyCaching::new(Params::new(2, 2, 2), 2, 2);
        for seed in 0..10 {
            pipeline_accepts(&p, 80, seed);
        }
    }

    #[test]
    fn fig4_runs_stay_sound() {
        // The Get-Shared protocol is *not* SC in general — a processor can
        // re-fetch a stale view of its own earlier store — so the pipeline
        // may reject; what must hold is soundness: accept ⇒ the trace has
        // a serial reordering, and every rejected run's trace decodes to a
        // graph that genuinely violates the axioms or is cyclic.
        let p = Fig4Protocol::new(Params::new(2, 2, 2), 1);
        let mut accepted = 0;
        for seed in 0..20 {
            let run = random_run(&p, 30, seed);
            let d = Observer::observe_run(&p, &run);
            assert_trace_equal(&d, &run);
            if ScChecker::check(&d).is_ok() {
                accepted += 1;
                assert!(
                    scv_graph::has_serial_reordering(&run.trace()),
                    "unsound accept (seed {seed}): {}",
                    run.trace()
                );
            }
        }
        assert!(accepted > 0, "some runs should verify");
    }

    #[test]
    fn tso_litmus_rejected() {
        // Drive the SB litmus; the observer emits a witness whose forced
        // edges close a cycle, so the checker rejects.
        let p = StoreBufferTso::new(Params::new(2, 2, 1), 2);
        let mut r = Runner::new(p.clone());
        let take = |r: &mut Runner<StoreBufferTso>, want: &dyn Fn(&Action) -> bool| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| want(&t.action))
                .expect("enabled");
            r.take(t);
        };
        use scv_types::{BlockId, ProcId, Value};
        take(&mut r, &|a| {
            a.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1)))
        });
        take(&mut r, &|a| {
            a.op() == Some(Op::store(ProcId(2), BlockId(2), Value(1)))
        });
        take(&mut r, &|a| {
            a.op() == Some(Op::load(ProcId(1), BlockId(2), Value::BOTTOM))
        });
        take(&mut r, &|a| {
            a.op() == Some(Op::load(ProcId(2), BlockId(1), Value::BOTTOM))
        });
        // Drain both buffers so the stores serialize.
        take(&mut r, &|a| matches!(a, Action::Internal("Drain", 1)));
        take(&mut r, &|a| matches!(a, Action::Internal("Drain", 2)));
        let run = r.into_run();
        assert!(!scv_graph::has_serial_reordering(&run.trace()));
        let d = Observer::observe_run(&p, &run);
        assert!(
            ScChecker::check(&d).is_err(),
            "checker must reject the SB litmus"
        );
    }

    #[test]
    fn tso_random_runs_agree_with_ground_truth() {
        // On every random TSO run, the checker's verdict must be sound:
        // if it accepts, the trace has a serial reordering.
        let p = StoreBufferTso::new(Params::new(2, 1, 2), 2);
        let mut sc = 0;
        let mut rejected = 0;
        for seed in 0..40 {
            let run = random_run(&p, 16, seed);
            let d = Observer::observe_run(&p, &run);
            let verdict = ScChecker::check(&d);
            let truth = scv_graph::has_serial_reordering(&run.trace());
            if verdict.is_ok() {
                assert!(truth, "unsound accept on seed {seed}: {}", run.trace());
                sc += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(sc > 0, "some runs should verify");
        let _ = rejected; // rejection is allowed even for SC traces
    }

    #[test]
    fn buggy_msi_random_runs_stay_sound() {
        let p = MsiProtocol::buggy(Params::new(2, 2, 1));
        for seed in 0..30 {
            let run = random_run(&p, 25, seed);
            let d = Observer::observe_run(&p, &run);
            if ScChecker::check(&d).is_ok() {
                assert!(
                    scv_graph::has_serial_reordering(&run.trace()),
                    "unsound accept on seed {seed}: {}",
                    run.trace()
                );
            }
        }
    }

    #[test]
    fn lazy_caching_reorders_and_still_verifies() {
        // Construct the reordering scenario by hand: P1 and P2 store to
        // the same block; P2's memory-write runs first.
        use scv_types::{BlockId, ProcId, Value};
        let p = LazyCaching::new(Params::new(2, 1, 2), 2, 2);
        let mut r = Runner::new(p.clone());
        let take = |r: &mut Runner<LazyCaching>, want: &dyn Fn(&Action) -> bool| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| want(&t.action))
                .expect("enabled");
            r.take(t);
        };
        take(&mut r, &|a| {
            a.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1)))
        });
        take(&mut r, &|a| {
            a.op() == Some(Op::store(ProcId(2), BlockId(1), Value(2)))
        });
        take(&mut r, &|a| matches!(a, Action::Internal("MW", 2)));
        take(&mut r, &|a| matches!(a, Action::Internal("MW", 1)));
        // Both processors consume their updates and read the final value.
        take(&mut r, &|a| matches!(a, Action::Internal("CU", 1)));
        take(&mut r, &|a| matches!(a, Action::Internal("CU", 1)));
        take(&mut r, &|a| {
            a.op() == Some(Op::load(ProcId(1), BlockId(1), Value(1)))
        });
        let run = r.into_run();
        let d = Observer::observe_run(&p, &run);
        // The ST order must be P2's store then P1's store (memory-write
        // order), opposite to trace order — and the descriptor verifies.
        assert_eq!(ScChecker::check(&d), Ok(()));
        let (dg, _) = decode(&d).unwrap();
        let cg = dg.to_constraint_graph().unwrap();
        // Node numbering: 0 = ST(P1), 1 = ST(P2); STo edge 1 -> 0.
        assert!(cg.edge(1, 0).unwrap().contains(EdgeSet::STO));
    }

    /// The aux pool issues IDs in the order of a full free stack: the
    /// last released ID first, else the lowest never used, and panics
    /// once every ID up to `k` is held.
    #[test]
    #[should_panic(expected = "auxiliary ID pool exhausted")]
    fn aux_pool_order_and_exhaustion() {
        let mut obs = Observer::new(ObserverConfig::from_protocol(&MsiProtocol::new(
            Params::new(2, 1, 1),
        )));
        let l = obs.location_count();
        assert_eq!(
            [obs.grab_aux(), obs.grab_aux(), obs.grab_aux()],
            [l + 1, l + 2, l + 3]
        );
        obs.aux_released.extend([l + 1, l + 3]);
        assert_eq!(obs.aux_in_use(), 1);
        assert_eq!(
            [obs.grab_aux(), obs.grab_aux(), obs.grab_aux()],
            [l + 3, l + 1, l + 4]
        );
        while obs.aux_in_use() < obs.sh.aux_total {
            obs.grab_aux();
        }
        assert_eq!(obs.aux_next, obs.k() + 1);
        obs.grab_aux();
    }

    /// Node keys are 32-bit: an observer whose key counter has reached
    /// `u32::MAX` refuses the next node rather than wrap to a key that may
    /// still be live.
    #[test]
    #[should_panic(expected = "observer node keys exhausted")]
    fn node_key_counter_panics_instead_of_wrapping() {
        let p = MsiProtocol::new(Params::new(2, 1, 1));
        let run = random_run(&p, 40, 3);
        let store = run
            .steps
            .iter()
            .find(|s| s.action.op().is_some_and(|op| op.is_store()))
            .expect("a random msi run stores");
        let mut obs = Observer::new(ObserverConfig::from_protocol(&p));
        obs.next_key = Key::MAX;
        obs.step(store, &mut Vec::new());
    }

    /// The size statistics of seeded runs: `(max_aux_in_use,
    /// max_live_nodes, max_retained)` for seeds 1..=4, 300 steps each.
    fn size_stats<P: Protocol + Clone>(p: &P) -> Vec<(usize, usize, usize)> {
        (1..=4)
            .map(|seed| {
                let run = random_run(p, 300, seed);
                let mut obs = Observer::new(ObserverConfig::from_protocol(p));
                let mut chk = ScChecker::new(obs.k());
                let mut syms = Vec::new();
                for s in &run.steps {
                    obs.step(s, &mut syms);
                }
                obs.finish(&mut syms);
                for s in &syms {
                    chk.step(s).expect("SC protocol run accepted");
                }
                let (o, c) = (obs.stats(), chk.stats());
                (o.max_aux_in_use, o.max_live_nodes, c.max_retained)
            })
            .collect()
    }

    /// Pinned before the checker's owner table and the observer's aux pool
    /// were resized by live IDs: the per-state layout changed, the
    /// high-water marks of what is live must not.
    #[test]
    fn size_statistics_are_pinned() {
        let params = Params::new(2, 2, 2);
        assert_eq!(
            size_stats(&MsiProtocol::new(params)),
            [(7, 10, 13), (7, 10, 14), (7, 10, 12), (6, 9, 12)]
        );
        assert_eq!(
            size_stats(&DirectoryProtocol::new(params)),
            [(6, 9, 12), (6, 9, 14), (6, 9, 14), (6, 10, 12)]
        );
        assert_eq!(
            size_stats(&LazyCaching::new(params, 1, 1)),
            [(4, 8, 9), (3, 7, 8), (4, 9, 9), (3, 8, 8)]
        );
    }

    #[test]
    fn observer_ids_stay_in_range_and_bounded() {
        let p = MsiProtocol::new(Params::new(2, 2, 2));
        let run = random_run(&p, 120, 7);
        let d = Observer::observe_run(&p, &run);
        assert!(d.ids_in_range());
        let (_, stats) = decode(&d).unwrap();
        // The active node count never exceeds the ID space.
        assert!(stats.max_active <= (d.k + 1) as usize);
    }
}
