//! The Lazy Caching protocol of Afek, Brown & Merritt.
//!
//! Every processor has a cache, an *out-queue* of its pending writes and an
//! *in-queue* of memory updates it has not yet applied:
//!
//! * `ST(P,B,V)` appends `(B,V)` to `Out_P` — the store completes long
//!   before it is serialized;
//! * `memory-write MW(P)` pops the head of `Out_P`, writes memory, and
//!   broadcasts the update into every in-queue (starred in `In_P` itself);
//! * `cache-update CU(P)` pops the head of `In_P` into `P`'s cache;
//! * `memory-read MR(P,B)` spontaneously refreshes `P`'s cache from
//!   memory; `cache-invalidate CI(P,B)` drops a cache entry;
//! * `LD(P,B,V)` is enabled only when `Out_P` is empty and `In_P` holds no
//!   starred entries (so a processor observes its own writes in order).
//!
//! The protocol is sequentially consistent, but the serial order of STs to
//! a block is the **memory-write order**, not the real-time ST order — it
//! is the paper's (§4.2) example of a protocol needing a non-trivial ST
//! order generator. Accordingly [`Protocol::st_order_policy`] designates
//! each block's memory word as its serialization location.
//!
//! Queues are modelled as shifting arrays so that popping is a sequence of
//! location copies (and an invalidation of the freed slot), keeping states
//! canonical and the tracking labels faithful.

use crate::api::{Action, CopySrc, LocId, Protocol, StOrderPolicy, Tracking, Transition};
use scv_types::{BlockId, Op, Params, ProcId, Value};

/// An out-queue entry: `(block, value)`.
type OutEntry = Option<(u8, Value)>;
/// An in-queue entry: `(block, value, starred)`.
type InEntry = Option<(u8, Value, bool)>;

/// Protocol state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LazyState {
    /// `cache[p.idx()*b + blk.idx()]`: cached value, `None` = invalid.
    pub cache: Vec<Option<Value>>,
    /// Memory per block.
    pub mem: Vec<Value>,
    /// `out[p.idx()*qo + i]`: pending writes, head at index 0.
    pub out: Vec<OutEntry>,
    /// `inq[p.idx()*qi + i]`: pending updates, head at index 0.
    pub inq: Vec<InEntry>,
}

scv_types::pack_struct!(LazyState {
    cache,
    mem,
    out,
    inq
});

/// The Lazy Caching protocol.
#[derive(Clone, Debug)]
pub struct LazyCaching {
    params: Params,
    /// Out-queue depth.
    qo: u8,
    /// In-queue depth.
    qi: u8,
}

impl LazyCaching {
    /// Create a lazy-caching protocol with the given queue depths.
    pub fn new(params: Params, qo: u8, qi: u8) -> Self {
        assert!(qo >= 1 && qi >= 1);
        LazyCaching { params, qo, qi }
    }

    /// Out-queue depth.
    pub fn out_depth(&self) -> u8 {
        self.qo
    }

    /// In-queue depth.
    pub fn in_depth(&self) -> u8 {
        self.qi
    }

    /// Location of `p`'s cache entry for `b`.
    pub fn cache_loc(&self, p: ProcId, b: BlockId) -> LocId {
        (p.idx() * self.params.b as usize + b.idx() + 1) as LocId
    }

    /// Location of the memory word for `b` (the serialization location).
    pub fn mem_loc(&self, b: BlockId) -> LocId {
        (self.params.p as usize * self.params.b as usize + b.idx() + 1) as LocId
    }

    /// Location of slot `i` of `p`'s out-queue.
    pub fn out_loc(&self, p: ProcId, i: u8) -> LocId {
        let base = (self.params.p as usize + 1) * self.params.b as usize;
        (base + p.idx() * self.qo as usize + i as usize + 1) as LocId
    }

    /// Location of slot `i` of `p`'s in-queue.
    pub fn in_loc(&self, p: ProcId, i: u8) -> LocId {
        let base = (self.params.p as usize + 1) * self.params.b as usize
            + self.params.p as usize * self.qo as usize;
        (base + p.idx() * self.qi as usize + i as usize + 1) as LocId
    }

    fn out_slice<'a>(&self, s: &'a LazyState, p: ProcId) -> &'a [OutEntry] {
        let base = p.idx() * self.qo as usize;
        &s.out[base..base + self.qo as usize]
    }

    fn in_slice<'a>(&self, s: &'a LazyState, p: ProcId) -> &'a [InEntry] {
        let base = p.idx() * self.qi as usize;
        &s.inq[base..base + self.qi as usize]
    }

    fn out_len(&self, s: &LazyState, p: ProcId) -> usize {
        self.out_slice(s, p)
            .iter()
            .take_while(|e| e.is_some())
            .count()
    }

    fn in_len(&self, s: &LazyState, p: ProcId) -> usize {
        self.in_slice(s, p)
            .iter()
            .take_while(|e| e.is_some())
            .count()
    }

    /// May `p` load right now? Out-queue empty, no starred in-queue entry.
    fn can_read(&self, s: &LazyState, p: ProcId) -> bool {
        self.out_len(s, p) == 0
            && !self
                .in_slice(s, p)
                .iter()
                .flatten()
                .any(|&(_, _, star)| star)
    }
}

impl Protocol for LazyCaching {
    type State = LazyState;

    fn name(&self) -> &'static str {
        "lazy-caching"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn locations(&self) -> u32 {
        (self.params.p as u32 + 1) * self.params.b as u32
            + self.params.p as u32 * (self.qo as u32 + self.qi as u32)
    }

    fn initial(&self) -> Self::State {
        LazyState {
            cache: vec![None; self.params.p as usize * self.params.b as usize],
            mem: vec![Value::BOTTOM; self.params.b as usize],
            out: vec![None; self.params.p as usize * self.qo as usize],
            inq: vec![None; self.params.p as usize * self.qi as usize],
        }
    }

    fn st_order_policy(&self) -> StOrderPolicy {
        StOrderPolicy::Serialization {
            locs: self.params.blocks().map(|b| self.mem_loc(b)).collect(),
        }
    }

    fn transitions(&self, s: &Self::State) -> Vec<Transition<Self::State>> {
        let mut out = Vec::new();
        self.transitions_into(s, &mut out);
        out
    }

    fn transitions_into(&self, s: &Self::State, out: &mut Vec<Transition<Self::State>>) {
        let pb = self.params.b as usize;
        for p in self.params.procs() {
            let out_len = self.out_len(s, p);
            let in_len = self.in_len(s, p);

            // ST: append to the out-queue.
            if out_len < self.qo as usize {
                for b in self.params.blocks() {
                    for v in self.params.values() {
                        let mut next = s.clone();
                        next.out[p.idx() * self.qo as usize + out_len] = Some((b.0, v));
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.out_loc(p, out_len as u8)),
                        });
                    }
                }
            }

            // LD: cache hit, only when reads are allowed.
            if self.can_read(s, p) {
                for b in self.params.blocks() {
                    if let Some(v) = s.cache[p.idx() * pb + b.idx()] {
                        out.push(Transition {
                            action: Action::Mem(Op::load(p, b, v)),
                            next: s.clone(),
                            tracking: Tracking::mem(self.cache_loc(p, b)),
                        });
                    }
                }
            }

            // MW(P): serialize the head of Out_P.
            if out_len > 0
                && self
                    .params
                    .procs()
                    .all(|q| self.in_len(s, q) < self.qi as usize)
            {
                let (blk, v) = s.out[p.idx() * self.qo as usize].expect("head occupied");
                let b = BlockId(blk);
                let head_loc = self.out_loc(p, 0);
                let mut next = s.clone();
                let mut copies = Vec::new();
                // Memory write (the serialization point).
                next.mem[b.idx()] = v;
                copies.push((self.mem_loc(b), CopySrc::Loc(head_loc)));
                // Broadcast into every in-queue (starred at P itself).
                for q in self.params.procs() {
                    let qi_len = self.in_len(s, q);
                    next.inq[q.idx() * self.qi as usize + qi_len] = Some((blk, v, q == p));
                    copies.push((self.in_loc(q, qi_len as u8), CopySrc::Loc(head_loc)));
                }
                // Shift Out_P down; the slot the tail vacated is freed.
                for i in 0..self.qo as usize - 1 {
                    let e = s.out[p.idx() * self.qo as usize + i + 1];
                    next.out[p.idx() * self.qo as usize + i] = e;
                    if e.is_some() {
                        copies.push((
                            self.out_loc(p, i as u8),
                            CopySrc::Loc(self.out_loc(p, i as u8 + 1)),
                        ));
                    }
                }
                next.out[p.idx() * self.qo as usize + self.qo as usize - 1] = None;
                copies.push((self.out_loc(p, out_len as u8 - 1), CopySrc::Invalid));
                out.push(Transition {
                    action: Action::Internal("MW", p.0 as u32),
                    next,
                    tracking: Tracking::copies(copies),
                });
            }

            // CU(P): apply the head of In_P to the cache.
            if in_len > 0 {
                let (blk, _v, _star) = s.inq[p.idx() * self.qi as usize].expect("head occupied");
                let b = BlockId(blk);
                let mut next = s.clone();
                let mut copies = Vec::new();
                next.cache[p.idx() * pb + b.idx()] =
                    s.inq[p.idx() * self.qi as usize].map(|(_, v, _)| v);
                copies.push((self.cache_loc(p, b), CopySrc::Loc(self.in_loc(p, 0))));
                for i in 0..self.qi as usize - 1 {
                    let e = s.inq[p.idx() * self.qi as usize + i + 1];
                    next.inq[p.idx() * self.qi as usize + i] = e;
                    if e.is_some() {
                        copies.push((
                            self.in_loc(p, i as u8),
                            CopySrc::Loc(self.in_loc(p, i as u8 + 1)),
                        ));
                    }
                }
                next.inq[p.idx() * self.qi as usize + self.qi as usize - 1] = None;
                copies.push((self.in_loc(p, in_len as u8 - 1), CopySrc::Invalid));
                out.push(Transition {
                    action: Action::Internal("CU", p.0 as u32),
                    next,
                    tracking: Tracking::copies(copies),
                });
            }

            // MR(P,B): spontaneous cache refresh from memory; CI(P,B):
            // spontaneous invalidation.
            for b in self.params.blocks() {
                let mut next = s.clone();
                next.cache[p.idx() * pb + b.idx()] = Some(s.mem[b.idx()]);
                if next.cache != s.cache {
                    out.push(Transition {
                        action: Action::Internal("MR", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(vec![(
                            self.cache_loc(p, b),
                            CopySrc::Loc(self.mem_loc(b)),
                        )]),
                    });
                }
                if s.cache[p.idx() * pb + b.idx()].is_some() {
                    let mut next = s.clone();
                    next.cache[p.idx() * pb + b.idx()] = None;
                    out.push(Transition {
                        action: Action::Internal("CI", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(vec![(self.cache_loc(p, b), CopySrc::Invalid)]),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scv_graph::has_serial_reordering;

    fn proto() -> LazyCaching {
        LazyCaching::new(Params::new(2, 2, 2), 2, 2)
    }

    /// 20 × 20 = 400 cache slots, a count past `u8`: the table is sized
    /// in `usize`.
    #[test]
    fn cache_table_is_sized_past_u8_range() {
        let proto = LazyCaching::new(Params::new(20, 20, 1), 1, 1);
        let init = proto.initial();
        assert_eq!(init.cache.len(), 400);
        assert!(!proto.transitions(&init).is_empty());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut r = Runner::new(proto);
        r.run_random(60, 0.5, &mut rng);
    }

    #[test]
    fn random_runs_are_sc() {
        let mut rng = SmallRng::seed_from_u64(41);
        for i in 0..15 {
            let mut r = Runner::new(proto());
            r.run_random(60, 0.4, &mut rng);
            let t = r.run().trace();
            assert!(has_serial_reordering(&t), "run {i}: non-SC trace {t}");
        }
    }

    #[test]
    fn stores_are_reordered_wrt_memory_writes() {
        // P1 stores to B1 (queued); P2 stores to B1 (queued); P2's MW runs
        // first: the serial ST order is P2's store before P1's even though
        // the trace order is the opposite.
        let p = proto();
        let mut r = Runner::new(p);
        let take_st = |r: &mut Runner<LazyCaching>, pid: u8, v: u8| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| t.action.op() == Some(Op::store(ProcId(pid), BlockId(1), Value(v))))
                .unwrap();
            r.take(t);
        };
        let take_mw = |r: &mut Runner<LazyCaching>, pid: u8| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| matches!(t.action, Action::Internal("MW", q) if q == pid as u32))
                .unwrap();
            r.take(t);
        };
        take_st(&mut r, 1, 1);
        take_st(&mut r, 2, 2);
        take_mw(&mut r, 2); // P2's store serializes first
        take_mw(&mut r, 1);
        // Memory ends with P1's value.
        assert_eq!(r.state().mem[0], Value(1));
        // The MW copies name the memory word as destination — the
        // serialization location the ST order generator watches.
        let mw_steps: Vec<_> = r
            .run()
            .steps
            .iter()
            .filter(|s| matches!(s.action, Action::Internal("MW", _)))
            .collect();
        let proto = proto();
        for s in &mw_steps {
            assert!(s
                .tracking
                .copies
                .iter()
                .any(|(dst, _)| *dst == proto.mem_loc(BlockId(1))));
        }
    }

    #[test]
    fn reads_blocked_while_out_queue_nonempty() {
        let p = proto();
        let mut r = Runner::new(p);
        // Fill the cache first so a load would otherwise be enabled.
        let mr = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("MR", 1)))
            .unwrap();
        r.take(mr);
        assert!(r
            .enabled()
            .iter()
            .any(|t| matches!(t.action, Action::Mem(op) if op.is_load() && op.proc == ProcId(1))));
        // Store: loads by P1 disappear.
        let st = r
            .enabled()
            .into_iter()
            .find(|t| t.action.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1))))
            .unwrap();
        r.take(st);
        assert!(!r
            .enabled()
            .iter()
            .any(|t| matches!(t.action, Action::Mem(op) if op.is_load() && op.proc == ProcId(1))));
    }

    #[test]
    fn reads_blocked_while_starred_update_pending() {
        let p = proto();
        let mut r = Runner::new(p);
        let st = r
            .enabled()
            .into_iter()
            .find(|t| t.action.op() == Some(Op::store(ProcId(1), BlockId(1), Value(1))))
            .unwrap();
        r.take(st);
        let mw = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("MW", 1)))
            .unwrap();
        r.take(mw);
        // Out-queue empty now, but In_1 holds a starred entry.
        assert!(!r
            .enabled()
            .iter()
            .any(|t| matches!(t.action, Action::Mem(op) if op.is_load() && op.proc == ProcId(1))));
        // Apply the update; then P1 reads its own write.
        let cu = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("CU", 1)))
            .unwrap();
        r.take(cu);
        assert!(r
            .enabled()
            .iter()
            .any(|t| t.action.op() == Some(Op::load(ProcId(1), BlockId(1), Value(1)))));
    }

    #[test]
    fn own_writes_observed_in_order() {
        // The litmus from the lazy-caching literature: after ST 1 and ST 2
        // to the same block, the processor must read 2, never 1.
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..10 {
            let mut r = Runner::new(LazyCaching::new(Params::new(1, 1, 2), 2, 3));
            r.run_random(50, 0.5, &mut rng);
            let t = r.run().trace();
            assert!(
                has_serial_reordering(&t),
                "single-processor lazy caching must be SC: {t}"
            );
        }
    }
}
