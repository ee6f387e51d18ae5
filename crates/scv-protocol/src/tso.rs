//! A TSO-style store-buffer machine — deliberately **not** sequentially
//! consistent.
//!
//! Every processor has a FIFO store buffer: `ST` appends to the buffer,
//! `Drain` retires the oldest entry to memory, and `LD` forwards from the
//! newest matching buffer entry or reads memory. Without fences the
//! classic store-buffering litmus (both processors read 0/⊥ after both
//! stored) is reachable, so the protocol violates sequential consistency —
//! the verification pipeline must reject it, and the rejection is
//! confirmed independently by exhibiting a trace with no serial
//! reordering.
//!
//! Like Lazy Caching, the serial order of the STs that *do* serialize is
//! the drain order, so the ST order policy designates each block's memory
//! word as its serialization location.

use crate::api::{Action, CopySrc, LocId, Protocol, StOrderPolicy, Tracking, Transition};
use scv_types::{BlockId, Op, Params, ProcId, Value};

/// A buffer entry: `(block, value)`.
type Entry = Option<(u8, Value)>;

/// Protocol state: store buffers (head at index 0) plus memory.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TsoState {
    /// `buf[p.idx()*depth + i]`.
    pub buf: Vec<Entry>,
    /// Memory per block.
    pub mem: Vec<Value>,
}

scv_types::pack_struct!(TsoState { buf, mem });

/// The store-buffer protocol.
#[derive(Clone, Debug)]
pub struct StoreBufferTso {
    params: Params,
    depth: u8,
}

impl StoreBufferTso {
    /// Create a store-buffer machine with the given buffer depth.
    pub fn new(params: Params, depth: u8) -> Self {
        assert!(depth >= 1);
        StoreBufferTso { params, depth }
    }

    /// Buffer depth.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Location of slot `i` of `p`'s store buffer.
    pub fn buf_loc(&self, p: ProcId, i: u8) -> LocId {
        (p.idx() * self.depth as usize + i as usize + 1) as LocId
    }

    /// Location of the memory word for `b` (the serialization location).
    pub fn mem_loc(&self, b: BlockId) -> LocId {
        (self.params.p as usize * self.depth as usize + b.idx() + 1) as LocId
    }

    fn buf_slice<'a>(&self, s: &'a TsoState, p: ProcId) -> &'a [Entry] {
        let base = p.idx() * self.depth as usize;
        &s.buf[base..base + self.depth as usize]
    }

    fn buf_len(&self, s: &TsoState, p: ProcId) -> usize {
        self.buf_slice(s, p)
            .iter()
            .take_while(|e| e.is_some())
            .count()
    }

    /// Index of the newest buffered entry for `b` at `p`, if any
    /// (store-to-load forwarding reads the youngest matching store).
    fn newest_for(&self, s: &TsoState, p: ProcId, b: BlockId) -> Option<usize> {
        self.buf_slice(s, p)
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Some((blk, _)) if *blk == b.0))
            .map(|(i, _)| i)
            .next_back()
    }
}

impl Protocol for StoreBufferTso {
    type State = TsoState;

    fn name(&self) -> &'static str {
        "store-buffer-tso"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn locations(&self) -> u32 {
        self.params.p as u32 * self.depth as u32 + self.params.b as u32
    }

    fn initial(&self) -> Self::State {
        TsoState {
            buf: vec![None; self.params.p as usize * self.depth as usize],
            mem: vec![Value::BOTTOM; self.params.b as usize],
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
        for p in self.params.procs() {
            let len = self.buf_len(s, p);
            // ST: append to the buffer.
            if len < self.depth as usize {
                for b in self.params.blocks() {
                    for v in self.params.values() {
                        let mut next = s.clone();
                        next.buf[p.idx() * self.depth as usize + len] = Some((b.0, v));
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.buf_loc(p, len as u8)),
                        });
                    }
                }
            }
            // Drain: head entry to memory, buffer shifts.
            if len > 0 {
                let (blk, v) = s.buf[p.idx() * self.depth as usize].expect("head occupied");
                let b = BlockId(blk);
                let mut next = s.clone();
                let mut copies = Vec::new();
                next.mem[b.idx()] = v;
                copies.push((self.mem_loc(b), CopySrc::Loc(self.buf_loc(p, 0))));
                for i in 0..self.depth as usize - 1 {
                    let e = s.buf[p.idx() * self.depth as usize + i + 1];
                    next.buf[p.idx() * self.depth as usize + i] = e;
                    if e.is_some() {
                        copies.push((
                            self.buf_loc(p, i as u8),
                            CopySrc::Loc(self.buf_loc(p, i as u8 + 1)),
                        ));
                    }
                }
                next.buf[p.idx() * self.depth as usize + self.depth as usize - 1] = None;
                copies.push((self.buf_loc(p, len as u8 - 1), CopySrc::Invalid));
                out.push(Transition {
                    action: Action::Internal("Drain", p.0 as u32),
                    next,
                    tracking: Tracking::copies(copies),
                });
            }
            // LD: forward from the newest matching buffer entry, else read
            // memory.
            for b in self.params.blocks() {
                match self.newest_for(s, p, b) {
                    Some(i) => {
                        let (_, v) = self.buf_slice(s, p)[i].expect("occupied");
                        out.push(Transition {
                            action: Action::Mem(Op::load(p, b, v)),
                            next: s.clone(),
                            tracking: Tracking::mem(self.buf_loc(p, i as u8)),
                        });
                    }
                    None => {
                        out.push(Transition {
                            action: Action::Mem(Op::load(p, b, s.mem[b.idx()])),
                            next: s.clone(),
                            tracking: Tracking::mem(self.mem_loc(b)),
                        });
                    }
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

    fn proto() -> StoreBufferTso {
        StoreBufferTso::new(Params::new(2, 2, 1), 2)
    }

    #[test]
    fn store_buffering_litmus_violates_sc() {
        // P1: ST x=1; LD y=⊥.  P2: ST y=1; LD x=⊥. Both loads miss the
        // buffered remote stores: the classic TSO-but-not-SC outcome.
        let mut r = Runner::new(proto());
        let x = BlockId(1);
        let y = BlockId(2);
        let take = |r: &mut Runner<StoreBufferTso>, op: Op| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| t.action.op() == Some(op))
                .unwrap_or_else(|| panic!("{op} enabled"));
            r.take(t);
        };
        take(&mut r, Op::store(ProcId(1), x, Value(1)));
        take(&mut r, Op::store(ProcId(2), y, Value(1)));
        take(&mut r, Op::load(ProcId(1), y, Value::BOTTOM));
        take(&mut r, Op::load(ProcId(2), x, Value::BOTTOM));
        let t = r.run().trace();
        assert!(!has_serial_reordering(&t), "SB litmus must violate SC: {t}");
    }

    #[test]
    fn store_to_load_forwarding_reads_newest() {
        let p = StoreBufferTso::new(Params::new(1, 1, 2), 2);
        let mut r = Runner::new(p);
        let take = |r: &mut Runner<StoreBufferTso>, op: Op| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| t.action.op() == Some(op))
                .unwrap();
            r.take(t);
        };
        take(&mut r, Op::store(ProcId(1), BlockId(1), Value(1)));
        take(&mut r, Op::store(ProcId(1), BlockId(1), Value(2)));
        // The only enabled load returns 2 (the newest buffered store).
        let loads: Vec<Op> = r
            .enabled()
            .into_iter()
            .filter_map(|t| t.action.op())
            .filter(|o| o.is_load())
            .collect();
        assert_eq!(loads, vec![Op::load(ProcId(1), BlockId(1), Value(2))]);
    }

    #[test]
    fn drain_moves_head_to_memory() {
        let p = proto();
        let mut r = Runner::new(p);
        let take = |r: &mut Runner<StoreBufferTso>, op: Op| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| t.action.op() == Some(op))
                .unwrap();
            r.take(t);
        };
        take(&mut r, Op::store(ProcId(1), BlockId(1), Value(1)));
        let drain = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("Drain", 1)))
            .unwrap();
        r.take(drain);
        assert_eq!(r.state().mem[0], Value(1));
        assert_eq!(r.state().buf[0], None);
    }

    #[test]
    fn single_processor_tso_is_sc() {
        // With one processor, store forwarding makes TSO equal SC.
        let mut rng = SmallRng::seed_from_u64(51);
        for _ in 0..10 {
            let mut r = Runner::new(StoreBufferTso::new(Params::new(1, 2, 2), 2));
            r.run_random(40, 0.6, &mut rng);
            let t = r.run().trace();
            assert!(has_serial_reordering(&t), "{t}");
        }
    }

    #[test]
    fn buffers_respect_depth() {
        let p = proto();
        let mut r = Runner::new(p);
        let take_any_store = |r: &mut Runner<StoreBufferTso>| -> bool {
            let t = r.enabled().into_iter().find(
                |t| matches!(t.action, Action::Mem(op) if op.is_store() && op.proc == ProcId(1)),
            );
            match t {
                Some(t) => {
                    r.take(t);
                    true
                }
                None => false,
            }
        };
        assert!(take_any_store(&mut r));
        assert!(take_any_store(&mut r));
        assert!(!take_any_store(&mut r), "depth-2 buffer must be full");
    }
}
