//! A directory-based coherence protocol with explicit response messages.
//!
//! A home directory per block tracks the owner / sharer set; a requesting
//! processor goes through a transient Wait state while its fill value sits
//! in a per-processor *response buffer* — a network-message storage
//! location in the sense of §4.1 ("queues, network message packets, or
//! caches"). Directory transactions are atomic (the interconnect is
//! abstracted), invalidations abort in-flight fills (NACK-style), and
//! stores require M — so stores serialize in real time and the protocol is
//! sequentially consistent.

use crate::api::{Action, CopySrc, LocId, Protocol, Tracking, Transition};
use scv_types::{BlockId, Op, Pack, Params, ProcId, Value};

/// Per-(processor, block) cache-line state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DirLine {
    /// Invalid.
    #[default]
    I,
    /// Shared (clean).
    S,
    /// Modified (exclusive, dirty).
    M,
    /// Waiting for a shared fill (response buffered).
    WaitS,
    /// Waiting for an exclusive fill (response buffered).
    WaitM,
}

scv_types::pack_enum!(DirLine {
    I,
    S,
    M,
    WaitS,
    WaitM
});

/// Directory state per block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DirEntry {
    /// No cached copies.
    #[default]
    Uncached,
    /// Clean copies at the processors in the bitmask.
    Shared(u8),
    /// Dirty exclusive copy at the processor.
    Owned(u8),
}

/// A tag byte, then the processor mask or owner.
impl Pack for DirEntry {
    fn pack(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&match *self {
            DirEntry::Uncached => [0, 0],
            DirEntry::Shared(mask) => [1, mask],
            DirEntry::Owned(p) => [2, p],
        });
    }

    fn unpack_from(&mut self, bytes: &mut &[u8]) {
        let b = scv_types::pack::take_bytes(bytes, 2);
        *self = match b[0] {
            0 => DirEntry::Uncached,
            1 => DirEntry::Shared(b[1]),
            _ => DirEntry::Owned(b[1]),
        };
    }
}

/// Full protocol state.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DirState {
    /// `lines[p.idx()*b + blk.idx()]` = (line state, cached value).
    pub lines: Vec<(DirLine, Value)>,
    /// Memory per block.
    pub mem: Vec<Value>,
    /// Directory entry per block.
    pub dir: Vec<DirEntry>,
    /// Response buffer per processor (value in flight).
    pub resp: Vec<Value>,
}

scv_types::pack_struct!(DirState {
    lines,
    mem,
    dir,
    resp
});

/// The directory protocol.
#[derive(Clone, Debug)]
pub struct DirectoryProtocol {
    params: Params,
}

impl DirectoryProtocol {
    /// Create a directory protocol.
    pub fn new(params: Params) -> Self {
        assert!(params.p <= 8, "sharer bitmask is u8");
        DirectoryProtocol { params }
    }

    /// Location id of `p`'s cache line for `b`.
    pub fn cache_loc(&self, p: ProcId, b: BlockId) -> LocId {
        (p.idx() * self.params.b as usize + b.idx() + 1) as LocId
    }

    /// Location id of the memory word for `b`.
    pub fn mem_loc(&self, b: BlockId) -> LocId {
        (self.params.p as usize * self.params.b as usize + b.idx() + 1) as LocId
    }

    /// Location id of `p`'s response buffer.
    pub fn resp_loc(&self, p: ProcId) -> LocId {
        ((self.params.p as usize + 1) * self.params.b as usize + p.idx() + 1) as LocId
    }

    fn line(&self, s: &DirState, p: ProcId, b: BlockId) -> (DirLine, Value) {
        s.lines[p.idx() * self.params.b as usize + b.idx()]
    }

    fn line_mut<'a>(&self, s: &'a mut DirState, p: ProcId, b: BlockId) -> &'a mut (DirLine, Value) {
        &mut s.lines[p.idx() * self.params.b as usize + b.idx()]
    }

    /// Does `p` have any outstanding request (WaitS/WaitM on any block)?
    fn outstanding(&self, s: &DirState, p: ProcId) -> bool {
        self.params
            .blocks()
            .any(|b| matches!(self.line(s, p, b).0, DirLine::WaitS | DirLine::WaitM))
    }

    /// The block `p` is waiting on, if any.
    fn waiting_block(&self, s: &DirState, p: ProcId) -> Option<(BlockId, DirLine)> {
        self.params.blocks().find_map(|b| {
            let (l, _) = self.line(s, p, b);
            matches!(l, DirLine::WaitS | DirLine::WaitM).then_some((b, l))
        })
    }
}

impl Protocol for DirectoryProtocol {
    type State = DirState;

    fn name(&self) -> &'static str {
        "directory"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn locations(&self) -> u32 {
        // caches + memory + response buffers
        (self.params.p as u32 + 1) * self.params.b as u32 + self.params.p as u32
    }

    fn initial(&self) -> Self::State {
        DirState {
            lines: vec![
                (DirLine::I, Value::BOTTOM);
                self.params.p as usize * self.params.b as usize
            ],
            mem: vec![Value::BOTTOM; self.params.b as usize],
            dir: vec![DirEntry::Uncached; self.params.b as usize],
            resp: vec![Value::BOTTOM; self.params.p as usize],
        }
    }

    fn transitions(&self, s: &Self::State) -> Vec<Transition<Self::State>> {
        let mut out = Vec::new();
        self.transitions_into(s, &mut out);
        out
    }

    fn transitions_into(&self, s: &Self::State, out: &mut Vec<Transition<Self::State>>) {
        for p in self.params.procs() {
            // Fill completions.
            if let Some((b, wait)) = self.waiting_block(s, p) {
                let mut next = s.clone();
                let v = s.resp[p.idx()];
                *self.line_mut(&mut next, p, b) = (
                    if wait == DirLine::WaitS {
                        DirLine::S
                    } else {
                        DirLine::M
                    },
                    v,
                );
                out.push(Transition {
                    action: Action::Internal(
                        if wait == DirLine::WaitS {
                            "FillS"
                        } else {
                            "FillM"
                        },
                        self.cache_loc(p, b),
                    ),
                    next,
                    tracking: Tracking::copies(vec![(
                        self.cache_loc(p, b),
                        CopySrc::Loc(self.resp_loc(p)),
                    )]),
                });
            }
            for b in self.params.blocks() {
                let (line, val) = self.line(s, p, b);
                // Hits.
                if matches!(line, DirLine::S | DirLine::M) {
                    out.push(Transition {
                        action: Action::Mem(Op::load(p, b, val)),
                        next: s.clone(),
                        tracking: Tracking::mem(self.cache_loc(p, b)),
                    });
                }
                if line == DirLine::M {
                    for v in self.params.values() {
                        let mut next = s.clone();
                        self.line_mut(&mut next, p, b).1 = v;
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.cache_loc(p, b)),
                        });
                    }
                    // Writeback-eviction: dirty data home, directory
                    // uncached.
                    let mut next = s.clone();
                    next.mem[b.idx()] = val;
                    next.dir[b.idx()] = DirEntry::Uncached;
                    *self.line_mut(&mut next, p, b) = (DirLine::I, val);
                    out.push(Transition {
                        action: Action::Internal("WbEvict", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(vec![
                            (self.mem_loc(b), CopySrc::Loc(self.cache_loc(p, b))),
                            (self.cache_loc(p, b), CopySrc::Invalid),
                        ]),
                    });
                }
                if line == DirLine::S {
                    // Silent eviction; directory sharer bit cleared.
                    let mut next = s.clone();
                    if let DirEntry::Shared(mask) = next.dir[b.idx()] {
                        let m = mask & !(1 << p.idx());
                        next.dir[b.idx()] = if m == 0 {
                            DirEntry::Uncached
                        } else {
                            DirEntry::Shared(m)
                        };
                    }
                    *self.line_mut(&mut next, p, b) = (DirLine::I, val);
                    out.push(Transition {
                        action: Action::Internal("Evict", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(vec![(self.cache_loc(p, b), CopySrc::Invalid)]),
                    });
                }
                // Requests (only from I, one outstanding per processor).
                // While an exclusive fill is in flight (directory says
                // Owned but the owner is still WaitM), the home blocks new
                // requests for the block — the atomic-directory analogue
                // of NACKing until the previous transaction completes.
                let home_ready = match s.dir[b.idx()] {
                    DirEntry::Owned(q) => self.line(s, ProcId(q), b).0 == DirLine::M,
                    _ => true,
                };
                if line == DirLine::I && home_ready && !self.outstanding(s, p) {
                    // ReqS: home returns the clean value.
                    let mut next = s.clone();
                    let mut copies = Vec::new();
                    match s.dir[b.idx()] {
                        DirEntry::Owned(q) => {
                            let q = ProcId(q);
                            // Owner writes back and downgrades.
                            copies.push((self.mem_loc(b), CopySrc::Loc(self.cache_loc(q, b))));
                            next.mem[b.idx()] = self.line(s, q, b).1;
                            self.line_mut(&mut next, q, b).0 = DirLine::S;
                            next.dir[b.idx()] = DirEntry::Shared((1 << q.idx()) | (1 << p.idx()));
                        }
                        DirEntry::Shared(mask) => {
                            next.dir[b.idx()] = DirEntry::Shared(mask | (1 << p.idx()));
                        }
                        DirEntry::Uncached => {
                            next.dir[b.idx()] = DirEntry::Shared(1 << p.idx());
                        }
                    }
                    copies.push((self.resp_loc(p), CopySrc::Loc(self.mem_loc(b))));
                    next.resp[p.idx()] = next.mem[b.idx()];
                    self.line_mut(&mut next, p, b).0 = DirLine::WaitS;
                    out.push(Transition {
                        action: Action::Internal("ReqS", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(copies),
                    });

                    // ReqM: invalidate sharers (and abort in-flight fills),
                    // take the owner's data or memory's.
                    let mut next = s.clone();
                    let mut copies = Vec::new();
                    match s.dir[b.idx()] {
                        DirEntry::Owned(q) => {
                            let q = ProcId(q);
                            copies.push((self.resp_loc(p), CopySrc::Loc(self.cache_loc(q, b))));
                            next.resp[p.idx()] = self.line(s, q, b).1;
                            *self.line_mut(&mut next, q, b) = (DirLine::I, self.line(s, q, b).1);
                            copies.push((self.cache_loc(q, b), CopySrc::Invalid));
                        }
                        DirEntry::Shared(mask) => {
                            for q in self.params.procs() {
                                if q != p && mask & (1 << q.idx()) != 0 {
                                    self.line_mut(&mut next, q, b).0 = DirLine::I;
                                    copies.push((self.cache_loc(q, b), CopySrc::Invalid));
                                }
                            }
                            copies.push((self.resp_loc(p), CopySrc::Loc(self.mem_loc(b))));
                            next.resp[p.idx()] = s.mem[b.idx()];
                        }
                        DirEntry::Uncached => {
                            copies.push((self.resp_loc(p), CopySrc::Loc(self.mem_loc(b))));
                            next.resp[p.idx()] = s.mem[b.idx()];
                        }
                    }
                    // Abort any in-flight shared fills for this block.
                    for q in self.params.procs() {
                        if q != p && self.line(s, q, b).0 == DirLine::WaitS {
                            self.line_mut(&mut next, q, b).0 = DirLine::I;
                            copies.push((self.resp_loc(q), CopySrc::Invalid));
                        }
                    }
                    next.dir[b.idx()] = DirEntry::Owned(p.0);
                    self.line_mut(&mut next, p, b).0 = DirLine::WaitM;
                    out.push(Transition {
                        action: Action::Internal("ReqM", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(copies),
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

    #[test]
    fn random_runs_are_sc() {
        let mut rng = SmallRng::seed_from_u64(31);
        for i in 0..15 {
            let mut r = Runner::new(DirectoryProtocol::new(Params::new(2, 2, 2)));
            r.run_random(50, 0.5, &mut rng);
            let t = r.run().trace();
            assert!(has_serial_reordering(&t), "run {i}: non-SC trace {t}");
        }
    }

    #[test]
    fn request_fill_roundtrip() {
        let proto = DirectoryProtocol::new(Params::new(2, 1, 2));
        let mut r = Runner::new(proto);
        let req = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("ReqS", 1)))
            .unwrap();
        r.take(req);
        assert_eq!(r.state().lines[0].0, DirLine::WaitS);
        let fill = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("FillS", 1)))
            .unwrap();
        r.take(fill);
        assert_eq!(r.state().lines[0].0, DirLine::S);
        // The fill's tracking copies from the response buffer.
        let step = r.run().steps.last().unwrap();
        let p1 = ProcId(1);
        let proto = DirectoryProtocol::new(Params::new(2, 1, 2));
        assert_eq!(
            step.tracking.copies,
            vec![(
                proto.cache_loc(p1, BlockId(1)),
                CopySrc::Loc(proto.resp_loc(p1))
            )]
        );
    }

    #[test]
    fn reqm_aborts_inflight_fills() {
        let proto = DirectoryProtocol::new(Params::new(2, 1, 2));
        let mut r = Runner::new(proto);
        // P1 requests shared...
        let req = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("ReqS", 1)))
            .unwrap();
        r.take(req);
        // ...but P2 grabs exclusive before the fill lands.
        let reqm = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("ReqM", 2)))
            .unwrap();
        r.take(reqm);
        // P1's fill was aborted.
        assert_eq!(r.state().lines[0].0, DirLine::I);
        assert!(!r
            .enabled()
            .iter()
            .any(|t| matches!(t.action, Action::Internal("FillS", 1))));
    }

    #[test]
    fn one_outstanding_request_per_processor() {
        let proto = DirectoryProtocol::new(Params::new(1, 2, 1));
        let mut r = Runner::new(proto);
        let req = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("ReqS", _)))
            .unwrap();
        r.take(req);
        // No further requests until the fill completes.
        assert!(!r
            .enabled()
            .iter()
            .any(|t| matches!(t.action, Action::Internal("ReqS" | "ReqM", _))));
    }

    #[test]
    fn owner_writeback_on_reqs() {
        let proto = DirectoryProtocol::new(Params::new(2, 1, 2));
        let mut r = Runner::new(proto);
        let p1 = ProcId(1);
        let p2 = ProcId(2);
        let b = BlockId(1);
        // P1 gets M and stores 2.
        let reqm = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("ReqM", 1)))
            .unwrap();
        r.take(reqm);
        let fill = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("FillM", 1)))
            .unwrap();
        r.take(fill);
        let st = r
            .enabled()
            .into_iter()
            .find(|t| t.action.op() == Some(Op::store(p1, b, Value(2))))
            .unwrap();
        r.take(st);
        // P2 requests shared: owner must write back; P2's response holds 2.
        let reqs = r
            .enabled()
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("ReqS", 2)))
            .unwrap();
        r.take(reqs);
        assert_eq!(r.state().mem[0], Value(2));
        assert_eq!(r.state().resp[p2.idx()], Value(2));
        assert_eq!(r.state().lines[0].0, DirLine::S, "owner downgraded");
    }
}
