//! A snooping MSI cache-coherence protocol on an atomic bus.
//!
//! Each processor has one cache line per block (Modified / Shared /
//! Invalid); bus transactions are atomic. Stores require the M state, so
//! the bus serializes stores to each block in real time — the protocol has
//! the real-time ST reordering property of §4.2 and is sequentially
//! consistent.
//!
//! [`MsiProtocol::buggy`] injects a classic coherence bug — an invalidation
//! that silently misses the highest-numbered sharer — which makes the
//! protocol *not* sequentially consistent and exercises the verifier's
//! rejection path.

use crate::api::{Action, CopySrc, LocId, Protocol, Tracking, Transition};
use scv_types::{BlockId, Op, Params, ProcId, Value};

/// Cache line state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Line {
    /// Modified: exclusive, dirty.
    M,
    /// Shared: clean, read-only.
    S,
    /// Invalid.
    #[default]
    I,
}

scv_types::pack_enum!(Line { M, S, I });

/// Protocol state: one line per (processor, block) plus memory.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MsiState {
    /// `lines[p.idx()*b + blk.idx()]` = (state, cached value).
    pub lines: Vec<(Line, Value)>,
    /// Memory contents per block.
    pub mem: Vec<Value>,
}

scv_types::pack_struct!(MsiState { lines, mem });

/// The MSI protocol (optionally fault-injected).
#[derive(Clone, Debug)]
pub struct MsiProtocol {
    params: Params,
    buggy: bool,
}

impl MsiProtocol {
    /// A correct MSI protocol.
    pub fn new(params: Params) -> Self {
        MsiProtocol {
            params,
            buggy: false,
        }
    }

    /// MSI with a lost invalidation: on a bus invalidation for `B`
    /// requested by `P`, the highest-numbered other sharer keeps its stale
    /// S copy.
    pub fn buggy(params: Params) -> Self {
        MsiProtocol {
            params,
            buggy: true,
        }
    }

    /// Is this the fault-injected variant?
    pub fn is_buggy(&self) -> bool {
        self.buggy
    }

    /// Location id of processor `p`'s cache line for `b`.
    pub fn cache_loc(&self, p: ProcId, b: BlockId) -> LocId {
        (p.idx() * self.params.b as usize + b.idx() + 1) as LocId
    }

    /// Location id of the memory word for `b`.
    pub fn mem_loc(&self, b: BlockId) -> LocId {
        (self.params.p as usize * self.params.b as usize + b.idx() + 1) as LocId
    }

    fn line(&self, s: &MsiState, p: ProcId, b: BlockId) -> (Line, Value) {
        s.lines[p.idx() * self.params.b as usize + b.idx()]
    }

    fn line_mut<'a>(&self, s: &'a mut MsiState, p: ProcId, b: BlockId) -> &'a mut (Line, Value) {
        &mut s.lines[p.idx() * self.params.b as usize + b.idx()]
    }

    /// The current owner (M holder) of `b`, if any.
    fn owner(&self, s: &MsiState, b: BlockId) -> Option<ProcId> {
        self.params
            .procs()
            .find(|&q| self.line(s, q, b).0 == Line::M)
    }

    /// Other processors holding `b` in S.
    fn sharers(&self, s: &MsiState, b: BlockId, except: ProcId) -> Vec<ProcId> {
        self.params
            .procs()
            .filter(|&q| q != except && self.line(s, q, b).0 == Line::S)
            .collect()
    }

    /// Invalidate `b` at every processor in `victims`, except (if buggy)
    /// the highest-numbered one. Appends the Invalid copy labels.
    fn invalidate(
        &self,
        s: &mut MsiState,
        b: BlockId,
        victims: &[ProcId],
        copies: &mut Vec<(LocId, CopySrc)>,
    ) {
        let spared = if self.buggy {
            victims.iter().max().copied()
        } else {
            None
        };
        for &q in victims {
            if Some(q) == spared {
                continue;
            }
            self.line_mut(s, q, b).0 = Line::I;
            copies.push((self.cache_loc(q, b), CopySrc::Invalid));
        }
    }
}

impl Protocol for MsiProtocol {
    type State = MsiState;

    fn name(&self) -> &'static str {
        if self.buggy {
            "msi-buggy"
        } else {
            "msi"
        }
    }

    fn params(&self) -> Params {
        self.params
    }

    fn locations(&self) -> u32 {
        (self.params.p as u32 + 1) * self.params.b as u32
    }

    fn initial(&self) -> Self::State {
        MsiState {
            lines: vec![(Line::I, Value::BOTTOM); self.params.p as usize * self.params.b as usize],
            mem: vec![Value::BOTTOM; self.params.b as usize],
        }
    }

    fn transitions(&self, s: &Self::State) -> Vec<Transition<Self::State>> {
        let mut out = Vec::new();
        self.transitions_into(s, &mut out);
        out
    }

    fn transitions_into(&self, s: &Self::State, out: &mut Vec<Transition<Self::State>>) {
        for p in self.params.procs() {
            for b in self.params.blocks() {
                let (line, val) = self.line(s, p, b);
                match line {
                    Line::M | Line::S => {
                        // Hit: load the cached value.
                        out.push(Transition {
                            action: Action::Mem(Op::load(p, b, val)),
                            next: s.clone(),
                            tracking: Tracking::mem(self.cache_loc(p, b)),
                        });
                    }
                    Line::I => {}
                }
                if line == Line::M {
                    // Store hit: any value.
                    for v in self.params.values() {
                        let mut next = s.clone();
                        self.line_mut(&mut next, p, b).1 = v;
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.cache_loc(p, b)),
                        });
                    }
                    // Writeback-eviction.
                    let mut next = s.clone();
                    let mut copies = vec![(self.mem_loc(b), CopySrc::Loc(self.cache_loc(p, b)))];
                    next.mem[b.idx()] = val;
                    self.line_mut(&mut next, p, b).0 = Line::I;
                    copies.push((self.cache_loc(p, b), CopySrc::Invalid));
                    out.push(Transition {
                        action: Action::Internal("EvictM", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(copies),
                    });
                }
                if line == Line::S {
                    // Silent eviction.
                    let mut next = s.clone();
                    self.line_mut(&mut next, p, b).0 = Line::I;
                    out.push(Transition {
                        action: Action::Internal("EvictS", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(vec![(self.cache_loc(p, b), CopySrc::Invalid)]),
                    });
                    // BusUpgr: S -> M, invalidating other sharers.
                    let mut next = s.clone();
                    let mut copies = Vec::new();
                    let sharers = self.sharers(s, b, p);
                    self.invalidate(&mut next, b, &sharers, &mut copies);
                    self.line_mut(&mut next, p, b).0 = Line::M;
                    out.push(Transition {
                        action: Action::Internal("BusUpgr", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(copies),
                    });
                }
                if line == Line::I {
                    // BusRd: I -> S; source is the owner (with writeback)
                    // or memory.
                    let mut next = s.clone();
                    let mut copies = Vec::new();
                    match self.owner(s, b) {
                        Some(q) => {
                            let qval = self.line(s, q, b).1;
                            // Owner writes back and downgrades to S.
                            copies.push((self.mem_loc(b), CopySrc::Loc(self.cache_loc(q, b))));
                            next.mem[b.idx()] = qval;
                            self.line_mut(&mut next, q, b).0 = Line::S;
                            // Requester fills from (now clean) memory.
                            copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                            *self.line_mut(&mut next, p, b) = (Line::S, qval);
                        }
                        None => {
                            copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                            *self.line_mut(&mut next, p, b) = (Line::S, s.mem[b.idx()]);
                        }
                    }
                    out.push(Transition {
                        action: Action::Internal("BusRd", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(copies),
                    });
                    // BusRdX: I -> M; invalidate everyone else.
                    let mut next = s.clone();
                    let mut copies = Vec::new();
                    let fill_val = match self.owner(s, b) {
                        Some(q) => {
                            let qval = self.line(s, q, b).1;
                            copies.push((self.cache_loc(p, b), CopySrc::Loc(self.cache_loc(q, b))));
                            self.line_mut(&mut next, q, b).0 = Line::I;
                            copies.push((self.cache_loc(q, b), CopySrc::Invalid));
                            qval
                        }
                        None => {
                            copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                            s.mem[b.idx()]
                        }
                    };
                    let sharers = self.sharers(s, b, p);
                    self.invalidate(&mut next, b, &sharers, &mut copies);
                    *self.line_mut(&mut next, p, b) = (Line::M, fill_val);
                    out.push(Transition {
                        action: Action::Internal("BusRdX", self.cache_loc(p, b)),
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

    fn params() -> Params {
        Params::new(2, 2, 2)
    }

    /// 20 × 20 = 400 cache lines, a count past `u8`: the table is sized
    /// in `usize`.
    #[test]
    fn line_table_is_sized_past_u8_range() {
        let proto = MsiProtocol::new(Params::new(20, 20, 1));
        let init = proto.initial();
        assert_eq!(init.lines.len(), 400);
        assert!(!proto.transitions(&init).is_empty());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut r = Runner::new(proto);
        r.run_random(60, 0.5, &mut rng);
    }

    #[test]
    fn random_runs_of_correct_msi_are_sc() {
        let mut rng = SmallRng::seed_from_u64(21);
        for i in 0..20 {
            let mut r = Runner::new(MsiProtocol::new(params()));
            r.run_random(40, 0.5, &mut rng);
            let t = r.run().trace();
            assert!(t.len() <= 40);
            assert!(has_serial_reordering(&t), "run {i}: non-SC trace {t}");
        }
    }

    #[test]
    fn at_most_one_owner_invariant() {
        let mut rng = SmallRng::seed_from_u64(22);
        let proto = MsiProtocol::new(Params::new(3, 2, 2));
        let mut r = Runner::new(proto);
        for _ in 0..200 {
            if !r.step_random(&mut rng) {
                break;
            }
            let s = r.state().clone();
            for b in Params::new(3, 2, 2).blocks() {
                let owners = Params::new(3, 2, 2)
                    .procs()
                    .filter(|&p| s.lines[p.idx() * 2 + b.idx()].0 == Line::M)
                    .count();
                let sharers = Params::new(3, 2, 2)
                    .procs()
                    .filter(|&p| s.lines[p.idx() * 2 + b.idx()].0 == Line::S)
                    .count();
                assert!(owners <= 1);
                assert!(owners == 0 || sharers == 0, "M coexists with S");
            }
        }
    }

    #[test]
    fn buggy_msi_reaches_a_non_sc_trace() {
        // Drive the message-passing litmus by hand:
        // P1: ST x=1; ST y=1.   P2: LD y=1; LD x=⊥  (stale S on x).
        let proto = MsiProtocol::buggy(Params::new(2, 2, 1));
        let mut r = Runner::new(proto);
        let take_internal = |r: &mut Runner<MsiProtocol>, name: &str, payload: u32| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| matches!(t.action, Action::Internal(n, pl) if n == name && pl == payload))
                .unwrap_or_else(|| panic!("internal {name}({payload}) enabled"));
            r.take(t);
        };
        let take_mem = |r: &mut Runner<MsiProtocol>, op: Op| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| t.action.op() == Some(op))
                .unwrap_or_else(|| panic!("{op} enabled"));
            r.take(t);
        };
        let x = BlockId(1);
        let y = BlockId(2);
        let p1 = ProcId(1);
        let p2 = ProcId(2);
        let proto_ref = MsiProtocol::buggy(Params::new(2, 2, 1));
        // P2 reads x=⊥ into S (so it holds a stale copy later).
        take_internal(&mut r, "BusRd", proto_ref.cache_loc(p2, x));
        // P1 acquires M on x; the buggy invalidation spares P2.
        take_internal(&mut r, "BusRdX", proto_ref.cache_loc(p1, x));
        take_mem(&mut r, Op::store(p1, x, Value(1)));
        // P1 acquires M on y and stores.
        take_internal(&mut r, "BusRdX", proto_ref.cache_loc(p1, y));
        take_mem(&mut r, Op::store(p1, y, Value(1)));
        // P1 writes y back so P2 can read the new value.
        take_internal(&mut r, "EvictM", proto_ref.cache_loc(p1, y));
        // P2 reads y=1 (fresh), then x=⊥ (stale S copy — the bug).
        take_internal(&mut r, "BusRd", proto_ref.cache_loc(p2, y));
        take_mem(&mut r, Op::load(p2, y, Value(1)));
        take_mem(&mut r, Op::load(p2, x, Value::BOTTOM));
        let t = r.run().trace();
        assert!(!has_serial_reordering(&t), "expected non-SC trace, got {t}");
    }

    #[test]
    fn correct_msi_invalidates_all_sharers() {
        let proto = MsiProtocol::new(Params::new(3, 1, 1));
        let mut s = proto.initial();
        // P2 and P3 share block 1.
        // Row-major (proc, block) indexing with b = 1: proc i is slot i.
        s.lines[1].0 = Line::S;
        s.lines[2].0 = Line::S;
        // P1 issues BusRdX.
        let t = proto
            .transitions(&s)
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("BusRdX", l) if l == proto.cache_loc(ProcId(1), BlockId(1))))
            .unwrap();
        let next = t.next;
        assert_eq!(next.lines[1].0, Line::I);
        assert_eq!(next.lines[2].0, Line::I);
        assert_eq!(next.lines[0].0, Line::M);
    }

    #[test]
    fn buggy_msi_spares_highest_sharer() {
        let proto = MsiProtocol::buggy(Params::new(3, 1, 1));
        let mut s = proto.initial();
        s.lines[1].0 = Line::S;
        s.lines[2].0 = Line::S;
        let t = proto
            .transitions(&s)
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("BusRdX", l) if l == proto.cache_loc(ProcId(1), BlockId(1))))
            .unwrap();
        let next = t.next;
        assert_eq!(next.lines[1].0, Line::I);
        assert_eq!(next.lines[2].0, Line::S, "bug: P3 keeps its stale copy");
    }

    #[test]
    fn loads_match_cache_contents() {
        let proto = MsiProtocol::new(params());
        let mut rng = SmallRng::seed_from_u64(23);
        let mut r = Runner::new(proto);
        for _ in 0..150 {
            if !r.step_random(&mut rng) {
                break;
            }
        }
        // Every load in the run returned the then-current cache value —
        // spot check by replaying with the ST-index machinery elsewhere;
        // here just confirm the trace is within bounds.
        assert!(r.run().trace().in_bounds(&params()));
    }
}
