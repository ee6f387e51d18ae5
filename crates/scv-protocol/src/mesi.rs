//! A MESI cache-coherence protocol (MSI plus the Exclusive state).
//!
//! The Exclusive state is granted when a BusRd finds no other cached copy;
//! the holder may then store *silently* — without any bus transaction —
//! by upgrading E→M locally. Silent upgrades are precisely the kind of
//! optimization that makes coherence protocols error-prone: the store is
//! never observed on the bus, yet it must still serialize correctly. MESI
//! retains the real-time ST reordering property (only one cache can be in
//! E/M, so stores to a block still occur in a single per-block order), so
//! the real-time ST order generator applies and the protocol verifies.
//!
//! [`MesiProtocol::buggy`] injects a realistic fault: the directory of
//! sharers consulted by BusRd is stale — a concurrent silent E→M upgrade
//! is missed and a *second* cache is granted E for the same block,
//! breaking the single-writer invariant.

use crate::api::{Action, CopySrc, LocId, Protocol, Tracking, Transition};
use scv_types::{BlockId, Op, Params, ProcId, Value};

/// Cache line state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MesiLine {
    /// Modified: exclusive, dirty.
    M,
    /// Exclusive: sole copy, clean — may upgrade to M silently.
    E,
    /// Shared: clean, read-only.
    S,
    /// Invalid.
    #[default]
    I,
}

scv_types::pack_enum!(MesiLine { M, E, S, I });

/// Protocol state: one line per (processor, block) plus memory.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MesiState {
    /// `lines[p.idx()*b + blk.idx()]` = (state, cached value).
    pub lines: Vec<(MesiLine, Value)>,
    /// Memory contents per block.
    pub mem: Vec<Value>,
}

scv_types::pack_struct!(MesiState { lines, mem });

/// The MESI protocol (optionally fault-injected).
#[derive(Clone, Debug)]
pub struct MesiProtocol {
    params: Params,
    buggy: bool,
}

impl MesiProtocol {
    /// A correct MESI protocol.
    pub fn new(params: Params) -> Self {
        MesiProtocol {
            params,
            buggy: false,
        }
    }

    /// MESI where BusRd can miss a concurrent M holder and wrongly grant E
    /// (double-exclusivity bug).
    pub fn buggy(params: Params) -> Self {
        MesiProtocol {
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

    fn line(&self, s: &MesiState, p: ProcId, b: BlockId) -> (MesiLine, Value) {
        s.lines[p.idx() * self.params.b as usize + b.idx()]
    }

    fn line_mut<'a>(
        &self,
        s: &'a mut MesiState,
        p: ProcId,
        b: BlockId,
    ) -> &'a mut (MesiLine, Value) {
        &mut s.lines[p.idx() * self.params.b as usize + b.idx()]
    }

    fn holders(&self, s: &MesiState, b: BlockId, except: ProcId) -> Vec<(ProcId, MesiLine)> {
        self.params
            .procs()
            .filter(|&q| q != except)
            .map(|q| (q, self.line(s, q, b).0))
            .filter(|(_, l)| *l != MesiLine::I)
            .collect()
    }
}

impl Protocol for MesiProtocol {
    type State = MesiState;

    fn name(&self) -> &'static str {
        if self.buggy {
            "mesi-buggy"
        } else {
            "mesi"
        }
    }

    fn params(&self) -> Params {
        self.params
    }

    fn locations(&self) -> u32 {
        (self.params.p as u32 + 1) * self.params.b as u32
    }

    fn initial(&self) -> Self::State {
        MesiState {
            lines: vec![(MesiLine::I, Value::BOTTOM); (self.params.p * self.params.b) as usize],
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
                // Loads hit in M/E/S.
                if line != MesiLine::I {
                    out.push(Transition {
                        action: Action::Mem(Op::load(p, b, val)),
                        next: s.clone(),
                        tracking: Tracking::mem(self.cache_loc(p, b)),
                    });
                }
                // Stores hit in M; E upgrades silently first.
                if line == MesiLine::M {
                    for v in self.params.values() {
                        let mut next = s.clone();
                        self.line_mut(&mut next, p, b).1 = v;
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.cache_loc(p, b)),
                        });
                    }
                }
                if line == MesiLine::E {
                    // Silent E -> M upgrade: no bus transaction, no copies.
                    let mut next = s.clone();
                    self.line_mut(&mut next, p, b).0 = MesiLine::M;
                    out.push(Transition {
                        action: Action::Internal("SilentUpgrade", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::none(),
                    });
                }
                match line {
                    MesiLine::M => {
                        // Writeback eviction.
                        let mut next = s.clone();
                        next.mem[b.idx()] = val;
                        self.line_mut(&mut next, p, b).0 = MesiLine::I;
                        out.push(Transition {
                            action: Action::Internal("EvictM", self.cache_loc(p, b)),
                            next,
                            tracking: Tracking::copies(vec![
                                (self.mem_loc(b), CopySrc::Loc(self.cache_loc(p, b))),
                                (self.cache_loc(p, b), CopySrc::Invalid),
                            ]),
                        });
                    }
                    MesiLine::E | MesiLine::S => {
                        // Clean lines evict silently.
                        let mut next = s.clone();
                        self.line_mut(&mut next, p, b).0 = MesiLine::I;
                        out.push(Transition {
                            action: Action::Internal("Evict", self.cache_loc(p, b)),
                            next,
                            tracking: Tracking::copies(vec![(
                                self.cache_loc(p, b),
                                CopySrc::Invalid,
                            )]),
                        });
                        if line == MesiLine::S {
                            // BusUpgr from S: invalidate other sharers.
                            let mut next = s.clone();
                            let mut copies = Vec::new();
                            for (q, l) in self.holders(s, b, p) {
                                if l == MesiLine::S {
                                    self.line_mut(&mut next, q, b).0 = MesiLine::I;
                                    copies.push((self.cache_loc(q, b), CopySrc::Invalid));
                                }
                            }
                            self.line_mut(&mut next, p, b).0 = MesiLine::M;
                            out.push(Transition {
                                action: Action::Internal("BusUpgr", self.cache_loc(p, b)),
                                next,
                                tracking: Tracking::copies(copies),
                            });
                        }
                    }
                    MesiLine::I => {
                        let holders = self.holders(s, b, p);
                        // The buggy variant's stale snoop: an M holder that
                        // got there via a silent upgrade is invisible, so
                        // the read is served (stale) from memory and E is
                        // wrongly granted.
                        let visible: Vec<(ProcId, MesiLine)> = if self.buggy {
                            holders
                                .iter()
                                .copied()
                                .filter(|(_, l)| *l != MesiLine::M)
                                .collect()
                        } else {
                            holders.clone()
                        };
                        // BusRd: E if no (visible) copies, else S.
                        let mut next = s.clone();
                        let mut copies = Vec::new();
                        let owner = holders
                            .iter()
                            .find(|(_, l)| *l == MesiLine::M)
                            .map(|(q, _)| *q)
                            .filter(|_| !self.buggy);
                        let granted = if visible.is_empty() {
                            MesiLine::E
                        } else {
                            MesiLine::S
                        };
                        let fill = match owner {
                            Some(q) => {
                                let qv = self.line(s, q, b).1;
                                copies.push((self.mem_loc(b), CopySrc::Loc(self.cache_loc(q, b))));
                                next.mem[b.idx()] = qv;
                                self.line_mut(&mut next, q, b).0 = MesiLine::S;
                                copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                                qv
                            }
                            None => {
                                copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                                s.mem[b.idx()]
                            }
                        };
                        // Downgrade a visible E holder to S.
                        for (q, l) in &visible {
                            if *l == MesiLine::E {
                                self.line_mut(&mut next, *q, b).0 = MesiLine::S;
                            }
                        }
                        let granted = if owner.is_some() {
                            MesiLine::S
                        } else {
                            granted
                        };
                        *self.line_mut(&mut next, p, b) = (granted, fill);
                        out.push(Transition {
                            action: Action::Internal("BusRd", self.cache_loc(p, b)),
                            next,
                            tracking: Tracking::copies(copies),
                        });
                        // BusRdX: take M, invalidating everyone.
                        let mut next = s.clone();
                        let mut copies = Vec::new();
                        let fill = match holders.iter().find(|(_, l)| *l == MesiLine::M) {
                            Some((q, _)) if !self.buggy => {
                                let qv = self.line(s, *q, b).1;
                                copies.push((
                                    self.cache_loc(p, b),
                                    CopySrc::Loc(self.cache_loc(*q, b)),
                                ));
                                self.line_mut(&mut next, *q, b).0 = MesiLine::I;
                                copies.push((self.cache_loc(*q, b), CopySrc::Invalid));
                                qv
                            }
                            _ => {
                                copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                                s.mem[b.idx()]
                            }
                        };
                        for (q, l) in &holders {
                            if (*l != MesiLine::M || !self.buggy)
                                && self.line(&next, *q, b).0 != MesiLine::I
                            {
                                self.line_mut(&mut next, *q, b).0 = MesiLine::I;
                                copies.push((self.cache_loc(*q, b), CopySrc::Invalid));
                            }
                        }
                        *self.line_mut(&mut next, p, b) = (MesiLine::M, fill);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scv_graph::has_serial_reordering;

    #[test]
    fn random_runs_of_correct_mesi_are_sc() {
        let mut rng = SmallRng::seed_from_u64(61);
        for i in 0..15 {
            let mut r = Runner::new(MesiProtocol::new(Params::new(2, 2, 2)));
            r.run_random(50, 0.5, &mut rng);
            let t = r.run().trace();
            assert!(has_serial_reordering(&t), "run {i}: non-SC trace {t}");
        }
    }

    #[test]
    fn exclusive_granted_only_without_copies() {
        let proto = MesiProtocol::new(Params::new(2, 1, 1));
        let s = proto.initial();
        let t = proto
            .transitions(&s)
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("BusRd", 1)))
            .unwrap();
        assert_eq!(t.next.lines[0].0, MesiLine::E, "first reader gets E");
        // Second reader: the E holder downgrades, both end S.
        let t2 = proto
            .transitions(&t.next)
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("BusRd", 2)))
            .unwrap();
        assert_eq!(t2.next.lines[0].0, MesiLine::S);
        assert_eq!(t2.next.lines[1].0, MesiLine::S);
    }

    #[test]
    fn silent_upgrade_enables_stores() {
        let proto = MesiProtocol::new(Params::new(1, 1, 2));
        let s = proto.initial();
        let rd = proto
            .transitions(&s)
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("BusRd", _)))
            .unwrap();
        // In E: no stores yet, but a silent upgrade is enabled.
        assert!(!proto
            .transitions(&rd.next)
            .iter()
            .any(|t| matches!(t.action, Action::Mem(op) if op.is_store())));
        let up = proto
            .transitions(&rd.next)
            .into_iter()
            .find(|t| matches!(t.action, Action::Internal("SilentUpgrade", _)))
            .unwrap();
        assert!(up.tracking.copies.is_empty(), "silent: no bus traffic");
        assert!(proto
            .transitions(&up.next)
            .iter()
            .any(|t| matches!(t.action, Action::Mem(op) if op.is_store())));
    }

    #[test]
    fn single_writer_invariant_holds_when_correct() {
        let mut rng = SmallRng::seed_from_u64(62);
        let params = Params::new(3, 2, 2);
        let proto = MesiProtocol::new(params);
        let mut r = Runner::new(proto);
        for _ in 0..300 {
            if !r.step_random(&mut rng) {
                break;
            }
            for b in params.blocks() {
                let writers = params
                    .procs()
                    .filter(|&p| {
                        matches!(
                            r.state().lines[p.idx() * 2 + b.idx()].0,
                            MesiLine::M | MesiLine::E
                        )
                    })
                    .count();
                let others = params
                    .procs()
                    .filter(|&p| r.state().lines[p.idx() * 2 + b.idx()].0 == MesiLine::S)
                    .count();
                assert!(writers <= 1, "two exclusive holders");
                assert!(
                    writers == 0 || others == 0,
                    "exclusive coexists with shared"
                );
            }
        }
    }

    #[test]
    fn buggy_mesi_reaches_double_exclusivity() {
        // P1 silently upgrades; the buggy snoop misses the M holder and
        // grants E (then M) to P2: two writers.
        let proto = MesiProtocol::buggy(Params::new(2, 1, 2));
        let mut r = Runner::new(proto);
        let take = |r: &mut Runner<MesiProtocol>, name: &str, payload: u32| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| matches!(t.action, Action::Internal(n, pl) if n == name && pl == payload))
                .unwrap_or_else(|| panic!("{name}({payload})"));
            r.take(t);
        };
        take(&mut r, "BusRd", 1); // P1 gets E
        take(&mut r, "SilentUpgrade", 1); // P1 gets M silently
        take(&mut r, "BusRd", 2); // buggy: P2 ALSO gets E (missed the M)
        assert_eq!(r.state().lines[0].0, MesiLine::M);
        assert_eq!(r.state().lines[1].0, MesiLine::E);
    }

    #[test]
    fn buggy_mesi_produces_non_sc_trace() {
        // Message-passing litmus across two blocks: the buggy snoop lets
        // P2 read a stale ⊥ for x while P1 silently holds x=1 in M; P2
        // then observes P1's *later* store to y, making the stale x read
        // unserializable.
        let proto = MesiProtocol::buggy(Params::new(2, 2, 1));
        let x = BlockId(1);
        let y = BlockId(2);
        let p1 = ProcId(1);
        let p2 = ProcId(2);
        let locs = MesiProtocol::buggy(Params::new(2, 2, 1));
        let mut r = Runner::new(proto);
        let internal = |r: &mut Runner<MesiProtocol>, name: &str, payload: u32| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| matches!(t.action, Action::Internal(n, pl) if n == name && pl == payload))
                .unwrap_or_else(|| panic!("{name}({payload})"));
            r.take(t);
        };
        let mem = |r: &mut Runner<MesiProtocol>, op: Op| {
            let t = r
                .enabled()
                .into_iter()
                .find(|t| t.action.op() == Some(op))
                .unwrap_or_else(|| panic!("{op}"));
            r.take(t);
        };
        // P1 silently takes M on x and stores 1.
        internal(&mut r, "BusRd", locs.cache_loc(p1, x));
        internal(&mut r, "SilentUpgrade", locs.cache_loc(p1, x));
        mem(&mut r, Op::store(p1, x, Value(1)));
        // P2 reads x: the buggy snoop misses P1's M and serves stale ⊥.
        internal(&mut r, "BusRd", locs.cache_loc(p2, x));
        // P1 stores y=1 and writes it back.
        internal(&mut r, "BusRd", locs.cache_loc(p1, y));
        internal(&mut r, "SilentUpgrade", locs.cache_loc(p1, y));
        mem(&mut r, Op::store(p1, y, Value(1)));
        internal(&mut r, "EvictM", locs.cache_loc(p1, y));
        // P2 observes y=1 then the stale x=⊥.
        internal(&mut r, "BusRd", locs.cache_loc(p2, y));
        mem(&mut r, Op::load(p2, y, Value(1)));
        mem(&mut r, Op::load(p2, x, Value::BOTTOM));
        let t = r.run().trace();
        assert!(!has_serial_reordering(&t), "stale read must break SC: {t}");
    }
}
