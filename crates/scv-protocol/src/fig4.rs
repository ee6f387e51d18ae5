//! The Get-Shared cache protocol of paper Figure 4.
//!
//! Each processor has a small set of cache slots; a `ST` writes a view of a
//! block into one of its slots, `Get-Shared` copies a block's view from
//! another processor's slot, and a `LD` reads any of the processor's own
//! slots. Each processor holds at most one view per block.
//!
//! The protocol never invalidates remote copies, so with three or more
//! processors it is **not** sequentially consistent (a processor can read a
//! fresh view and then fetch a stale view of the same block from a third
//! processor) — making it a useful negative example in addition to its
//! paper role of illustrating tracking labels and ST indexes.

use crate::api::{Action, CopySrc, LocId, Protocol, Tracking, Transition};
use scv_types::{BlockId, Op, Params, ProcId, Value};

/// One cache slot: empty, or a view `(block, value)`.
type Slot = Option<(u8, Value)>;

/// The Figure 4 protocol: `p` processors with `slots` cache slots each.
#[derive(Clone, Debug)]
pub struct Fig4Protocol {
    params: Params,
    slots: u8,
}

impl Fig4Protocol {
    /// A protocol with the given parameters and per-processor slot count.
    pub fn new(params: Params, slots: u8) -> Self {
        assert!(slots >= 1);
        Fig4Protocol { params, slots }
    }

    /// The exact configuration of paper Figure 4: two processors with two
    /// slots each, three blocks, three values.
    pub fn paper() -> Self {
        Fig4Protocol::new(Params::new(2, 3, 3), 2)
    }

    /// The location id of processor `p`'s slot `i` (0-based slot).
    pub fn loc(&self, p: ProcId, i: u8) -> LocId {
        (p.idx() as u32) * self.slots as u32 + i as u32 + 1
    }

    /// Candidate target slots for installing a view of `block` at `p`:
    /// the slot already holding the block if any (a processor keeps at
    /// most one view per block), otherwise every slot.
    fn targets(&self, state: &[Slot], p: ProcId, block: BlockId) -> Vec<u8> {
        let base = p.idx() * self.slots as usize;
        let mine = &state[base..base + self.slots as usize];
        if let Some(i) = mine
            .iter()
            .position(|s| matches!(s, Some((b, _)) if *b == block.0))
        {
            return vec![i as u8];
        }
        (0..self.slots).collect()
    }
}

impl Protocol for Fig4Protocol {
    /// All slots, processor-major.
    type State = Vec<Slot>;

    fn name(&self) -> &'static str {
        "fig4-get-shared"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn locations(&self) -> u32 {
        self.params.p as u32 * self.slots as u32
    }

    fn initial(&self) -> Self::State {
        vec![None; self.params.p as usize * self.slots as usize]
    }

    fn transitions(&self, state: &Self::State) -> Vec<Transition<Self::State>> {
        let mut out = Vec::new();
        self.transitions_into(state, &mut out);
        out
    }

    fn transitions_into(&self, state: &Self::State, out: &mut Vec<Transition<Self::State>>) {
        for p in self.params.procs() {
            let base = p.idx() * self.slots as usize;
            // LD from any of p's populated slots.
            for i in 0..self.slots {
                if let Some((b, v)) = state[base + i as usize] {
                    out.push(Transition {
                        action: Action::Mem(Op::load(p, BlockId(b), v)),
                        next: state.clone(),
                        tracking: Tracking::mem(self.loc(p, i)),
                    });
                }
            }
            // ST into a candidate slot.
            for b in self.params.blocks() {
                for v in self.params.values() {
                    for i in self.targets(state, p, b) {
                        let mut next = state.clone();
                        next[base + i as usize] = Some((b.0, v));
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.loc(p, i)),
                        });
                    }
                }
            }
            // Get-Shared: copy a view of block b from another processor.
            for b in self.params.blocks() {
                for q in self.params.procs() {
                    if q == p {
                        continue;
                    }
                    let qbase = q.idx() * self.slots as usize;
                    for j in 0..self.slots {
                        let Some((qb, qv)) = state[qbase + j as usize] else {
                            continue;
                        };
                        if qb != b.0 {
                            continue;
                        }
                        for i in self.targets(state, p, b) {
                            let mut next = state.clone();
                            next[base + i as usize] = Some((b.0, qv));
                            out.push(Transition {
                                action: Action::Internal(
                                    "Get-Shared",
                                    (p.0 as u32) << 8 | b.0 as u32,
                                ),
                                next,
                                tracking: Tracking::copies(vec![(
                                    self.loc(p, i),
                                    CopySrc::Loc(self.loc(q, j)),
                                )]),
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, StIndexTracker};

    /// Reproduce the exact run of paper Figure 4 and its ST-index table.
    #[test]
    fn figure4_run_and_st_indexes() {
        let proto = Fig4Protocol::paper();
        let mut r = Runner::new(proto);
        let mut tracker = StIndexTracker::new(r.protocol().locations());

        // ST(P1,B1,1) into location 1.
        let t = r
            .enabled()
            .into_iter()
            .find(|t| {
                matches!(t.action, Action::Mem(op)
                    if op.is_store() && op.proc == ProcId(1) && op.block == BlockId(1)
                        && op.value == Value(1))
                    && t.tracking.loc == Some(1)
            })
            .expect("ST(P1,B1,1) @ loc 1");
        r.take(t);
        tracker.step(r.run().steps.last().unwrap());

        // ST(P2,B2,2) into location 4.
        let t = r
            .enabled()
            .into_iter()
            .find(|t| {
                matches!(t.action, Action::Mem(op)
                    if op.is_store() && op.proc == ProcId(2) && op.block == BlockId(2)
                        && op.value == Value(2))
                    && t.tracking.loc == Some(4)
            })
            .expect("ST(P2,B2,2) @ loc 4");
        r.take(t);
        tracker.step(r.run().steps.last().unwrap());

        // Get-Shared(P2,B1): copy location 1 -> location 3.
        let t = r
            .enabled()
            .into_iter()
            .find(|t| {
                matches!(t.action, Action::Internal("Get-Shared", pb) if pb == (2 << 8) | 1)
                    && t.tracking.copies == vec![(3, CopySrc::Loc(1))]
            })
            .expect("Get-Shared(P2,B1) loc1->loc3");
        r.take(t);
        tracker.step(r.run().steps.last().unwrap());

        // ST(P1,B3,3) into location 1 (overwriting B1's view).
        let t = r
            .enabled()
            .into_iter()
            .find(|t| {
                matches!(t.action, Action::Mem(op)
                    if op.is_store() && op.proc == ProcId(1) && op.block == BlockId(3)
                        && op.value == Value(3))
                    && t.tracking.loc == Some(1)
            })
            .expect("ST(P1,B3,3) @ loc 1");
        r.take(t);
        tracker.step(r.run().steps.last().unwrap());

        // Figure 4(c): ST-index(R,1) = 3, ST-index(R,2) = 0,
        // ST-index(R,3) = 1, ST-index(R,4) = 2.
        assert_eq!(tracker.all(), &[3, 0, 1, 2]);

        // Figure 4(b) final state.
        let s = r.state();
        assert_eq!(s[0], Some((3, Value(3)))); // loc 1: B3:3
        assert_eq!(s[1], None); // loc 2: ⊥
        assert_eq!(s[2], Some((1, Value(1)))); // loc 3: B1:1
        assert_eq!(s[3], Some((2, Value(2)))); // loc 4: B2:2
    }

    #[test]
    fn one_view_per_block_per_processor() {
        let proto = Fig4Protocol::new(Params::new(2, 2, 2), 2);
        let mut state = proto.initial();
        state[0] = Some((1, Value(1)));
        // Installing B1 at P1 again must target slot 0 only.
        assert_eq!(proto.targets(&state, ProcId(1), BlockId(1)), vec![0]);
        // A different block may go anywhere.
        assert_eq!(proto.targets(&state, ProcId(1), BlockId(2)), vec![0, 1]);
    }

    #[test]
    fn loads_only_from_own_cache() {
        let proto = Fig4Protocol::new(Params::new(2, 2, 2), 1);
        let mut state = proto.initial();
        state[0] = Some((1, Value(2))); // P1 holds B1:2
        let ts = proto.transitions(&state);
        let loads: Vec<Op> = ts
            .iter()
            .filter_map(|t| t.action.op())
            .filter(|o| o.is_load())
            .collect();
        assert_eq!(loads, vec![Op::load(ProcId(1), BlockId(1), Value(2))]);
    }

    #[test]
    fn three_processors_admit_non_sc_trace() {
        // P1 stores 1; P3 Get-Shares the stale view; P1 stores 2; P2
        // Get-Shares the fresh view, reads 2, then Get-Shares the stale
        // view from P3 and reads 1 — not SC.
        let proto = Fig4Protocol::new(Params::new(3, 1, 2), 1);
        let mut r = Runner::new(proto);
        let pick_store = |r: &Runner<Fig4Protocol>, v: u8| {
            r.enabled()
                .into_iter()
                .find(|t| {
                    matches!(t.action, Action::Mem(op)
                        if op.is_store() && op.proc == ProcId(1) && op.value == Value(v))
                })
                .unwrap()
        };
        let pick_gs =
            |r: &Runner<Fig4Protocol>, p: u8, src_loc: LocId| {
                r.enabled()
                .into_iter()
                .find(|t| {
                    matches!(t.action, Action::Internal("Get-Shared", pb) if (pb >> 8) == p as u32)
                        && t.tracking.copies.iter().any(|(_, s)| *s == CopySrc::Loc(src_loc))
                })
                .unwrap()
            };
        let pick_load = |r: &Runner<Fig4Protocol>, p: u8, v: u8| {
            r.enabled()
                .into_iter()
                .find(|t| {
                    matches!(t.action, Action::Mem(op)
                        if op.is_load() && op.proc == ProcId(p) && op.value == Value(v))
                })
                .unwrap()
        };
        let t = pick_store(&r, 1);
        r.take(t); // ST(P1,B1,1) @ loc 1
        let t = pick_gs(&r, 3, 1);
        r.take(t); // P3 grabs stale 1
        let t = pick_store(&r, 2);
        r.take(t); // ST(P1,B1,2)
        let t = pick_gs(&r, 2, 1);
        r.take(t); // P2 grabs fresh 2
        let t = pick_load(&r, 2, 2);
        r.take(t); // P2 reads 2
        let t = pick_gs(&r, 2, 3);
        r.take(t); // P2 grabs stale 1 from P3
        let t = pick_load(&r, 2, 1);
        r.take(t); // P2 reads 1 after 2!
        let trace = r.run().trace();
        assert!(!scv_graph_has_serial_reordering(&trace));
    }

    // Local shim so the dev-dependency is explicit at the call site.
    fn scv_graph_has_serial_reordering(t: &scv_types::Trace) -> bool {
        scv_graph::has_serial_reordering(t)
    }
}
