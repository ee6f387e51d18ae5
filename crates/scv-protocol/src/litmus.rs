//! Litmus tests: the standard multiprocessor memory-model probes, with a
//! directed-execution engine that asks whether a protocol can realize a
//! given outcome trace.
//!
//! A [`Litmus`] is a target trace plus its SC verdict; [`realizable`]
//! searches a protocol's runs (interleaving internal actions freely) for
//! one whose memory operations equal the target. Combined with the SC
//! verdict this classifies protocols empirically: a protocol that realizes
//! a `forbidden_by_sc` litmus is not sequentially consistent — the same
//! conclusion the observer/checker pipeline reaches, derived from first
//! principles.

use crate::api::{Action, Protocol};
use crate::runner::{Run, Step};
use scv_types::{BlockId, Op, ProcId, Trace, Value};
use std::collections::HashSet;
use std::hash::Hash;

/// A named litmus test: a target trace and whether SC permits it.
#[derive(Clone, Debug)]
pub struct Litmus {
    /// Conventional name (SB, MP, LB, CoRR, IRIW, ...).
    pub name: &'static str,
    /// The outcome trace, in the real-time order the programs issue it.
    pub trace: Trace,
    /// Does sequential consistency permit this outcome?
    pub sc_allows: bool,
}

impl Litmus {
    /// The smallest protocol parameters that accommodate the test —
    /// searching a larger configuration only slows [`realizable`] down.
    pub fn min_params(&self) -> scv_types::Params {
        self.trace.min_params()
    }
}

fn st(p: u8, b: u8, v: u8) -> Op {
    Op::store(ProcId(p), BlockId(b), Value(v))
}
fn ld(p: u8, b: u8, v: u8) -> Op {
    Op::load(ProcId(p), BlockId(b), Value(v))
}
fn ldb(p: u8, b: u8) -> Op {
    Op::load(ProcId(p), BlockId(b), Value::BOTTOM)
}

/// Store buffering: P1: ST x; LD y.  P2: ST y; LD x. Both loads stale.
/// Forbidden under SC; the signature TSO relaxation.
pub fn store_buffering() -> Litmus {
    Litmus {
        name: "SB",
        trace: Trace::from_ops([st(1, 1, 1), st(2, 2, 1), ldb(1, 2), ldb(2, 1)]),
        sc_allows: false,
    }
}

/// Message passing: P1: ST x; ST y.  P2: LD y (new); LD x (stale).
/// Forbidden under SC (and under TSO; allowed by weaker models).
pub fn message_passing() -> Litmus {
    Litmus {
        name: "MP",
        trace: Trace::from_ops([st(1, 1, 1), st(1, 2, 1), ld(2, 2, 1), ldb(2, 1)]),
        sc_allows: false,
    }
}

/// Message passing, the SC-allowed outcome: the second load sees the data.
pub fn message_passing_ok() -> Litmus {
    Litmus {
        name: "MP+ok",
        trace: Trace::from_ops([st(1, 1, 1), st(1, 2, 1), ld(2, 2, 1), ld(2, 1, 1)]),
        sc_allows: true,
    }
}

/// Coherence of reads: P2 reads the two stores to one location in the
/// opposite of their (only possible) coherence order. Forbidden under SC
/// and under any coherent model.
pub fn corr() -> Litmus {
    Litmus {
        name: "CoRR",
        trace: Trace::from_ops([st(1, 1, 1), st(1, 1, 2), ld(2, 1, 2), ld(2, 1, 1)]),
        sc_allows: false,
    }
}

/// Read own write: a processor reads the value it just stored.
pub fn read_own_write() -> Litmus {
    Litmus {
        name: "RoW",
        trace: Trace::from_ops([st(1, 1, 1), ld(1, 1, 1)]),
        sc_allows: true,
    }
}

/// Independent reads of independent writes: P3 and P4 observe the two
/// independent stores in opposite orders. Forbidden under SC; the probe
/// separating SC/TSO from weaker models.
pub fn iriw() -> Litmus {
    Litmus {
        name: "IRIW",
        trace: Trace::from_ops([
            st(1, 1, 1),
            st(2, 2, 1),
            ld(3, 1, 1),
            ldb(3, 2),
            ld(4, 2, 1),
            ldb(4, 1),
        ]),
        sc_allows: false,
    }
}

/// The standard battery.
pub fn all() -> Vec<Litmus> {
    vec![
        store_buffering(),
        message_passing(),
        message_passing_ok(),
        corr(),
        read_own_write(),
        iriw(),
    ]
}

/// Can `protocol` produce a run whose trace equals `target`? True when
/// [`realization`] finds one within `internal_budget`.
pub fn realizable<P: Protocol>(protocol: &P, target: &Trace, internal_budget: usize) -> bool {
    realization(protocol, target, internal_budget).is_some()
}

/// A run of `protocol` whose trace equals `target`, with its tracking
/// labels, so the realization can be replayed through the
/// observer/checker pipeline or shrunk into a regression case. Searches
/// interleavings with memoization on (protocol state, operations matched),
/// bounding the internal actions taken between consecutive memory
/// operations by `internal_budget` (internal actions reachable within the
/// budget are explored exhaustively).
pub fn realization<P: Protocol>(
    protocol: &P,
    target: &Trace,
    internal_budget: usize,
) -> Option<Run> {
    #[allow(clippy::too_many_arguments)]
    fn dfs<P: Protocol>(
        protocol: &P,
        state: P::State,
        target: &Trace,
        matched: usize,
        fuel: usize,
        budget: usize,
        seen: &mut HashSet<(P::State, usize, usize)>,
        steps: &mut Vec<Step>,
    ) -> bool
    where
        P::State: Hash + Eq + Clone,
    {
        if matched == target.len() {
            return true;
        }
        if !seen.insert((state.clone(), matched, fuel)) {
            return false;
        }
        for t in protocol.transitions(&state) {
            let (advance, next_fuel) = match t.action {
                Action::Mem(op) => {
                    if op != target[matched] {
                        continue;
                    }
                    (1, budget)
                }
                Action::Internal(..) => {
                    if fuel == 0 {
                        continue;
                    }
                    (0, fuel - 1)
                }
            };
            steps.push(Step {
                action: t.action,
                tracking: t.tracking.clone(),
            });
            if dfs(
                protocol,
                t.next,
                target,
                matched + advance,
                next_fuel,
                budget,
                seen,
                steps,
            ) {
                return true;
            }
            steps.pop();
        }
        false
    }
    let mut seen = HashSet::new();
    let mut steps = Vec::new();
    dfs(
        protocol,
        protocol.initial(),
        target,
        0,
        internal_budget,
        internal_budget,
        &mut seen,
        &mut steps,
    )
    .then_some(Run { steps })
}

/// Run the battery against a protocol: returns, per litmus, whether the
/// outcome is realizable. A protocol is *observationally SC on the
/// battery* iff it realizes no `sc_allows == false` litmus.
pub fn classify<P: Protocol>(protocol: &P, internal_budget: usize) -> Vec<(Litmus, bool)> {
    all()
        .into_iter()
        .map(|l| {
            let hit = realizable(protocol, &l.trace, internal_budget);
            (l, hit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MesiProtocol, MsiProtocol, SerialMemory, StoreBufferTso};
    use scv_graph::has_serial_reordering;

    #[test]
    fn battery_verdicts_match_direct_search() {
        // The `sc_allows` annotations must agree with the ground-truth
        // serial-reordering search.
        for l in all() {
            assert_eq!(
                has_serial_reordering(&l.trace),
                l.sc_allows,
                "annotation wrong for {}",
                l.name
            );
        }
    }

    #[test]
    fn serial_memory_realizes_only_sc_outcomes() {
        for l in all() {
            let p = SerialMemory::new(l.min_params());
            let hit = realizable(&p, &l.trace, 2);
            assert_eq!(
                hit, l.sc_allows,
                "serial memory realizes exactly the SC outcomes ({})",
                l.name
            );
        }
    }

    #[test]
    fn msi_realizes_only_sc_outcomes() {
        for l in all() {
            let p = MsiProtocol::new(l.min_params());
            let hit = realizable(&p, &l.trace, 4);
            if l.sc_allows {
                assert!(hit, "MSI failed to realize allowed {}", l.name);
            } else {
                assert!(!hit, "MSI realized forbidden {}", l.name);
            }
        }
    }

    #[test]
    fn mesi_realizes_no_forbidden_outcomes() {
        for l in all() {
            if l.sc_allows {
                continue;
            }
            let p = MesiProtocol::new(l.min_params());
            assert!(
                !realizable(&p, &l.trace, 4),
                "MESI realized forbidden {}",
                l.name
            );
        }
    }

    #[test]
    fn tso_realizes_store_buffering_but_not_mp() {
        let sb = store_buffering();
        let p = StoreBufferTso::new(sb.min_params(), 2);
        assert!(realizable(&p, &sb.trace, 4), "TSO must realize SB");
        // TSO preserves store order and load order: MP stays forbidden.
        let mp = message_passing();
        let p = StoreBufferTso::new(mp.min_params(), 2);
        assert!(!realizable(&p, &mp.trace, 6));
        // And the coherent-read probe stays forbidden too.
        let c = corr();
        let p = StoreBufferTso::new(c.min_params(), 2);
        assert!(!realizable(&p, &c.trace, 6));
        // IRIW is forbidden under TSO as well (single memory order).
        let i = iriw();
        let p = StoreBufferTso::new(i.min_params(), 2);
        assert!(!realizable(&p, &i.trace, 6));
    }

    #[test]
    fn buggy_msi_realizes_message_passing_violation() {
        let mp = message_passing();
        let p = MsiProtocol::buggy(mp.min_params());
        assert!(
            realizable(&p, &mp.trace, 6),
            "the lost invalidation must expose the MP violation"
        );
    }

    #[test]
    fn buggy_mesi_realizes_message_passing_violation() {
        let mp = message_passing();
        let p = MesiProtocol::buggy(mp.min_params());
        assert!(realizable(&p, &mp.trace, 8));
    }

    #[test]
    fn realization_returns_the_witnessing_run() {
        // The run's trace must be exactly the target, and realization must
        // agree with the boolean probe on both outcomes.
        let mp = message_passing();
        let p = MsiProtocol::buggy(mp.min_params());
        let run = realization(&p, &mp.trace, 6).expect("buggy MSI realizes MP");
        assert_eq!(run.trace(), mp.trace);
        let p_ok = MsiProtocol::new(mp.min_params());
        assert!(realization(&p_ok, &mp.trace, 6).is_none());
        assert!(!realizable(&p_ok, &mp.trace, 6));
    }

    #[test]
    fn realizable_respects_trace_order() {
        // The target is matched as an exact trace, not a bag of ops.
        let p = SerialMemory::new(scv_types::Params::new(2, 1, 2));
        let fwd = Trace::from_ops([st(1, 1, 1), ld(2, 1, 1)]);
        let bwd = Trace::from_ops([ld(2, 1, 1), st(1, 1, 1)]);
        assert!(realizable(&p, &fwd, 2));
        assert!(
            !realizable(&p, &bwd, 2),
            "cannot read 1 before it is stored"
        );
    }

    #[test]
    fn min_params_cover_each_litmus() {
        for l in all() {
            assert!(l.trace.in_bounds(&l.min_params()), "{}", l.name);
        }
        assert_eq!(iriw().min_params().p, 4);
        assert_eq!(store_buffering().min_params().p, 2);
    }
}
