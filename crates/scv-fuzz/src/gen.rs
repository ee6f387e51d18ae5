//! Seeded random protocol generation.
//!
//! [`GenProtocol`] is a *family* of snooping write-invalidate protocols on
//! an atomic bus, parameterized by [`GenConfig`]: the feature flags select
//! which coherence transitions exist (shared fills, upgrades, evictions,
//! owner downgrades, uncached atomic memory operations), so every sampled
//! configuration is a structurally different FSM. Unmutated configurations
//! are sequentially consistent *by construction* — stores happen only at
//! the unique exclusive copy (or atomically at memory), so the atomic bus
//! serializes the stores to each block in real time and the protocol has
//! the real-time ST reordering property of §4.2 with truthful tracking
//! labels.
//!
//! [`Mutation`] operators inject realistic coherence bugs — dropped
//! invalidations, stale reads of invalidated lines, racy stores that skip
//! the upgrade, and lost writebacks — each of which makes the classic
//! message-passing violation reachable (with `p ≥ 2`, `b ≥ 2`, shared
//! fills, and M-evictions, which [`GenConfig::sample_mutated`] forces).

use rand::Rng;
use scv_protocol::{Action, CopySrc, LocId, Protocol, Symmetry, Tracking, Transition};
use scv_types::{BlockId, Op, Params, ProcId, SymDims, SymPerm, Value};
use std::fmt;

/// A bug-injecting mutation operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Bus invalidations (`BusRdX`, `BusUpgr`) silently spare the
    /// highest-numbered sharer, which keeps a stale copy.
    DroppedInvalidation,
    /// Loads may read an invalid line's (initial `⊥`) content without
    /// refetching — the stale-read bug.
    StaleRead,
    /// Stores are permitted in the S state without a bus upgrade, so other
    /// sharers keep stale copies.
    RacyStore,
    /// `BusRd` from a dirty owner skips the writeback: the requester fills
    /// from stale memory while the owner's value is silently dropped to S.
    LostWriteback,
}

impl Mutation {
    /// All mutation operators.
    pub const ALL: [Mutation; 4] = [
        Mutation::DroppedInvalidation,
        Mutation::StaleRead,
        Mutation::RacyStore,
        Mutation::LostWriteback,
    ];

    /// Stable textual tag used by the corpus serialization.
    pub fn tag(self) -> &'static str {
        match self {
            Mutation::DroppedInvalidation => "dropped-invalidation",
            Mutation::StaleRead => "stale-read",
            Mutation::RacyStore => "racy-store",
            Mutation::LostWriteback => "lost-writeback",
        }
    }

    /// Parse a [`Mutation::tag`].
    pub fn from_tag(s: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.tag() == s)
    }
}

/// One sampled member of the generated protocol family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GenConfig {
    /// Size parameters.
    pub params: Params,
    /// `BusRd` fills to S are available (otherwise every fill is `BusRdX`).
    pub shared: bool,
    /// `BusUpgr` (S → M without refetch) is available.
    pub upgrade: bool,
    /// Dirty lines can be evicted (writeback + invalidate).
    pub evict_m: bool,
    /// Clean lines can be evicted silently.
    pub evict_s: bool,
    /// Owners can downgrade M → S with a writeback, keeping the copy.
    pub downgrade: bool,
    /// Blocks cached nowhere support atomic `LD`/`ST` directly on memory.
    pub atomic_mem: bool,
    /// The injected bug, if any.
    pub mutation: Option<Mutation>,
}

impl GenConfig {
    /// Sample a guaranteed-SC configuration.
    pub fn sample<R: Rng>(rng: &mut R) -> GenConfig {
        GenConfig {
            params: Params::new(
                rng.gen_range(1..=3),
                rng.gen_range(1..=2),
                rng.gen_range(1..=2),
            ),
            shared: rng.gen_bool(0.8),
            upgrade: rng.gen_bool(0.5),
            evict_m: rng.gen_bool(0.8),
            evict_s: rng.gen_bool(0.5),
            downgrade: rng.gen_bool(0.3),
            atomic_mem: rng.gen_bool(0.3),
            mutation: None,
        }
    }

    /// Sample a mutated configuration. The parameters and features are
    /// clamped so the injected bug's violation is reachable (and cheap to
    /// hunt): two processors, two blocks, one value, shared fills and
    /// M-evictions on, no downgrade/atomic-memory noise.
    pub fn sample_mutated<R: Rng>(rng: &mut R) -> GenConfig {
        GenConfig {
            params: Params::new(2, 2, 1),
            shared: true,
            upgrade: rng.gen_bool(0.5),
            evict_m: true,
            evict_s: rng.gen_bool(0.5),
            downgrade: false,
            atomic_mem: false,
            mutation: Some(Mutation::ALL[rng.gen_range(0..Mutation::ALL.len())]),
        }
    }

    /// Stable one-line serialization (the corpus header format).
    pub fn to_line(&self) -> String {
        format!(
            "p={} b={} v={} shared={} upgrade={} evict_m={} evict_s={} downgrade={} atomic={} mutation={}",
            self.params.p,
            self.params.b,
            self.params.v,
            self.shared as u8,
            self.upgrade as u8,
            self.evict_m as u8,
            self.evict_s as u8,
            self.downgrade as u8,
            self.atomic_mem as u8,
            self.mutation.map(Mutation::tag).unwrap_or("none"),
        )
    }

    /// Parse [`GenConfig::to_line`].
    pub fn from_line(line: &str) -> Option<GenConfig> {
        let mut p = None;
        let mut b = None;
        let mut v = None;
        let mut flags = [None::<bool>; 6];
        let mut mutation = None;
        for field in line.split_whitespace() {
            let (key, val) = field.split_once('=')?;
            match key {
                "p" => p = val.parse().ok(),
                "b" => b = val.parse().ok(),
                "v" => v = val.parse().ok(),
                "shared" => flags[0] = Some(val == "1"),
                "upgrade" => flags[1] = Some(val == "1"),
                "evict_m" => flags[2] = Some(val == "1"),
                "evict_s" => flags[3] = Some(val == "1"),
                "downgrade" => flags[4] = Some(val == "1"),
                "atomic" => flags[5] = Some(val == "1"),
                "mutation" => {
                    mutation = Some(if val == "none" {
                        None
                    } else {
                        Some(Mutation::from_tag(val)?)
                    })
                }
                _ => return None,
            }
        }
        Some(GenConfig {
            params: Params::new(p?, b?, v?),
            shared: flags[0]?,
            upgrade: flags[1]?,
            evict_m: flags[2]?,
            evict_s: flags[3]?,
            downgrade: flags[4]?,
            atomic_mem: flags[5]?,
            mutation: mutation?,
        })
    }
}

impl fmt::Display for GenConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Cache line state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum GLine {
    /// Modified: exclusive, dirty.
    M,
    /// Shared: clean, read-only.
    S,
    /// Invalid (the value field retains the dead content).
    #[default]
    I,
}

scv_types::pack_enum!(GLine { M, S, I });

/// Protocol state: one line per (processor, block) plus memory, laid out
/// exactly like the MSI reference protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GenState {
    /// `lines[p.idx()*b + blk.idx()]` = (state, cached value).
    pub lines: Vec<(GLine, Value)>,
    /// Memory contents per block.
    pub mem: Vec<Value>,
}

scv_types::pack_struct!(GenState { lines, mem });

/// A generated protocol: one member of the configurable family.
#[derive(Clone, Debug)]
pub struct GenProtocol {
    cfg: GenConfig,
}

impl GenProtocol {
    /// Instantiate the family member selected by `cfg`.
    pub fn new(cfg: GenConfig) -> Self {
        GenProtocol { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GenConfig {
        &self.cfg
    }

    /// Location id of processor `p`'s cache line for `b`.
    pub fn cache_loc(&self, p: ProcId, b: BlockId) -> LocId {
        (p.idx() * self.cfg.params.b as usize + b.idx() + 1) as LocId
    }

    /// Location id of the memory word for `b`.
    pub fn mem_loc(&self, b: BlockId) -> LocId {
        (self.cfg.params.p as usize * self.cfg.params.b as usize + b.idx() + 1) as LocId
    }

    fn line(&self, s: &GenState, p: ProcId, b: BlockId) -> (GLine, Value) {
        s.lines[p.idx() * self.cfg.params.b as usize + b.idx()]
    }

    fn line_mut<'a>(&self, s: &'a mut GenState, p: ProcId, b: BlockId) -> &'a mut (GLine, Value) {
        &mut s.lines[p.idx() * self.cfg.params.b as usize + b.idx()]
    }

    fn owner(&self, s: &GenState, b: BlockId) -> Option<ProcId> {
        self.cfg
            .params
            .procs()
            .find(|&q| self.line(s, q, b).0 == GLine::M)
    }

    fn sharers(&self, s: &GenState, b: BlockId, except: ProcId) -> Vec<ProcId> {
        self.cfg
            .params
            .procs()
            .filter(|&q| q != except && self.line(s, q, b).0 == GLine::S)
            .collect()
    }

    fn uncached(&self, s: &GenState, b: BlockId) -> bool {
        self.cfg
            .params
            .procs()
            .all(|q| self.line(s, q, b).0 == GLine::I)
    }

    /// Invalidate `b` at every processor in `victims` — except, under
    /// [`Mutation::DroppedInvalidation`], the highest-numbered one.
    fn invalidate(
        &self,
        s: &mut GenState,
        b: BlockId,
        victims: &[ProcId],
        copies: &mut Vec<(LocId, CopySrc)>,
    ) {
        let spared = if self.cfg.mutation == Some(Mutation::DroppedInvalidation) {
            victims.iter().max().copied()
        } else {
            None
        };
        for &q in victims {
            if Some(q) == spared {
                continue;
            }
            self.line_mut(s, q, b).0 = GLine::I;
            copies.push((self.cache_loc(q, b), CopySrc::Invalid));
        }
    }
}

impl Protocol for GenProtocol {
    type State = GenState;

    fn name(&self) -> &'static str {
        match self.cfg.mutation {
            None => "gen",
            Some(Mutation::DroppedInvalidation) => "gen-dropped-invalidation",
            Some(Mutation::StaleRead) => "gen-stale-read",
            Some(Mutation::RacyStore) => "gen-racy-store",
            Some(Mutation::LostWriteback) => "gen-lost-writeback",
        }
    }

    fn params(&self) -> Params {
        self.cfg.params
    }

    fn locations(&self) -> u32 {
        (self.cfg.params.p as u32 + 1) * self.cfg.params.b as u32
    }

    fn initial(&self) -> Self::State {
        GenState {
            lines: vec![
                (GLine::I, Value::BOTTOM);
                self.cfg.params.p as usize * self.cfg.params.b as usize
            ],
            mem: vec![Value::BOTTOM; self.cfg.params.b as usize],
        }
    }

    fn transitions(&self, s: &Self::State) -> Vec<Transition<Self::State>> {
        let cfg = &self.cfg;
        let mut out = Vec::new();
        for p in cfg.params.procs() {
            for b in cfg.params.blocks() {
                let (line, val) = self.line(s, p, b);
                if line == GLine::M || line == GLine::S {
                    // Hit: load the cached value.
                    out.push(Transition {
                        action: Action::Mem(Op::load(p, b, val)),
                        next: s.clone(),
                        tracking: Tracking::mem(self.cache_loc(p, b)),
                    });
                }
                if line == GLine::I && cfg.mutation == Some(Mutation::StaleRead) && val.is_bottom()
                {
                    // Stale read: the invalid line's dead (initial) content
                    // is served without a refetch.
                    out.push(Transition {
                        action: Action::Mem(Op::load(p, b, val)),
                        next: s.clone(),
                        tracking: Tracking::mem(self.cache_loc(p, b)),
                    });
                }
                if line == GLine::M
                    || (line == GLine::S && cfg.mutation == Some(Mutation::RacyStore))
                {
                    // Store hit — in M, or racily in S under the mutation.
                    for v in cfg.params.values() {
                        let mut next = s.clone();
                        self.line_mut(&mut next, p, b).1 = v;
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.cache_loc(p, b)),
                        });
                    }
                }
                if line == GLine::M && cfg.evict_m {
                    // Writeback-eviction.
                    let mut next = s.clone();
                    let mut copies = vec![(self.mem_loc(b), CopySrc::Loc(self.cache_loc(p, b)))];
                    next.mem[b.idx()] = val;
                    self.line_mut(&mut next, p, b).0 = GLine::I;
                    copies.push((self.cache_loc(p, b), CopySrc::Invalid));
                    out.push(Transition {
                        action: Action::Internal("EvictM", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(copies),
                    });
                }
                if line == GLine::M && cfg.downgrade {
                    // M -> S writeback that keeps the copy.
                    let mut next = s.clone();
                    next.mem[b.idx()] = val;
                    self.line_mut(&mut next, p, b).0 = GLine::S;
                    out.push(Transition {
                        action: Action::Internal("Downgrade", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(vec![(
                            self.mem_loc(b),
                            CopySrc::Loc(self.cache_loc(p, b)),
                        )]),
                    });
                }
                if line == GLine::S {
                    if cfg.evict_s {
                        // Silent eviction.
                        let mut next = s.clone();
                        self.line_mut(&mut next, p, b).0 = GLine::I;
                        out.push(Transition {
                            action: Action::Internal("EvictS", self.cache_loc(p, b)),
                            next,
                            tracking: Tracking::copies(vec![(
                                self.cache_loc(p, b),
                                CopySrc::Invalid,
                            )]),
                        });
                    }
                    if cfg.upgrade {
                        // BusUpgr: S -> M, invalidating other sharers.
                        let mut next = s.clone();
                        let mut copies = Vec::new();
                        let sharers = self.sharers(s, b, p);
                        self.invalidate(&mut next, b, &sharers, &mut copies);
                        self.line_mut(&mut next, p, b).0 = GLine::M;
                        out.push(Transition {
                            action: Action::Internal("BusUpgr", self.cache_loc(p, b)),
                            next,
                            tracking: Tracking::copies(copies),
                        });
                    }
                }
                if line == GLine::I {
                    // BusRdX: I -> M; invalidate everyone else. Always
                    // available — it is the only path to the M state.
                    // Emitted before BusRd so depth-first realization
                    // search prefers the direct route to M, which keeps
                    // shrunk reproducers short.
                    let mut next = s.clone();
                    let mut copies = Vec::new();
                    let fill_val = match self.owner(s, b) {
                        Some(q) => {
                            let qval = self.line(s, q, b).1;
                            copies.push((self.cache_loc(p, b), CopySrc::Loc(self.cache_loc(q, b))));
                            self.line_mut(&mut next, q, b).0 = GLine::I;
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
                    *self.line_mut(&mut next, p, b) = (GLine::M, fill_val);
                    out.push(Transition {
                        action: Action::Internal("BusRdX", self.cache_loc(p, b)),
                        next,
                        tracking: Tracking::copies(copies),
                    });
                    if cfg.shared {
                        // BusRd: I -> S; source is the owner (with
                        // writeback, unless lost) or memory.
                        let mut next = s.clone();
                        let mut copies = Vec::new();
                        match self.owner(s, b) {
                            Some(q) if cfg.mutation == Some(Mutation::LostWriteback) => {
                                // Bug: the owner downgrades without writing
                                // back; the requester fills stale memory.
                                self.line_mut(&mut next, q, b).0 = GLine::S;
                                copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                                *self.line_mut(&mut next, p, b) = (GLine::S, s.mem[b.idx()]);
                            }
                            Some(q) => {
                                let qval = self.line(s, q, b).1;
                                copies.push((self.mem_loc(b), CopySrc::Loc(self.cache_loc(q, b))));
                                next.mem[b.idx()] = qval;
                                self.line_mut(&mut next, q, b).0 = GLine::S;
                                copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                                *self.line_mut(&mut next, p, b) = (GLine::S, qval);
                            }
                            None => {
                                copies.push((self.cache_loc(p, b), CopySrc::Loc(self.mem_loc(b))));
                                *self.line_mut(&mut next, p, b) = (GLine::S, s.mem[b.idx()]);
                            }
                        }
                        out.push(Transition {
                            action: Action::Internal("BusRd", self.cache_loc(p, b)),
                            next,
                            tracking: Tracking::copies(copies),
                        });
                    }
                }
            }
        }
        if cfg.atomic_mem {
            // Atomic operations directly on uncached blocks' memory words.
            for b in cfg.params.blocks() {
                if !self.uncached(s, b) {
                    continue;
                }
                for p in cfg.params.procs() {
                    out.push(Transition {
                        action: Action::Mem(Op::load(p, b, s.mem[b.idx()])),
                        next: s.clone(),
                        tracking: Tracking::mem(self.mem_loc(b)),
                    });
                    for v in cfg.params.values() {
                        let mut next = s.clone();
                        next.mem[b.idx()] = v;
                        out.push(Transition {
                            action: Action::Mem(Op::store(p, b, v)),
                            next,
                            tracking: Tracking::mem(self.mem_loc(b)),
                        });
                    }
                }
            }
        }
        out
    }
}

impl Symmetry for GenProtocol {
    fn symmetry_dims(&self) -> SymDims {
        if self.cfg.mutation == Some(Mutation::DroppedInvalidation) {
            // The dropped invalidation spares the *highest-numbered*
            // sharer, so processor renaming is not equivariant.
            SymDims {
                procs: false,
                blocks: true,
                values: true,
            }
        } else {
            SymDims::FULL
        }
    }

    fn permute_state(&self, s: &Self::State, perm: &SymPerm) -> Self::State {
        let pr = self.cfg.params;
        let (p, b) = (pr.p as usize, pr.b as usize);
        let mut lines = s.lines.clone();
        for pi in 0..p {
            for bi in 0..b {
                let (l, v) = s.lines[pi * b + bi];
                lines[perm.proc_idx(pi) * b + perm.block_idx(bi)] = (l, perm.value(v));
            }
        }
        let mut mem = s.mem.clone();
        for (bi, &v) in s.mem.iter().enumerate() {
            mem[perm.block_idx(bi)] = perm.value(v);
        }
        GenState { lines, mem }
    }

    fn permute_loc(&self, loc: LocId, perm: &SymPerm) -> LocId {
        let pr = self.cfg.params;
        let (p, b) = (pr.p as u32, pr.b as u32);
        let i = loc - 1;
        if i < p * b {
            let (pi, bi) = (i / b, i % b);
            perm.proc_idx(pi as usize) as u32 * b + perm.block_idx(bi as usize) as u32 + 1
        } else {
            let bi = i - p * b;
            p * b + perm.block_idx(bi as usize) as u32 + 1
        }
    }

    fn encode_state(&self, s: &Self::State, out: &mut Vec<u64>) {
        out.extend(s.lines.iter().map(|&(l, v)| {
            let l = match l {
                GLine::M => 0u64,
                GLine::S => 1,
                GLine::I => 2,
            };
            l << 8 | v.0 as u64
        }));
        out.extend(s.mem.iter().map(|v| v.0 as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scv_graph::has_serial_reordering;
    use scv_protocol::{litmus, realization, Runner};

    fn all_features(mutation: Option<Mutation>, params: Params) -> GenConfig {
        GenConfig {
            params,
            shared: true,
            upgrade: true,
            evict_m: true,
            evict_s: true,
            downgrade: true,
            atomic_mem: true,
            mutation,
        }
    }

    #[test]
    fn config_line_roundtrips() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let cfg = GenConfig::sample(&mut rng);
            assert_eq!(GenConfig::from_line(&cfg.to_line()), Some(cfg));
            let cfg = GenConfig::sample_mutated(&mut rng);
            assert_eq!(GenConfig::from_line(&cfg.to_line()), Some(cfg));
        }
        assert_eq!(GenConfig::from_line("p=2 b=1"), None);
        assert_eq!(GenConfig::from_line("garbage"), None);
    }

    #[test]
    fn unmutated_random_runs_are_sc() {
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..25 {
            let cfg = GenConfig::sample(&mut rng);
            let mut r = Runner::new(GenProtocol::new(cfg));
            r.run_random(36, 0.5, &mut rng);
            let t = r.run().trace();
            assert!(
                has_serial_reordering(&t),
                "case {i} ({cfg}): non-SC trace {t}"
            );
        }
    }

    #[test]
    fn unmutated_coherence_invariants_hold() {
        // At most one owner; M excludes S; S copies equal memory.
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = all_features(None, Params::new(3, 2, 2));
        let proto = GenProtocol::new(cfg);
        let mut r = Runner::new(proto.clone());
        for _ in 0..300 {
            if !r.step_random(&mut rng) {
                break;
            }
            let s = r.state();
            for b in cfg.params.blocks() {
                let owners = cfg
                    .params
                    .procs()
                    .filter(|&p| proto.line(s, p, b).0 == GLine::M)
                    .count();
                let sharers: Vec<_> = cfg
                    .params
                    .procs()
                    .filter(|&p| proto.line(s, p, b).0 == GLine::S)
                    .collect();
                assert!(owners <= 1);
                assert!(owners == 0 || sharers.is_empty(), "M coexists with S");
                for &p in &sharers {
                    assert_eq!(
                        proto.line(s, p, b).1,
                        s.mem[b.idx()],
                        "S copy diverged from memory"
                    );
                }
            }
        }
    }

    #[test]
    fn every_mutation_realizes_message_passing() {
        for m in Mutation::ALL {
            let mut rng = SmallRng::seed_from_u64(4);
            let cfg = GenConfig {
                mutation: Some(m),
                ..GenConfig::sample_mutated(&mut rng)
            };
            let mp = litmus::message_passing();
            let run = realization(&GenProtocol::new(cfg), &mp.trace, 8)
                .unwrap_or_else(|| panic!("{} must realize MP", m.tag()));
            assert_eq!(run.trace(), mp.trace);
            assert!(!has_serial_reordering(&run.trace()));
        }
    }

    #[test]
    fn unmutated_family_realizes_no_forbidden_litmus() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10 {
            let cfg = GenConfig::sample(&mut rng);
            for l in litmus::all() {
                if l.sc_allows || !l.trace.in_bounds(&cfg.params) {
                    continue;
                }
                assert!(
                    !litmus::realizable(&GenProtocol::new(cfg), &l.trace, 6),
                    "{cfg} realized forbidden {}",
                    l.name
                );
            }
        }
    }

    /// Equivariance spot check: for states along a random walk and every
    /// group element, successors commute with renaming (compared as sets
    /// of renamed (action, tracking, encoded next state)).
    #[test]
    fn declared_symmetry_is_equivariant() {
        use std::collections::BTreeSet;
        let rename =
            |proto: &GenProtocol, t: &Transition<GenState>, perm: &SymPerm| -> (String, Vec<u64>) {
                let action = match t.action {
                    Action::Mem(op) => format!("{}", perm.op(op)),
                    Action::Internal(name, loc) => {
                        format!("{name}({})", proto.permute_loc(loc, perm))
                    }
                };
                let mut tr = vec![t.tracking.loc.map_or(0, |l| proto.permute_loc(l, perm)) as u64];
                for &(dst, src) in &t.tracking.copies {
                    tr.push(proto.permute_loc(dst, perm) as u64);
                    tr.push(match src {
                        CopySrc::Loc(l) => proto.permute_loc(l, perm) as u64,
                        CopySrc::Invalid => u64::MAX,
                    });
                }
                let mut enc = Vec::new();
                proto.encode_state(&proto.permute_state(&t.next, perm), &mut enc);
                tr.extend(enc);
                (action, tr)
            };
        let mut rng = SmallRng::seed_from_u64(6);
        for mutation in [None, Some(Mutation::StaleRead), Some(Mutation::RacyStore)] {
            let cfg = all_features(mutation, Params::new(2, 2, 2));
            let proto = GenProtocol::new(cfg);
            let group = SymPerm::group(cfg.params, proto.symmetry_dims(), 1024);
            let mut r = Runner::new(proto.clone());
            for _ in 0..40 {
                let s = r.state().clone();
                for g in &group {
                    let lhs: BTreeSet<_> = proto
                        .transitions(&s)
                        .iter()
                        .map(|t| rename(&proto, t, g))
                        .collect();
                    let id = SymPerm::identity(cfg.params);
                    let rhs: BTreeSet<_> = proto
                        .transitions(&proto.permute_state(&s, g))
                        .iter()
                        .map(|t| rename(&proto, t, &id))
                        .collect();
                    assert_eq!(lhs, rhs, "not equivariant under {g:?}");
                }
                if !r.step_random(&mut rng) {
                    break;
                }
            }
        }
    }

    #[test]
    fn dropped_invalidation_excludes_proc_symmetry() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut cfg = GenConfig::sample_mutated(&mut rng);
        cfg.mutation = Some(Mutation::DroppedInvalidation);
        let dims = GenProtocol::new(cfg).symmetry_dims();
        assert!(!dims.procs);
        assert!(dims.blocks && dims.values);
    }
}
