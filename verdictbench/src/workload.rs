//! The four workloads, their golden expectations and the output checks.
//!
//! Each workload is a list of searches ([`Search`]) built during set-up:
//! the protocol, its `VerifySystem` (symmetry group and canonical plan
//! included) and the expected verdict. A pass runs every search once.

use crate::trace::{self, Replay, Sampler, Traced, TracedSystem};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_verify::fuzz::{check_run, replay as replay_run, GenConfig, GenProtocol, Mutation};
use sc_verify::mc::{
    bfs, ws_search_detailed, BfsOptions, McStats, Outcome, SearchResult, SymmetryMode,
    VerifyOptions, VerifySystem,
};
use sc_verify::protocol::{
    Action, DirectoryProtocol, Fig4Protocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory,
    StoreBufferTso, Symmetry,
};
use sc_verify::types::Params;
use std::time::Instant;

/// Work-stealing batch size: the `VerifyOptions` default, which the
/// traced run must match.
const WS_BATCH: usize = 128;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["prove", "sweep", "hunt", "sweep-ws"];

/// What a search must return.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// `VERIFIED`, with golden state/transition counts when given.
    Verified(Option<(usize, usize)>),
    /// A capped t=1 run: `Bounded` at exactly the cap, with the golden
    /// transition count when given.
    Capped(usize, Option<usize>),
    /// A capped parallel run: `Bounded`, and the states admitted before
    /// the workers saw the cap within `cap..=cap + overshoot`.
    CappedRace(usize, usize),
    /// A violation whose run replays, is rejected by an independent
    /// observer+checker replay that the Gibbons–Korach baseline does not
    /// contradict, and — when `true` — has a trace with no serial
    /// reordering.
    Violation(bool),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Verified,
    Violation,
    Bounded,
    Inconclusive,
}

/// One search's result, engine-neutral.
pub struct Verdict {
    pub kind: Kind,
    pub stats: McStats,
    /// Wall seconds from search start to the outcome.
    pub wall: f64,
    pub run: Option<Vec<Action>>,
}

impl Verdict {
    fn from_outcome(out: Outcome, wall: f64) -> Verdict {
        let stats = out.stats();
        let (kind, run) = match out {
            Outcome::Verified { .. } => (Kind::Verified, None),
            Outcome::Bounded { .. } => (Kind::Bounded, None),
            Outcome::Inconclusive { .. } => (Kind::Inconclusive, None),
            Outcome::Violation { run, .. } => (Kind::Violation, Some(run)),
        };
        Verdict {
            kind,
            stats,
            wall,
            run,
        }
    }

    fn from_search<V>(r: SearchResult<Action, V>, wall: f64) -> Verdict {
        let stats = r.stats();
        let (kind, run) = match r {
            SearchResult::Safe(_) => (Kind::Verified, None),
            SearchResult::Bounded(_) => (Kind::Bounded, None),
            SearchResult::Unsafe(ce, _) => (Kind::Violation, Some(ce.path)),
        };
        Verdict {
            kind,
            stats,
            wall,
            run,
        }
    }
}

/// What a traced search adds beyond its verdict.
pub struct TracedRun<'a> {
    pub verdict: Verdict,
    pub cap: usize,
    /// The layer replay on the states sampled from this search, deferred
    /// so it runs after the traced pass has read its counters.
    pub replay: Box<dyn FnOnce() -> Replay + 'a>,
}

/// A search of one workload, type-erased over the protocol.
pub trait Search {
    fn name(&self) -> &str;
    fn threads(&self) -> usize;
    fn symmetric(&self) -> bool;
    /// Untraced: through `VerifySystem::search`, the path `Verifier::run`
    /// takes.
    fn run(&self) -> Verdict;
    /// Traced: the wrapped system driven through `bfs` / `ws_search`.
    /// Totals land in the trace slots; the caller resets and reads them.
    fn run_traced(&self) -> TracedRun<'_>;
    /// `Err` with the reason when `v` is not the expected verdict.
    fn check(&self, v: &Verdict) -> Result<(), String>;
}

struct Job<P: Symmetry> {
    name: String,
    protocol: P,
    system: VerifySystem<P>,
    opts: VerifyOptions,
    expect: Expect,
}

impl<P> Job<P>
where
    P: Symmetry + Clone + Sync + 'static,
    P::State: Send + Sync + 'static,
{
    fn boxed(
        name: String,
        protocol: P,
        mode: SymmetryMode,
        threads: usize,
        cap: usize,
        expect: Expect,
    ) -> Box<dyn Search> {
        let system = VerifySystem::with_symmetry(protocol.clone(), mode);
        let opts = VerifyOptions::new()
            .max_states(cap)
            .threads(threads)
            .batch_size(WS_BATCH)
            .symmetry(mode);
        Box::new(Job {
            name,
            protocol,
            system,
            opts,
            expect,
        })
    }

    /// The independent check of a counterexample run.
    fn check_counterexample(&self, run: &[Action], non_sc: bool) -> Result<(), String> {
        let Some(replayed) = replay_run(&self.protocol, run) else {
            return Err("counterexample does not replay on the protocol".into());
        };
        match check_run(&self.protocol, &replayed, false) {
            Err(d) => Err(format!("oracles disagree on the counterexample: {d}")),
            Ok(v) if v.accepted => Err("independent replay accepts the counterexample".into()),
            Ok(v) if non_sc && v.sc_trace => {
                Err("counterexample trace has a serial reordering".into())
            }
            Ok(_) => Ok(()),
        }
    }
}

impl<P> Search for Job<P>
where
    P: Symmetry + Clone + Sync + 'static,
    P::State: Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn threads(&self) -> usize {
        self.opts.threads
    }

    fn symmetric(&self) -> bool {
        self.system.symmetry_group_order() > 1
    }

    fn run(&self) -> Verdict {
        let t = Instant::now();
        let out = self.system.search(&self.opts);
        Verdict::from_outcome(out, t.elapsed().as_secs_f64())
    }

    fn run_traced(&self) -> TracedRun<'_> {
        let system = VerifySystem::with_symmetry(Traced(self.protocol.clone()), self.opts.symmetry);
        let sampler = Sampler::new();
        let wrapped = TracedSystem {
            inner: &system,
            sampler: &sampler,
        };
        let bfs_opts = BfsOptions::new().max_states(self.opts.bfs.max_states);
        let t = Instant::now();
        let r = if self.opts.threads > 1 {
            ws_search_detailed(&wrapped, bfs_opts, self.opts.threads, WS_BATCH).0
        } else {
            bfs(&wrapped, bfs_opts)
        };
        let verdict = Verdict::from_search(r, t.elapsed().as_secs_f64());
        let states = sampler.take();
        TracedRun {
            verdict,
            cap: self.opts.bfs.max_states,
            replay: Box::new(move || trace::replay(&self.system, &states)),
        }
    }

    fn check(&self, v: &Verdict) -> Result<(), String> {
        let (states, transitions) = (v.stats.states, v.stats.transitions);
        let counts = |want: Option<(usize, usize)>| match want {
            Some(w) if w != (states, transitions) => Err(format!(
                "counts {states}/{transitions}, golden {}/{}",
                w.0, w.1
            )),
            _ => Ok(()),
        };
        match (self.expect, v.kind) {
            (Expect::Verified(want), Kind::Verified) => counts(want),
            (Expect::Capped(cap, want), Kind::Bounded) => {
                counts(Some((cap, want.unwrap_or(transitions))))
            }
            (Expect::CappedRace(cap, over), Kind::Bounded) => {
                if (cap..=cap + over).contains(&states) {
                    Ok(())
                } else {
                    Err(format!(
                        "{states} states outside the cap window {cap}..={}",
                        cap + over
                    ))
                }
            }
            (Expect::Violation(non_sc), Kind::Violation) => match &v.run {
                Some(run) => self.check_counterexample(run, non_sc),
                None => Err("violation without a run".into()),
            },
            (want, got) => Err(format!("verdict {got:?}, expected {want:?}")),
        }
    }
}

/// A built workload.
pub struct Workload {
    pub searches: Vec<Box<dyn Search>>,
    /// Passes every run makes at least, whatever `--seconds` says.
    pub min_passes: usize,
    /// The generated hunt members, for the output (empty elsewhere).
    pub generated: Vec<String>,
}

/// Sizes: the benchmark's, or the small ones the transparency tests use.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Build workload `name` from `seed`; `None` for an unknown name.
pub fn setup(name: &str, seed: u64, size: Size) -> Option<Workload> {
    let small = size == Size::Small;
    let mut generated = Vec::new();
    // Enough passes that each search's fastest one likely falls outside
    // the bursts of interference from other tenants of the host.
    let min_passes = if small { 1 } else { 5 };
    let searches = match name {
        "prove" => prove(small),
        "sweep" => sweep(small),
        "sweep-ws" => sweep_ws(small),
        "hunt" => hunt(seed, small, &mut generated),
        _ => return None,
    };
    Some(Workload {
        searches,
        min_passes,
        generated,
    })
}

/// Exhaustive proof: serial memory (2,1,1) under full symmetry, t=1.
fn prove(small: bool) -> Vec<Box<dyn Search>> {
    let (params, golden) = if small {
        (Params::new(1, 1, 2), None)
    } else {
        (Params::new(2, 1, 1), Some((61_064, 244_256)))
    };
    vec![Job::boxed(
        format!("serial-memory ({},{},{})", params.p, params.b, params.v),
        SerialMemory::new(params),
        SymmetryMode::Full,
        1,
        2_000_000,
        Expect::Verified(golden),
    )]
}

/// Capped t=1 sweeps of four SC protocols at (6,2,2) under full symmetry.
fn sweep(small: bool) -> Vec<Box<dyn Search>> {
    let p = Params::new(6, 2, 2);
    let (cap, golden): (usize, [Option<usize>; 4]) = if small {
        (400, [None; 4])
    } else {
        (
            2_500,
            [Some(11_022), Some(10_993), Some(12_544), Some(10_238)],
        )
    };
    let sym = SymmetryMode::Full;
    vec![
        Job::boxed(
            "msi (6,2,2)".into(),
            MsiProtocol::new(p),
            sym,
            1,
            cap,
            Expect::Capped(cap, golden[0]),
        ),
        Job::boxed(
            "mesi (6,2,2)".into(),
            MesiProtocol::new(p),
            sym,
            1,
            cap,
            Expect::Capped(cap, golden[1]),
        ),
        Job::boxed(
            "directory (6,2,2)".into(),
            DirectoryProtocol::new(p),
            sym,
            1,
            cap,
            Expect::Capped(cap, golden[2]),
        ),
        Job::boxed(
            "lazy-caching (6,2,2) qo=qi=1".into(),
            LazyCaching::new(p, 1, 1),
            sym,
            1,
            cap,
            Expect::Capped(cap, golden[3]),
        ),
    ]
}

/// Capped two-worker work-stealing sweeps with symmetry off.
fn sweep_ws(small: bool) -> Vec<Box<dyn Search>> {
    const THREADS: usize = 2;
    let p = Params::new(6, 2, 2);
    let cap = if small { 2_000 } else { 30_000 };
    // Each worker stops at the first admission that reaches the cap, so
    // the others can each admit one more.
    let expect = Expect::CappedRace(cap, THREADS - 1);
    let off = SymmetryMode::Off;
    vec![
        Job::boxed(
            "msi (6,2,2) t=2".into(),
            MsiProtocol::new(p),
            off,
            THREADS,
            cap,
            expect,
        ),
        Job::boxed(
            "directory (6,2,2) t=2".into(),
            DirectoryProtocol::new(p),
            off,
            THREADS,
            cap,
            expect,
        ),
        Job::boxed(
            "lazy-caching (6,2,2) qo=qi=1 t=2".into(),
            LazyCaching::new(p, 1, 1),
            off,
            THREADS,
            cap,
            expect,
        ),
    ]
}

/// Time to first counterexample, symmetry off, t=1: zoo bugs at fixed
/// parameters plus members of the scv-fuzz mutated family drawn by `seed`.
///
/// The generated members are stratified: one per (mutation operator,
/// `upgrade` flag) pair, the remaining features drawn by
/// `GenConfig::sample_mutated`. Every seed thus hunts every bug class,
/// and the seed moves a member's cost by at most about a quarter. The zoo
/// members fix the median: tso (3,2,2) is the seventh of the thirteen
/// hunts. The slowest is the dropped-invalidation member (34k states),
/// whose features are pinned; no hunt is larger, because the fastest pass of a search that needs a long
/// quiet spell on a shared host spreads most across runs.
fn hunt(seed: u64, small: bool, generated: &mut Vec<String>) -> Vec<Box<dyn Search>> {
    const CAP: usize = 2_000_000;
    let off = SymmetryMode::Off;
    let bug = Expect::Violation(true);
    let mut out = vec![
        Job::boxed(
            "msi-buggy (2,2,1)".into(),
            MsiProtocol::buggy(Params::new(2, 2, 1)),
            off,
            1,
            CAP,
            bug,
        ),
        Job::boxed(
            "mesi-buggy (2,2,1)".into(),
            MesiProtocol::buggy(Params::new(2, 2, 1)),
            off,
            1,
            CAP,
            bug,
        ),
        Job::boxed(
            "tso (2,2,1) d=1".into(),
            StoreBufferTso::new(Params::new(2, 2, 1), 1),
            off,
            1,
            CAP,
            bug,
        ),
        // Fig 4 is outside Γ: its shortest rejected run may have an SC
        // trace, so only the rejection itself is checked independently.
        Job::boxed(
            "fig4 (2,1,2) s=1".into(),
            Fig4Protocol::new(Params::new(2, 1, 2), 1),
            off,
            1,
            CAP,
            Expect::Violation(false),
        ),
    ];
    if !small {
        out.push(Job::boxed(
            "tso (3,2,2) d=1".into(),
            StoreBufferTso::new(Params::new(3, 2, 2), 1),
            off,
            1,
            CAP,
            bug,
        ));
        out.push(Job::boxed(
            "msi-buggy (3,1,1)".into(),
            MsiProtocol::buggy(Params::new(3, 1, 1)),
            off,
            1,
            CAP,
            bug,
        ));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let strata: &[Mutation] = if small {
        &Mutation::ALL[2..]
    } else {
        &Mutation::ALL
    };
    for &mutation in strata {
        for upgrade in [false, true] {
            // Without bus upgrades the dropped invalidation needs 120k
            // states and 450 MB to surface, 4x any other member; searches
            // that size spread 27-37% across runs under the interference
            // of a shared host, so the upgrade variant alone stands for it.
            if mutation == Mutation::DroppedInvalidation && !upgrade {
                continue;
            }
            let mut cfg = GenConfig::sample_mutated(&mut rng);
            cfg.mutation = Some(mutation);
            cfg.upgrade = upgrade;
            // The dropped-invalidation member is the slowest hunt; with
            // silent clean evictions it takes 8% longer, so pinning them
            // off keeps `ttv_tail_s` from moving with the seed.
            if mutation == Mutation::DroppedInvalidation {
                cfg.evict_s = false;
            }
            generated.push(cfg.to_line());
            out.push(Job::boxed(
                format!("gen {}", cfg.to_line()),
                GenProtocol::new(cfg),
                off,
                1,
                CAP,
                bug,
            ));
        }
    }
    out
}
