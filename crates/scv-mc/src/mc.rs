//! Generic explicit-state reachability: sequential BFS and the search
//! contract shared with the work-stealing engine ([`crate::ws`]).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::time::{Duration, Instant};

use crate::checkpoint::CheckpointError;
use crate::control::{InterruptReason, RunControl};
use crate::frontier::Frontier;
use crate::sip::{FpBuild, SipHasher13};
use scv_types::Pack;

/// 128-bit state fingerprints for the seen-set.
///
/// Storing full states for every visited state is the memory bottleneck of
/// explicit-state search; both searchers instead record a 128-bit hash
/// per state (states live only in the current frontier, packed). A
/// collision would silently merge two distinct states — across n states the
/// probability is at most n²/2¹²⁹ ([`fp_collision_bound`]), ~10⁻²⁰ even
/// at 10⁹ states (the same trade Holzmann's bitstate hashing makes far
/// more aggressively).
///
/// Hashing is keyed SipHash-1-3 ([`crate::sip`]) in its 128-bit output
/// mode — one pass over the state yields the whole fingerprint — under
/// explicit 64-bit seeds. A fresh fingerprinter draws random seeds, so
/// fingerprints are only comparable within one search — but the seeds can
/// be extracted ([`Fingerprinter::seeds`]), serialized into a checkpoint,
/// and restored ([`Fingerprinter::from_seeds`]), which is what lets a
/// resumed search reuse the interrupted run's seen-set and parent logs
/// verbatim.
///
/// Public so [`TransitionSystem::expand_admitted`] implementations can
/// fingerprint successors *before* materializing them.
pub struct Fingerprinter {
    /// Key of the 128-bit state fingerprint ([`Fingerprinter::fp`]).
    wide: (u64, u64),
    /// Key of the orbit-seal cache key ([`Fingerprinter::seal_key`]).
    seal: (u64, u64),
}

impl Fingerprinter {
    pub(crate) fn new() -> Self {
        // Four fresh random seeds per fingerprinter, derived from the
        // standard library's randomly-keyed hasher.
        let r = RandomState::new();
        Fingerprinter::from_seeds([
            r.hash_one(0u64),
            r.hash_one(1u64),
            r.hash_one(2u64),
            r.hash_one(3u64),
        ])
    }

    /// Rebuild a fingerprinter from extracted seeds; it reproduces the
    /// exact fingerprints of the instance the seeds came from.
    pub fn from_seeds(seeds: [u64; 4]) -> Self {
        Fingerprinter {
            wide: (seeds[0], seeds[1]),
            seal: (seeds[2], seeds[3]),
        }
    }

    /// The four hash seeds, in [`Fingerprinter::from_seeds`] order.
    pub fn seeds(&self) -> [u64; 4] {
        [self.wide.0, self.wide.1, self.seal.0, self.seal.1]
    }

    /// The 128-bit fingerprint of any hashable value: one SipHash-1-3
    /// pass in the 128-bit output mode. Implementations of
    /// [`TransitionSystem::expand_admitted`] must ensure the value they
    /// hash here is hash-identical to the `State` they would materialize.
    pub fn fp<S: Hash>(&self, s: &S) -> u128 {
        let mut h = SipHasher13::new_128(self.wide.0, self.wide.1);
        s.hash(&mut h);
        h.finish_128()
    }

    /// The orbit-seal cache key: the same 128-bit pass as
    /// [`Fingerprinter::fp`] under the second seed pair. A key collision
    /// hands a state a wrong orbit-minimum fingerprint, which drops it
    /// just like a seen-set collision, so the key is as wide as the
    /// fingerprint.
    pub(crate) fn seal_key<S: Hash>(&self, s: &S) -> u128 {
        let mut h = SipHasher13::new_128(self.seal.0, self.seal.1);
        s.hash(&mut h);
        h.finish_128()
    }
}

/// The hash-compaction soundness bound of a search that admitted `states`
/// distinct fingerprints: the probability that two of them collided (and
/// so one state was silently never explored) is at most
/// `states² / 2¹²⁹` — the birthday bound on 128-bit fingerprints, the
/// figure TLC reports on completion.
///
/// Under symmetry reduction the per-worker orbit-seal cache adds a second,
/// far smaller term: a probe false-hits only if its 128-bit
/// [`Fingerprinter::seal_key`] equals one of at most 2²⁰ cached keys,
/// probability ≤ 2²⁰·2⁻¹²⁸ = 2⁻¹⁰⁸, so a whole run adds at most
/// `transitions · 2⁻¹⁰⁸` — under 10⁻²² below 10¹⁰ transitions.
/// The figure returned here is the seen-set term alone.
pub fn fp_collision_bound(states: usize) -> f64 {
    let n = states as f64;
    n * n / 2f64.powi(129)
}

/// Opaque per-worker scratch space for [`TransitionSystem::expand_admitted`].
///
/// Engines obtain one per worker via [`TransitionSystem::expand_scratch`]
/// and thread it through every expansion on that worker; what lives inside
/// is the system's business (the product system keeps replay copies of the
/// observer/checker, encoding arenas, and its orbit-seal cache here).
/// Systems that don't override the lazy path use [`ExpandScratch::none`].
pub struct ExpandScratch(Box<dyn std::any::Any + Send>);

impl ExpandScratch {
    /// The empty scratch used by the default (materialize-first) path.
    pub fn none() -> Self {
        ExpandScratch(Box::new(()))
    }

    /// Wrap a concrete scratch value.
    pub fn new<S: std::any::Any + Send>(scratch: S) -> Self {
        ExpandScratch(Box::new(scratch))
    }

    /// Downcast to the concrete scratch type, if this is one.
    pub fn get_mut<S: std::any::Any + Send>(&mut self) -> Option<&mut S> {
        self.0.downcast_mut::<S>()
    }
}

/// The body of the default [`TransitionSystem::expand_admitted`]:
/// materialize every successor, fingerprint them, then let `admit` filter.
/// Crate-visible so overrides can fall back to it.
pub(crate) fn eager_expand<T: TransitionSystem + ?Sized>(
    sys: &T,
    s: &T::State,
    fper: &Fingerprinter,
    admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
    out: &mut Vec<(T::Label, T::State, u128)>,
) {
    let mut succs = Vec::new();
    sys.successors_into(s, &mut succs);
    let fps: Vec<u128> = succs.iter().map(|(_, t)| fper.fp(t)).collect();
    let mut keep = Vec::new();
    admit(&fps, &mut keep);
    debug_assert_eq!(keep.len(), fps.len());
    for (i, (label, t)) in succs.into_iter().enumerate() {
        if keep[i] {
            out.push((label, t, fps[i]));
        }
    }
}

/// A finite labeled transition system with a safety predicate.
pub trait TransitionSystem {
    /// State type (hashable; `Send` for the parallel searcher). Both
    /// engines queue a state as its [`Pack`] record and unpack it into a
    /// reused state seeded from [`TransitionSystem::initial`].
    type State: Clone + Eq + Hash + Send + Pack;
    /// Transition label (used in counterexamples).
    type Label: Clone + Send;
    /// Violation diagnosis carried by counterexamples. Structured systems
    /// use a typed reason (see `RejectReason` in the verify layer); toy
    /// systems can use `String`.
    type Violation: Clone + Send;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// All successors of a state, with labels.
    fn successors(&self, s: &Self::State) -> Vec<(Self::Label, Self::State)>;

    /// A safety violation in `s`, if any (checked on every reachable
    /// state, including the initial one).
    fn violation(&self, s: &Self::State) -> Option<Self::Violation>;

    /// Append all successors of `s` to `out` instead of allocating a
    /// fresh `Vec`. The work-stealing engine calls this with a reused
    /// per-worker buffer; implementations that can generate successors
    /// in place should override it (the default delegates to
    /// [`TransitionSystem::successors`]).
    fn successors_into(&self, s: &Self::State, out: &mut Vec<(Self::Label, Self::State)>) {
        out.extend(self.successors(s));
    }

    /// Per-worker scratch for [`TransitionSystem::expand_admitted`];
    /// engines create one per worker and reuse it for every expansion.
    fn expand_scratch(&self) -> ExpandScratch {
        ExpandScratch::none()
    }

    /// Admission-gated expansion: fingerprint every successor of `s`
    /// first, ask `admit` which fingerprints are worth keeping, and push
    /// only the admitted `(label, state, fingerprint)` triples to `out`.
    ///
    /// The contract, which both engines rely on:
    ///
    /// * every candidate successor's fingerprint is passed to `admit`
    ///   (possibly across several calls), and `admit` fills one `bool` per
    ///   fingerprint — `true` means materialize;
    /// * an admitted triple's fingerprint is exactly what `admit` saw, and
    ///   hashing the materialized state through `fper` reproduces it;
    /// * `admit` is a *hint*, not a claim: engines still insert admitted
    ///   fingerprints into their seen-set authoritatively, so false
    ///   positives (a racing worker admitted the state first, or the same
    ///   fingerprint appears twice in one expansion) cost a wasted
    ///   materialization, never a duplicate or dropped state.
    ///
    /// The default is the reference implementation: materialize every
    /// successor first (via [`TransitionSystem::successors_into`]),
    /// fingerprint them, and filter afterwards — correct for any system;
    /// systems with expensive states override this to defer the
    /// clone/allocate work until after admission.
    fn expand_admitted(
        &self,
        s: &Self::State,
        scratch: &mut ExpandScratch,
        fper: &Fingerprinter,
        admit: &mut dyn FnMut(&[u128], &mut Vec<bool>),
        out: &mut Vec<(Self::Label, Self::State, u128)>,
    ) {
        let _ = scratch;
        eager_expand(self, s, fper, admit, out);
    }
}

/// Search limits.
///
/// Construct with the builder: `BfsOptions::new().max_states(50_000)`.
/// The struct is `#[non_exhaustive]` so new limits can be added without
/// breaking callers; `BfsOptions::default()` remains as an escape hatch
/// (fields stay public for reading and in-place mutation) but literal
/// construction outside this crate is no longer possible.
///
/// These are *scope* limits: hitting one yields a `Bounded` verdict ("the
/// state space is larger than I was asked to cover"). Resource limits that
/// interrupt a run resumably live in [`crate::control::Budget`] instead.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct BfsOptions {
    /// Stop after visiting this many states.
    pub max_states: usize,
    /// Explore at most this many BFS levels.
    pub max_depth: usize,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions {
            max_states: 1_000_000,
            max_depth: usize::MAX,
        }
    }
}

impl BfsOptions {
    /// Default limits (1M states, unbounded depth); chain builder methods
    /// to adjust.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop after visiting this many states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Explore at most this many BFS levels.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct McStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// Depth reached.
    pub depth: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Worker threads used (1 for the sequential searcher).
    pub workers: usize,
    /// Successful chunk steals across all workers (work-stealing engine
    /// only; 0 elsewhere).
    pub steals: usize,
    /// Seen-set lock acquisitions, i.e. batch inserts (work-stealing
    /// engine only; 0 elsewhere).
    pub seen_batches: usize,
    /// Peak number of states queued for expansion at any instant (both
    /// engines).
    pub peak_frontier: usize,
}

impl McStats {
    /// Distinct states visited per second of wall-clock time.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }
}

/// A violating run: the labels from the initial state to the bad state,
/// and the violation diagnosis.
#[derive(Clone, Debug)]
pub struct Counterexample<L, V = String> {
    /// Transition labels along the path.
    pub path: Vec<L>,
    /// The safety predicate's diagnosis.
    pub reason: V,
}

/// Result of a search.
#[derive(Clone, Debug)]
pub enum SearchResult<L, V = String> {
    /// Every reachable state (within limits) is safe, and no limit was hit.
    Safe(McStats),
    /// Every explored state is safe but a limit stopped the search.
    Bounded(McStats),
    /// A violation was found.
    Unsafe(Counterexample<L, V>, McStats),
}

impl<L, V> SearchResult<L, V> {
    /// Search statistics regardless of outcome.
    pub fn stats(&self) -> McStats {
        match self {
            SearchResult::Safe(s) | SearchResult::Bounded(s) => *s,
            SearchResult::Unsafe(_, s) => *s,
        }
    }

    /// Did the search prove safety exhaustively?
    pub fn is_safe(&self) -> bool {
        matches!(self, SearchResult::Safe(_))
    }
}

/// Everything an interrupted search needs to continue exactly where it
/// stopped: the fingerprint seeds, the unexpanded frontier (packed
/// records with per-state BFS depths, as the engine queued them), the
/// parent edges accumulated so far, and the running totals. The parent
/// edges are also the seen-set: every admitted state but the initial one
/// is the child of exactly one edge.
///
/// The *consistency point* invariant all engines guarantee before handing
/// one of these back: every expanded state has all of its successors
/// admitted, and every admitted-but-unexpanded state appears in
/// `frontier`. Resuming therefore never re-expands or skips a state, and
/// the final verdict and state count match an uninterrupted run.
#[derive(Clone, Debug)]
pub struct SearchCheckpoint<S, L> {
    /// The [`Fingerprinter`] seeds; resume must hash under the same keys.
    pub seeds: [u64; 4],
    /// Fingerprint of the initial state (parent-chain terminator, and a
    /// resume-time sanity check that the system is the same one).
    pub init_fp: u128,
    /// Admitted-but-unexpanded states: `(state, fingerprint, depth)`
    /// records of `S`.
    pub frontier: Frontier<S>,
    /// Parent edges `(child_fp, parent_fp, label)`, one per admitted state
    /// other than the initial one: with `init_fp`, the admitted set, and
    /// the chains counterexample reconstruction walks after resume.
    pub parents: Vec<(u128, u128, L)>,
    /// Transitions explored so far.
    pub transitions: usize,
    /// Deepest BFS level admitted so far.
    pub depth: usize,
}

impl<S, L> SearchCheckpoint<S, L> {
    /// Distinct states admitted so far: the initial state plus one child
    /// per parent edge.
    pub fn states(&self) -> usize {
        self.parents.len() + 1
    }
}

/// A search at a consistent point, lent to a checkpoint writer: what a
/// [`SearchCheckpoint`] holds, streamed from the engine's own seen-set,
/// parent logs and queues instead of collected into one.
pub struct Snapshot<'s, L> {
    /// The [`Fingerprinter`] seeds.
    pub seeds: [u64; 4],
    /// Fingerprint of the initial state.
    pub init_fp: u128,
    /// Transitions explored so far.
    pub transitions: usize,
    /// Deepest BFS level admitted so far.
    pub depth: usize,
    /// Parent edges `(child_fp, parent_fp, label)`, one per admitted state
    /// other than the initial one.
    pub parents: &'s mut dyn ExactSizeIterator<Item = (u128, u128, &'s L)>,
    /// Admitted-but-unexpanded states as `(fingerprint, depth)`.
    pub frontier: &'s mut dyn ExactSizeIterator<Item = (u128, usize)>,
}

/// An iterator and its length: the engines' logs and queues span several
/// containers, and a checkpoint writes each list's length first.
pub(crate) struct Counted<I>(pub(crate) usize, pub(crate) I);

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.1.next().inspect(|_| self.0 -= 1)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0, Some(self.0))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}

/// The writer a [`Checkpoints`] lends each [`Snapshot`] to.
type Writer<'w, L> = dyn FnMut(Snapshot<'_, L>) -> Result<(), CheckpointError> + 'w;

/// Where a search writes its checkpoints: every `every` while it runs,
/// and once more if a limit stops it. When one is due, the engine lends
/// `write` a [`Snapshot`] at its next consistent point; after a periodic
/// one it carries on with the same seen-set, queues and counters. A
/// failed write stops the search as a cancel stops it, and
/// [`Checkpoints::error`] returns its error.
pub struct Checkpoints<'w, L> {
    every: Option<Duration>,
    /// When the next periodic checkpoint is due.
    pub(crate) due: Option<Instant>,
    write: &'w mut Writer<'w, L>,
    error: Option<CheckpointError>,
}

impl<'w, L> Checkpoints<'w, L> {
    /// The first periodic checkpoint is due `every` from now. An interval
    /// under 1 ms counts as 1 ms: each write costs time linear in the
    /// states admitted, and with no gap between writes the search would
    /// write before every expansion.
    pub fn new(every: Option<Duration>, write: &'w mut Writer<'w, L>) -> Self {
        let every = every.map(|e| e.max(Duration::from_millis(1)));
        Checkpoints {
            every,
            due: every.map(|e| Instant::now() + e),
            write,
            error: None,
        }
    }

    /// Hand `snap` to the writer and return whether it succeeded; the
    /// next periodic checkpoint is due `every` after it returns.
    pub(crate) fn write(&mut self, snap: Snapshot<'_, L>) -> bool {
        let written = (self.write)(snap);
        self.due = self.every.map(|e| Instant::now() + e);
        written.map_err(|e| self.error = Some(e)).is_ok()
    }

    /// The error of the write that stopped the search, if one failed.
    pub fn error(self) -> Option<CheckpointError> {
        self.error
    }
}

/// Outcome of a budget-/cancel-aware search.
#[derive(Clone, Debug)]
pub enum ControlledSearch<S, L, V = String> {
    /// The search ran to a verdict (safe, bounded, or unsafe).
    Finished(SearchResult<L, V>),
    /// A budget tripped or a cancel arrived; the engine drained to a
    /// consistent point and packaged the partial search.
    Interrupted {
        /// Which limit stopped the run.
        reason: InterruptReason,
        /// Resumable snapshot of the partial search.
        checkpoint: SearchCheckpoint<S, L>,
        /// Statistics at the interrupt point.
        stats: McStats,
    },
}

impl<S, L, V> ControlledSearch<S, L, V> {
    /// Search statistics regardless of outcome.
    pub fn stats(&self) -> McStats {
        match self {
            ControlledSearch::Finished(r) => r.stats(),
            ControlledSearch::Interrupted { stats, .. } => *stats,
        }
    }
}

/// The sequential seen map: fingerprint → index of the state's parent
/// edge in the parent log ([`NO_EDGE`] for the initial state).
type SeenMap = HashMap<u128, usize, FpBuild>;

/// The initial state's [`SeenMap`] entry: it is no edge's child.
const NO_EDGE: usize = usize::MAX;

/// Lend sequential BFS's live parent log and queue to `checkpoints`. Kept
/// out of line: it runs once per checkpoint, and inlined into the
/// expansion loop it slowed t=1 `prove` and `hunt` by 7–10%.
#[cold]
#[inline(never)]
fn lend_bfs<S, L>(
    checkpoints: &mut Checkpoints<'_, L>,
    seeds: [u64; 4],
    init_fp: u128,
    stats: &McStats,
    log: &[(u128, u128, L)],
    frontier: &Frontier<S>,
) -> bool {
    let mut parents = Counted(log.len(), log.iter().map(|(c, p, l)| (*c, *p, l)));
    let records = frontier.iter().map(|r| (r.fp, r.depth));
    let mut queued = Counted(frontier.len(), records);
    checkpoints.write(Snapshot {
        seeds,
        init_fp,
        transitions: stats.transitions,
        depth: stats.depth,
        parents: &mut parents,
        frontier: &mut queued,
    })
}

/// Sequential BFS with parent tracking for counterexample extraction.
/// The seen-set stores 128-bit fingerprints, not states (see
/// [`Fingerprinter`]); states live only in the frontier, packed.
pub fn bfs<T: TransitionSystem>(sys: &T, opts: BfsOptions) -> SearchResult<T::Label, T::Violation> {
    let _t = scv_telemetry::timer(scv_telemetry::Phase::Search);
    match bfs_controlled(sys, opts, &RunControl::unlimited(), None, None) {
        ControlledSearch::Finished(r) => r,
        ControlledSearch::Interrupted { .. } => {
            unreachable!("an unlimited RunControl never interrupts")
        }
    }
}

/// Sequential BFS under a [`RunControl`], optionally resuming a prior
/// [`SearchCheckpoint`] and writing [`Checkpoints`].
///
/// Limits and `checkpoints` are checked once per state expansion (the
/// admission boundary), before the next state leaves the queue. A due
/// checkpoint lends the live parent log and queue to the writer and the
/// search goes on; a tripped limit lends them once more, then moves them
/// — frontier records and parent edges — into a checkpoint. The queue is
/// a FIFO of packed `(state, fp, depth)` records ([`Frontier`]), each
/// unpacked into one reused parent state, so exploration order (and
/// counterexample minimality on fresh runs) matches the classic
/// level-by-level formulation.
pub fn bfs_controlled<T: TransitionSystem>(
    sys: &T,
    opts: BfsOptions,
    ctrl: &RunControl,
    resume: Option<SearchCheckpoint<T::State, T::Label>>,
    mut checkpoints: Option<&mut Checkpoints<'_, T::Label>>,
) -> ControlledSearch<T::State, T::Label, T::Violation> {
    use scv_telemetry::recorder;
    let start = Instant::now();
    if recorder::recorder_enabled() {
        recorder::set_worker("main");
    }
    let fper = match &resume {
        Some(ck) => Fingerprinter::from_seeds(ck.seeds),
        None => Fingerprinter::new(),
    };
    let mut stats = McStats {
        workers: 1,
        ..Default::default()
    };
    // Seen map: fingerprint -> its parent edge's index in `log`; the label
    // chain is all a counterexample needs. Fingerprints are already keyed
    // hashes, so the map folds them instead of hashing them again.
    let mut seen: SeenMap = HashMap::with_hasher(FpBuild);
    let mut log: Vec<(u128, u128, T::Label)> = Vec::new();
    let mut frontier: Frontier<T::State> = Frontier::new();
    // Every dequeued record is unpacked into this one state.
    let mut parent = sys.initial();
    let init_fp;

    match resume {
        Some(ck) => {
            init_fp = ck.init_fp;
            stats.states = ck.states();
            seen.reserve(stats.states);
            seen.insert(init_fp, NO_EDGE);
            seen.extend(ck.parents.iter().enumerate().map(|(i, e)| (e.0, i)));
            log = ck.parents;
            stats.transitions = ck.transitions;
            stats.depth = ck.depth;
            frontier = ck.frontier;
        }
        None => {
            init_fp = fper.fp(&parent);
            seen.insert(init_fp, NO_EDGE);
            stats.states = 1;
            scv_telemetry::add(scv_telemetry::Metric::McStatesAdmitted, 1);
            if let Some(reason) = sys.violation(&parent) {
                stats.elapsed = start.elapsed();
                return ControlledSearch::Finished(SearchResult::Unsafe(
                    Counterexample {
                        path: Vec::new(),
                        reason,
                    },
                    stats,
                ));
            }
            frontier.push(&parent, init_fp, 0);
        }
    }
    stats.peak_frontier = frontier.len();

    let rebuild = |seen: &SeenMap, log: &[(u128, u128, T::Label)], mut at: u128| {
        let mut path = Vec::new();
        while let Some((_, p, l)) = seen.get(&at).and_then(|&i| log.get(i)) {
            path.push(l.clone());
            at = *p;
        }
        path.reverse();
        path
    };

    let mut scratch = sys.expand_scratch();
    let mut admitted: Vec<(T::Label, T::State, u128)> = Vec::new();
    let mut truncated = false;
    let mut depth_limited = false;
    let mut ticks = 0u32;
    let mut rec_depth = usize::MAX; // last depth the recorder sampled at
    while !frontier.is_empty() {
        let mut tripped = ctrl.trip(stats.states, &mut ticks);
        let due = |c: &&mut Checkpoints<'_, T::Label>| {
            tripped.is_some() || c.due.is_some_and(|d| Instant::now() >= d)
        };
        if let Some(c) = checkpoints.as_deref_mut().filter(due) {
            if !lend_bfs(c, fper.seeds(), init_fp, &stats, &log, &frontier) {
                tripped = tripped.or(Some(InterruptReason::Cancelled));
            }
        }
        if let Some(reason) = tripped {
            stats.elapsed = start.elapsed();
            // The queue and the log move into the checkpoint: an
            // interrupted run copies neither.
            drop(seen);
            let checkpoint = SearchCheckpoint {
                seeds: fper.seeds(),
                init_fp,
                frontier,
                parents: log,
                transitions: stats.transitions,
                depth: stats.depth,
            };
            return ControlledSearch::Interrupted {
                reason,
                checkpoint,
                stats,
            };
        }
        let (sfp, d) = frontier
            .pop_into(&mut parent)
            .expect("the queue is not empty");
        if d >= opts.max_depth {
            depth_limited = true;
            continue;
        }
        if recorder::recorder_enabled() && rec_depth != d {
            rec_depth = d;
            recorder::counter(
                recorder::CounterTrack::FrontierDepth,
                frontier.len() as f64 + 1.0,
            );
            recorder::counter(recorder::CounterTrack::SeenStates, stats.states as f64);
        }
        // Admission gate: probe the seen-set with fingerprints so
        // duplicate successors are rejected before materialization.
        admitted.clear();
        {
            let seen = &seen;
            let transitions = &mut stats.transitions;
            let mut admit = |fps: &[u128], keep: &mut Vec<bool>| {
                *transitions += fps.len();
                scv_telemetry::add(scv_telemetry::Metric::McTransitions, fps.len() as u64);
                keep.clear();
                keep.extend(fps.iter().map(|fp| !seen.contains_key(fp)));
            };
            sys.expand_admitted(&parent, &mut scratch, &fper, &mut admit, &mut admitted);
        }
        // The counters stream as the run goes (admitted states below, one
        // at a time), so `--progress` and the registry follow a t=1 run.
        if scv_telemetry::enabled() {
            recorder::set_live(
                recorder::LiveGauge::FrontierDepth,
                frontier.len() as u64 + 1,
            );
        }
        for (label, t, fp) in admitted.drain(..) {
            // Authoritative insert: within-expansion duplicates both
            // pass the probe, so re-check here.
            match seen.entry(fp) {
                std::collections::hash_map::Entry::Occupied(_) => continue,
                std::collections::hash_map::Entry::Vacant(v) => v.insert(log.len()),
            };
            log.push((fp, sfp, label));
            stats.states += 1;
            scv_telemetry::add(scv_telemetry::Metric::McStatesAdmitted, 1);
            stats.depth = stats.depth.max(d + 1);
            if let Some(reason) = sys.violation(&t) {
                stats.elapsed = start.elapsed();
                return ControlledSearch::Finished(SearchResult::Unsafe(
                    Counterexample {
                        path: rebuild(&seen, &log, fp),
                        reason,
                    },
                    stats,
                ));
            }
            if stats.states >= opts.max_states {
                truncated = true;
                break;
            }
            frontier.push(&t, fp, d + 1);
        }
        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
        if truncated {
            break;
        }
    }
    stats.elapsed = start.elapsed();
    ControlledSearch::Finished(if truncated || depth_limited {
        SearchResult::Bounded(stats)
    } else {
        SearchResult::Safe(stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Budget, CancelToken};

    /// A counter modulo n that "violates" at a designated value.
    struct Counter {
        n: u32,
        bad: Option<u32>,
    }

    impl TransitionSystem for Counter {
        type State = u32;
        type Label = &'static str;
        type Violation = String;

        fn initial(&self) -> u32 {
            0
        }
        fn successors(&self, s: &u32) -> Vec<(&'static str, u32)> {
            vec![("inc", (s + 1) % self.n), ("dbl", (s * 2) % self.n)]
        }
        fn violation(&self, s: &u32) -> Option<String> {
            (Some(*s) == self.bad).then(|| format!("hit {s}"))
        }
    }

    #[test]
    fn safe_system_explores_all_states() {
        let sys = Counter { n: 97, bad: None };
        let r = bfs(&sys, BfsOptions::default());
        assert!(r.is_safe());
        assert_eq!(r.stats().states, 97);
    }

    #[test]
    fn violation_found_with_shortest_path() {
        let sys = Counter {
            n: 97,
            bad: Some(5),
        };
        match bfs(&sys, BfsOptions::default()) {
            SearchResult::Unsafe(ce, _) => {
                assert_eq!(ce.reason, "hit 5");
                // Shortest path to 5: 0->1->2->4->5 (inc,dbl,dbl,inc) = 4 steps
                // or 0->1->2->3->... BFS guarantees minimality: length 4.
                assert_eq!(ce.path.len(), 4);
                // Replay the path.
                let mut s = 0u32;
                for l in &ce.path {
                    s = match *l {
                        "inc" => (s + 1) % 97,
                        _ => (s * 2) % 97,
                    };
                }
                assert_eq!(s, 5);
            }
            r => panic!("expected Unsafe, got {r:?}"),
        }
    }

    #[test]
    fn state_limit_reports_bounded() {
        let sys = Counter { n: 1000, bad: None };
        let r = bfs(&sys, BfsOptions::new().max_states(10));
        assert!(matches!(r, SearchResult::Bounded(_)));
    }

    #[test]
    fn depth_limit_reports_bounded() {
        let sys = Counter { n: 1000, bad: None };
        let r = bfs(&sys, BfsOptions::new().max_states(usize::MAX).max_depth(3));
        assert!(matches!(r, SearchResult::Bounded(_)));
    }

    #[test]
    fn violating_initial_state_caught() {
        let sys = Counter {
            n: 10,
            bad: Some(0),
        };
        match bfs(&sys, BfsOptions::default()) {
            SearchResult::Unsafe(ce, _) => assert!(ce.path.is_empty()),
            r => panic!("expected Unsafe, got {r:?}"),
        }
    }

    /// Interrupt a sequential run with a state budget, then resume from
    /// the checkpoint: verdict and total state count must match a clean
    /// run, and the interrupt must report accurate coverage.
    #[test]
    fn sequential_interrupt_resume_matches_clean_run() {
        let sys = Counter { n: 977, bad: None };
        let clean = bfs(&sys, BfsOptions::default());
        for cut in [1usize, 7, 100, 500] {
            let ctrl = RunControl::new(&Budget::unlimited().states(cut), CancelToken::new());
            let r = bfs_controlled(&sys, BfsOptions::default(), &ctrl, None, None);
            let ControlledSearch::Interrupted {
                reason,
                checkpoint,
                stats,
            } = r
            else {
                panic!("budget of {cut} must interrupt a 977-state space");
            };
            assert_eq!(reason, InterruptReason::StateBudget);
            assert!(stats.states >= cut);
            assert!(!checkpoint.frontier.is_empty(), "cut {cut}");
            // The parent log is the admitted set: one edge per state but
            // the initial one, each naming a distinct child.
            assert_eq!(checkpoint.parents.len() + 1, stats.states, "cut {cut}");
            let children: std::collections::HashSet<u128> =
                checkpoint.parents.iter().map(|e| e.0).collect();
            assert_eq!(children.len(), checkpoint.parents.len(), "cut {cut}");
            assert!(!children.contains(&checkpoint.init_fp), "cut {cut}");
            let resumed = bfs_controlled(
                &sys,
                BfsOptions::default(),
                &RunControl::unlimited(),
                Some(checkpoint),
                None,
            );
            let ControlledSearch::Finished(r2) = resumed else {
                panic!("unlimited resume must finish");
            };
            assert!(r2.is_safe(), "cut {cut}");
            assert_eq!(r2.stats().states, clean.stats().states, "cut {cut}");
            assert_eq!(r2.stats().depth, clean.stats().depth, "cut {cut}");
        }
    }

    /// A resumed run still finds violations, and the reconstructed path
    /// replays to the bad state.
    #[test]
    fn resume_still_finds_violation() {
        let sys = Counter {
            n: 977,
            bad: Some(900),
        };
        let ctrl = RunControl::new(&Budget::unlimited().states(50), CancelToken::new());
        let ControlledSearch::Interrupted { checkpoint, .. } =
            bfs_controlled(&sys, BfsOptions::default(), &ctrl, None, None)
        else {
            panic!("expected interrupt");
        };
        let ControlledSearch::Finished(SearchResult::Unsafe(ce, _)) = bfs_controlled(
            &sys,
            BfsOptions::default(),
            &RunControl::unlimited(),
            Some(checkpoint),
            None,
        ) else {
            panic!("resume must find the violation");
        };
        let mut s = 0u32;
        for l in &ce.path {
            s = match *l {
                "inc" => (s + 1) % 977,
                _ => (s * 2) % 977,
            };
        }
        assert_eq!(s, 900, "path must replay to the bad state");
    }

    /// Cancellation interrupts promptly and the checkpoint resumes.
    #[test]
    fn cancel_interrupts_sequential_run() {
        let sys = Counter { n: 977, bad: None };
        let token = CancelToken::new();
        token.cancel();
        let ctrl = RunControl::new(&Budget::unlimited(), token);
        match bfs_controlled(&sys, BfsOptions::default(), &ctrl, None, None) {
            ControlledSearch::Interrupted { reason, .. } => {
                assert_eq!(reason, InterruptReason::Cancelled)
            }
            r => panic!("expected Interrupted, got stats {:?}", r.stats()),
        }
    }

    /// Fingerprinter seeds round-trip: same seeds, same fingerprints.
    #[test]
    fn fingerprinter_seed_roundtrip() {
        let f1 = Fingerprinter::new();
        let f2 = Fingerprinter::from_seeds(f1.seeds());
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(f1.fp(&v), f2.fp(&v));
            assert_eq!(f1.seal_key(&v), f2.seal_key(&v));
        }
        let f3 = Fingerprinter::new();
        assert_ne!(
            f1.fp(&7u64),
            f3.fp(&7u64),
            "independent fingerprinters should disagree"
        );
    }
}
