//! Asynchronous work-stealing reachability search.
//!
//! This is the only parallel engine: `threads > 1` runs it, `threads ==
//! 1` runs sequential BFS ([`crate::mc::bfs`]), which stays as the
//! reference for exact counts and shortest counterexamples. A
//! level-synchronous parallel BFS pays three taxes that EXPERIMENTS.md E9
//! measured as absorbing *all* parallelism at product-state granularity
//! (tens of microseconds per state): a full-frontier barrier every level,
//! one seen-set mutex acquisition per successor, and allocator traffic for
//! every level's frontier vectors. This engine removes each:
//!
//! * **No barrier.** Work lives in fixed-size *chunks* of packed state
//!   records ([`crate::frontier`]) on per-worker deques. Workers pop
//!   locally from the back (LIFO — hot caches), and steal whole chunks
//!   from the *front* of a victim's deque
//!   (FIFO — steals take the oldest, largest-subtree work, the classic
//!   Cilk/crossbeam discipline at batch granularity). Deques are
//!   mutex-guarded `VecDeque`s: operations are chunk-granular, so each
//!   lock acquisition amortizes over an entire chunk of states —
//!   contention is structurally negligible, no lock-free deque needed.
//! * **Batched seen-set claiming.** Successor fingerprints are buffered
//!   per seen-set stripe and inserted through
//!   [`StripedSeen::insert_batch`] — one lock acquisition per batch
//!   (up to `batch` fingerprints), not per state.
//! * **Arena-style reuse.** Each worker owns long-lived successor and
//!   stripe buffers that are drained and reused, so steady-state
//!   expansion does per-successor pushes into pre-grown vectors instead
//!   of allocating fresh frontier vectors every level. A worker unpacks
//!   every record it dequeues into one reused parent state.
//!
//! **Termination detection** uses a pending-chunk count plus a steal
//! epoch: `pending` counts every chunk from the moment it is enqueued
//! until its last successor is flushed, so `pending == 0` proves global
//! quiescence (no queued chunk, no in-flight expansion, no buffered
//! successor); the `epoch` counter, bumped on every enqueue, lets idle
//! workers wait cheaply and re-scan victims only when new work has
//! actually appeared. Workers also count idle sweeps in
//! [`WorkerStats::idle_spins`], making scheduler health observable.
//!
//! **Counterexamples** survive the asynchrony: each worker logs
//! `(child-fp, parent-fp, label)` for every state *it* admitted (the
//! seen-set admits each state exactly once, so logs never conflict), and
//! on a violation the per-worker logs are merged and the fingerprint
//! chain walked back to the initial state. Paths are valid runs but —
//! unlike sequential BFS — not necessarily shortest.
//!
//! **Verdict determinism.** `Safe`/`Bounded`/`Unsafe` agree with
//! sequential BFS whenever the limits are not the deciding factor: an
//! exhaustive search admits one representative of every reachable class,
//! and a violation reachable within the limits is found by *some* worker
//! before quiescence. Only searches truncated by `max_states`/`max_depth`
//! may differ in which frontier they saw; a state-capped run still ends at
//! exactly `max_states`. The `states` count of an exhaustive search is
//! exact only when the canonical encoding is a congruence, and a product
//! state's is not: which member of a class is admitted first depends on
//! the schedule, and classes reached from different members can differ
//! (DESIGN.md §6). Exhaustive counts therefore drift a few percent
//! between schedules (serial (2,1,1) with symmetry off: 121 469 states at
//! t=1, 123 342 and 123 209 in two t=2 runs). `tests/parallel_mc.rs` pins
//! this battery down across the protocol zoo.
//!
//! **Interrupts** ([`ws_search_controlled`]): budgets and cancellation are
//! polled at chunk and flush boundaries, never per successor. A tripped
//! worker raises a shared interrupt byte; every worker then *drains to a
//! consistent point* — flushes its dirty stripe buffers, hands off its
//! output chunk, pushes the unprocessed remainder of its input chunk back
//! onto its deque — and exits. At that point each expanded state has all
//! successors admitted and every admitted-unexpanded state sits in some
//! deque, so the main thread can snapshot the queues + seen-set + parent
//! logs into a [`SearchCheckpoint`] from which a later run continues with
//! verdict- and state-count parity. A checkpoint file is written from the
//! same drain: the main thread lends the deques and parent logs to the
//! [`Checkpoints`] writer, and after a periodic checkpoint clears the flag
//! and spawns the workers again over the same seen-set, deques and
//! counters.

use crate::control::{code_to_reason, reason_to_code, InterruptReason, RunControl};
use crate::frontier::{Chunk, Frontier};
use crate::mc::{
    BfsOptions, Checkpoints, ControlledSearch, Counted, Counterexample, ExpandScratch,
    Fingerprinter, McStats, SearchCheckpoint, SearchResult, Snapshot, TransitionSystem,
};
use crate::seen::StripedSeen;
use crate::sip::FpBuild;
use scv_types::Pack;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker counters, exposed for benches and the soak test.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// States this worker expanded (generated successors of).
    pub expanded: usize,
    /// Transitions this worker explored.
    pub transitions: usize,
    /// New states this worker admitted into the seen-set.
    pub admitted: usize,
    /// Chunks successfully stolen from other workers.
    pub steals: usize,
    /// Seen-set lock acquisitions (batch inserts).
    pub seen_batches: usize,
    /// Idle sweeps that found no local or stealable work.
    pub idle_spins: usize,
}

/// A buffered successor awaiting its stripe's batch insert (live: it is
/// packed once it is admitted and its safety predicate holds).
struct PendingSucc<T: TransitionSystem> {
    fp: u128,
    parent_fp: u128,
    depth: usize,
    label: T::Label,
    state: T::State,
}

/// The interrupt code of a due periodic checkpoint, which is no
/// [`InterruptReason`]: the main thread writes it and respawns the workers.
const TICK: u8 = u8::MAX;

struct Shared<'a, T: TransitionSystem> {
    sys: &'a T,
    opts: BfsOptions,
    ctrl: &'a RunControl,
    fper: Fingerprinter,
    seen: StripedSeen,
    queues: Vec<Mutex<VecDeque<Chunk>>>,
    /// Chunks enqueued but not yet fully expanded-and-flushed.
    pending: AtomicUsize,
    /// Bumped on every enqueue; idle workers re-scan when it moves.
    epoch: AtomicU64,
    stop: AtomicBool,
    /// Nonzero = an [`InterruptReason`] code or [`TICK`]; workers drain
    /// and exit when they observe it.
    interrupt: AtomicU8,
    /// When the next periodic checkpoint is due.
    tick_at: Option<Instant>,
    states: AtomicU64,
    depth_max: AtomicUsize,
    state_limited: AtomicBool,
    depth_limited: AtomicBool,
    queued_items: AtomicUsize,
    peak_frontier: AtomicUsize,
    found: Mutex<Option<(u128, T::Violation)>>,
    chunk_size: usize,
    batch: usize,
}

impl<T: TransitionSystem> Shared<'_, T> {
    fn push_chunk(&self, worker: usize, chunk: Chunk) {
        let items = chunk.len();
        self.pending.fetch_add(1, Ordering::SeqCst);
        let q = self.queued_items.fetch_add(items, Ordering::Relaxed) + items;
        self.peak_frontier.fetch_max(q, Ordering::Relaxed);
        if scv_telemetry::enabled() {
            scv_telemetry::recorder::set_live(
                scv_telemetry::recorder::LiveGauge::FrontierDepth,
                q as u64,
            );
        }
        if scv_telemetry::recorder_enabled() {
            scv_telemetry::recorder::counter(
                scv_telemetry::recorder::CounterTrack::FrontierDepth,
                q as f64,
            );
        }
        self.queues[worker].lock().unwrap().push_back(chunk);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Pop from the back of our own deque, else steal from the front of
    /// another worker's (round-robin sweep from our right neighbour).
    fn obtain_chunk(&self, worker: usize, stats: &mut WorkerStats) -> Option<Chunk> {
        if let Some(chunk) = self.queues[worker].lock().unwrap().pop_back() {
            self.queued_items.fetch_sub(chunk.len(), Ordering::Relaxed);
            return Some(chunk);
        }
        let n = self.queues.len();
        for i in 1..n {
            let victim = (worker + i) % n;
            if let Some(chunk) = self.queues[victim].lock().unwrap().pop_front() {
                self.queued_items.fetch_sub(chunk.len(), Ordering::Relaxed);
                stats.steals += 1;
                if scv_telemetry::recorder_enabled() {
                    scv_telemetry::recorder::instant(
                        scv_telemetry::recorder::InstantKind::Steal,
                        chunk.len() as u64,
                    );
                }
                return Some(chunk);
            }
        }
        None
    }

    /// Poll the run control and the tick clock at a batch boundary; on a
    /// trip or a due tick, raise the shared interrupt flag (first tripper
    /// wins).
    fn check_trip(&self, ticks: &mut u32) {
        if self.interrupt.load(Ordering::Relaxed) != 0 {
            return;
        }
        let states = self.states.load(Ordering::Relaxed) as usize;
        let code = match self.ctrl.trip(states, ticks) {
            Some(reason) => reason_to_code(reason),
            None if self.tick_at.is_some_and(|t| Instant::now() >= t) => TICK,
            None => return,
        };
        let _ = self
            .interrupt
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// Parent-log entries an interrupt moves from one worker's log to the
/// checkpoint's at a time.
const MERGE_BLOCK: usize = 1 << 16;

/// One worker's append-only `(child, parent, label)` fingerprint log —
/// merged across workers only when a violation needs a counterexample or
/// an interrupt needs a checkpoint.
type ParentLog<L> = Vec<(u128, u128, L)>;

/// One worker's long-lived scratch space (the "successor arena"): every
/// vector here is drained and reused across chunks, so steady-state
/// expansion performs no frontier allocation at all. `expand` is the
/// system's own scratch (replay copies and encoding buffers for the
/// product system), threaded through every admission-gated expansion.
struct Scratch<T: TransitionSystem> {
    expand: ExpandScratch,
    admitted: Vec<(T::Label, T::State, u128)>,
    probe_order: Vec<(u32, u32)>,
    stripes: Vec<Vec<PendingSucc<T>>>,
    fp_scratch: Vec<u128>,
    flag_scratch: Vec<bool>,
    /// Records packed for the next chunk this worker hands off (reused:
    /// each handoff copies them into an exact-size chunk).
    out_chunk: Chunk,
    /// Where a state is packed before its record goes into `out_chunk`.
    stage: Vec<u8>,
    parent_log: ParentLog<T::Label>,
}

/// Run one worker until the search stops or is interrupted. Its counters
/// and parent log outlive the thread, which a checkpoint tick ends and
/// spawns again. Its scratch is made and freed on the thread: freed on
/// the main thread instead, it raised `sweep-ws` peak RSS by about 13%.
fn worker_loop<T: TransitionSystem>(
    shared: &Shared<'_, T>,
    id: usize,
    (stats, log): &mut (WorkerStats, ParentLog<T::Label>),
) {
    if scv_telemetry::recorder_enabled() {
        scv_telemetry::recorder::set_worker(&format!("ws-{id}"));
    }
    let mut scratch = Scratch::<T> {
        expand: shared.sys.expand_scratch(),
        admitted: Vec::new(),
        probe_order: Vec::new(),
        stripes: (0..shared.seen.shard_count()).map(|_| Vec::new()).collect(),
        fp_scratch: Vec::new(),
        flag_scratch: Vec::new(),
        out_chunk: Chunk::default(),
        stage: Vec::new(),
        parent_log: std::mem::take(log),
    };
    // Every dequeued record is unpacked into this one state.
    let mut parent = shared.sys.initial();
    let mut ticks = 0u32;

    'main: loop {
        // At the top of the loop all scratch buffers are clean (flushed at
        // end of chunk), so exiting here is already a consistent point.
        if shared.stop.load(Ordering::Relaxed) || shared.interrupt.load(Ordering::Relaxed) != 0 {
            break;
        }
        let Some(mut chunk) = shared.obtain_chunk(id, stats) else {
            if shared.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            // Quiesce until new work appears (epoch moves) or everything
            // drains. Spin briefly, then yield the core.
            stats.idle_spins += 1;
            scv_telemetry::add(scv_telemetry::Metric::McIdleSpins, 1);
            if scv_telemetry::recorder_enabled() {
                scv_telemetry::recorder::instant(
                    scv_telemetry::recorder::InstantKind::Idle,
                    stats.idle_spins as u64,
                );
            }
            let seen_epoch = shared.epoch.load(Ordering::Acquire);
            let mut spins = 0u32;
            while shared.epoch.load(Ordering::Acquire) == seen_epoch
                && shared.pending.load(Ordering::SeqCst) != 0
                && !shared.stop.load(Ordering::Relaxed)
                && shared.interrupt.load(Ordering::Relaxed) == 0
            {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            continue;
        };
        // One control poll per obtained chunk: the batch boundary that
        // keeps the per-state loop branch-cheap.
        shared.check_trip(&mut ticks);

        while !chunk.is_empty() {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            if shared.interrupt.load(Ordering::Relaxed) != 0 {
                // Drain to a consistent point: admit everything already
                // buffered, hand off the output chunk, and put the
                // unprocessed tail of this chunk back on our deque so the
                // checkpoint frontier sees it.
                for stripe in 0..scratch.stripes.len() {
                    if !scratch.stripes[stripe].is_empty() {
                        flush_stripe(shared, id, stripe, &mut scratch, stats);
                    }
                }
                if !scratch.out_chunk.is_empty() {
                    shared.push_chunk(id, scratch.out_chunk.take_exact());
                }
                shared.push_chunk(id, chunk);
                shared.pending.fetch_sub(1, Ordering::SeqCst);
                break 'main;
            }
            let (fp, depth) = chunk.pop_into(&mut parent).expect("the chunk is not empty");
            stats.expanded += 1;
            // Admission gate: batch-probe the seen-set with successor
            // fingerprints so duplicates are rejected before the system
            // materializes them. The probe is a hint; `insert_batch` in
            // `flush_stripe` stays authoritative, so a racing worker
            // admitting the same state first costs only the one wasted
            // materialization.
            let mut admitted = std::mem::take(&mut scratch.admitted);
            admitted.clear();
            let mut n_cand = 0usize;
            {
                let probe_order = &mut scratch.probe_order;
                let mut admit = |fps: &[u128], keep: &mut Vec<bool>| {
                    n_cand += fps.len();
                    shared.seen.probe_many(fps, keep, probe_order);
                };
                shared.sys.expand_admitted(
                    &parent,
                    &mut scratch.expand,
                    &shared.fper,
                    &mut admit,
                    &mut admitted,
                );
            }
            stats.transitions += n_cand;
            scv_telemetry::add(scv_telemetry::Metric::McTransitions, n_cand as u64);
            for (label, succ, sfp) in admitted.drain(..) {
                let stripe = shared.seen.shard_of(sfp);
                scratch.stripes[stripe].push(PendingSucc {
                    fp: sfp,
                    parent_fp: fp,
                    depth: depth + 1,
                    label,
                    state: succ,
                });
                if scratch.stripes[stripe].len() >= shared.batch {
                    flush_stripe(shared, id, stripe, &mut scratch, stats);
                    if shared.stop.load(Ordering::Relaxed) {
                        break 'main;
                    }
                    // A flush is the other batch boundary worth a poll.
                    shared.check_trip(&mut ticks);
                }
            }
            scratch.admitted = admitted;
        }
        // End of chunk: flush every dirty stripe, hand off any full output
        // chunk, and only then retire the input chunk from `pending`.
        for stripe in 0..scratch.stripes.len() {
            if !scratch.stripes[stripe].is_empty() {
                flush_stripe(shared, id, stripe, &mut scratch, stats);
                if shared.stop.load(Ordering::Relaxed) {
                    break 'main;
                }
            }
        }
        if !scratch.out_chunk.is_empty() {
            shared.push_chunk(id, scratch.out_chunk.take_exact());
        }
        shared.pending.fetch_sub(1, Ordering::SeqCst);
    }
    // Hand the worker's flight-recorder ring to the collector before the
    // scope joins us (TLS destructors may outlive the join).
    scv_telemetry::recorder::flush_worker();
    *log = scratch.parent_log;
}

/// Batch-insert one stripe's buffered successors, then admit the new ones:
/// log parents, check the safety predicate, enforce limits, and enqueue
/// for expansion.
fn flush_stripe<T: TransitionSystem>(
    shared: &Shared<'_, T>,
    worker: usize,
    stripe: usize,
    scratch: &mut Scratch<T>,
    stats: &mut WorkerStats,
) {
    scratch.fp_scratch.clear();
    scratch.flag_scratch.clear();
    scratch
        .fp_scratch
        .extend(scratch.stripes[stripe].iter().map(|p| p.fp));
    let batch_new =
        shared
            .seen
            .insert_batch(stripe, &scratch.fp_scratch, &mut scratch.flag_scratch);
    stats.seen_batches += 1;
    if scv_telemetry::recorder_enabled() {
        // `insert_batch` records the batch instant; the running total
        // (which only this engine knows) becomes the seen-load counter.
        scv_telemetry::recorder::counter(
            scv_telemetry::recorder::CounterTrack::SeenStates,
            shared.states.load(Ordering::Relaxed) as f64 + batch_new as f64,
        );
    }

    let mut max_depth_seen = 0usize;
    let admitted_before = stats.admitted;
    for (i, pending) in scratch.stripes[stripe].drain(..).enumerate() {
        if !scratch.flag_scratch[i] {
            continue;
        }
        // Reserve a slot below the cap first: a state past it is neither
        // counted, logged nor checked, so a capped run ends at exactly
        // `max_states`, as sequential BFS does.
        let Ok(prev) = shared
            .states
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                ((n as usize) < shared.opts.max_states).then_some(n + 1)
            })
        else {
            shared.state_limited.store(true, Ordering::Relaxed);
            shared.stop.store(true, Ordering::Relaxed);
            break;
        };
        let total = prev + 1;
        stats.admitted += 1;
        max_depth_seen = max_depth_seen.max(pending.depth);
        scratch
            .parent_log
            .push((pending.fp, pending.parent_fp, pending.label));
        if let Some(v) = shared.sys.violation(&pending.state) {
            let mut found = shared.found.lock().unwrap();
            if found.is_none() {
                *found = Some((pending.fp, v));
            }
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
        if total as usize >= shared.opts.max_states {
            shared.state_limited.store(true, Ordering::Relaxed);
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
        if pending.depth >= shared.opts.max_depth {
            // Visited but not expanded — the depth frontier is non-empty,
            // exactly sequential BFS's Bounded condition.
            shared.depth_limited.store(true, Ordering::Relaxed);
            continue;
        }
        scratch.stage.clear();
        pending.state.pack(&mut scratch.stage);
        scratch
            .out_chunk
            .push(pending.fp, pending.depth, &scratch.stage);
        if scratch.out_chunk.len() >= shared.chunk_size {
            // New work stays on the owner's deque (classic work-stealing:
            // distribution happens only through steals).
            shared.push_chunk(worker, scratch.out_chunk.take_exact());
        }
    }
    shared
        .depth_max
        .fetch_max(max_depth_seen, Ordering::Relaxed);
    scv_telemetry::add(
        scv_telemetry::Metric::McStatesAdmitted,
        (stats.admitted - admitted_before) as u64,
    );
}

/// Work-stealing search; same contract as [`crate::mc::bfs`]. Returns
/// the aggregate result plus per-worker statistics.
pub fn ws_search_detailed<T>(
    sys: &T,
    opts: BfsOptions,
    threads: usize,
    batch: usize,
) -> (SearchResult<T::Label, T::Violation>, Vec<WorkerStats>)
where
    T: TransitionSystem + Sync,
    T::Label: Send,
{
    let unlimited = RunControl::unlimited();
    let (r, ws) = ws_search_controlled(sys, opts, threads, batch, &unlimited, None, None);
    match r {
        ControlledSearch::Finished(r) => (r, ws),
        ControlledSearch::Interrupted { .. } => {
            unreachable!("an unlimited RunControl never interrupts")
        }
    }
}

/// Work-stealing search under a [`RunControl`], optionally resuming a
/// prior [`SearchCheckpoint`] and writing [`Checkpoints`]; see the module docs
/// for the interrupt drain protocol.
#[allow(clippy::type_complexity)]
pub fn ws_search_controlled<T>(
    sys: &T,
    opts: BfsOptions,
    threads: usize,
    batch: usize,
    ctrl: &RunControl,
    resume: Option<SearchCheckpoint<T::State, T::Label>>,
    mut checkpoints: Option<&mut Checkpoints<'_, T::Label>>,
) -> (
    ControlledSearch<T::State, T::Label, T::Violation>,
    Vec<WorkerStats>,
)
where
    T: TransitionSystem + Sync,
    T::Label: Send,
{
    let _t = scv_telemetry::timer(scv_telemetry::Phase::Search);
    if scv_telemetry::recorder_enabled() {
        scv_telemetry::recorder::set_worker("main");
    }
    let start = Instant::now();
    let threads = threads.max(1);
    let batch = batch.clamp(1, 4096);
    let fper = match &resume {
        Some(ck) => Fingerprinter::from_seeds(ck.seeds),
        None => Fingerprinter::new(),
    };

    let mut shared = Shared::<T> {
        sys,
        opts,
        ctrl,
        seen: StripedSeen::new((threads * 4).max(16)),
        fper,
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(0),
        epoch: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        interrupt: AtomicU8::new(0),
        tick_at: checkpoints.as_ref().and_then(|c| c.due),
        states: AtomicU64::new(0),
        depth_max: AtomicUsize::new(0),
        state_limited: AtomicBool::new(false),
        depth_limited: AtomicBool::new(false),
        queued_items: AtomicUsize::new(0),
        peak_frontier: AtomicUsize::new(0),
        found: Mutex::new(None),
        chunk_size: batch,
        batch,
    };

    let mut per_worker: Vec<(WorkerStats, ParentLog<T::Label>)> = (0..threads)
        .map(|_| (WorkerStats::default(), Vec::new()))
        .collect();
    let init_fp;
    let mut base_transitions = 0usize;
    match resume {
        Some(ck) => {
            init_fp = ck.init_fp;
            shared.seen.insert(init_fp);
            for &(child, _, _) in &ck.parents {
                shared.seen.insert(child);
            }
            shared.states.store(ck.states() as u64, Ordering::Relaxed);
            shared.depth_max.store(ck.depth, Ordering::Relaxed);
            base_transitions = ck.transitions;
            // The resumed log goes first in worker 0's: the logs are only
            // ever read whole.
            per_worker[0].1 = ck.parents;
            // Re-chunk the saved frontier round-robin across the deques so
            // every worker starts with local work.
            for (w, chunk) in ck.frontier.into_chunks(batch).enumerate() {
                shared.push_chunk(w % threads, chunk);
            }
        }
        None => {
            let init = sys.initial();
            // Counted as sequential BFS counts it: admitted before checked.
            scv_telemetry::add(scv_telemetry::Metric::McStatesAdmitted, 1);
            if let Some(reason) = sys.violation(&init) {
                let stats = McStats {
                    states: 1,
                    workers: threads,
                    elapsed: start.elapsed(),
                    ..Default::default()
                };
                return (
                    ControlledSearch::Finished(SearchResult::Unsafe(
                        Counterexample {
                            path: Vec::new(),
                            reason,
                        },
                        stats,
                    )),
                    vec![WorkerStats::default(); threads],
                );
            }
            init_fp = shared.fper.fp(&init);
            shared.seen.insert(init_fp);
            shared.states.store(1, Ordering::Relaxed);
            if opts.max_depth == 0 {
                // Visited but not expanded, like any admitted state at the
                // depth limit.
                shared.depth_limited.store(true, Ordering::Relaxed);
            } else {
                let (mut first, mut packed) = (Chunk::default(), Vec::new());
                init.pack(&mut packed);
                first.push(init_fp, 0, &packed);
                shared.push_chunk(0, first);
            }
        }
    }

    loop {
        std::thread::scope(|scope| {
            for (id, worker) in per_worker.iter_mut().enumerate() {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, id, worker));
            }
        });
        // After an interrupt every worker drained to a consistent point,
        // so the deques hold the frontier and the logs the admitted set.
        let code = shared.interrupt.load(Ordering::Relaxed);
        let c = match checkpoints.as_deref_mut() {
            Some(c) if code != 0 && !shared.stop.load(Ordering::Relaxed) => c,
            _ => break,
        };
        let logs = || per_worker.iter().map(|(_, log)| log);
        let mut parents = Counted(
            logs().map(Vec::len).sum(),
            logs().flatten().map(|(c, p, l)| (*c, *p, l)),
        );
        let queued = shared
            .queues
            .iter_mut()
            .flat_map(|q| q.get_mut().unwrap().iter());
        let mut frontier = Counted(
            shared.queued_items.load(Ordering::Relaxed),
            queued.flat_map(Chunk::records).map(|r| (r.fp, r.depth)),
        );
        let ok = c.write(Snapshot {
            seeds: shared.fper.seeds(),
            init_fp,
            transitions: base_transitions
                + per_worker.iter().map(|w| w.0.transitions).sum::<usize>(),
            depth: shared.depth_max.load(Ordering::Relaxed),
            parents: &mut parents,
            frontier: &mut frontier,
        });
        if !ok {
            let cancelled = reason_to_code(InterruptReason::Cancelled);
            shared.interrupt.store(cancelled, Ordering::Relaxed);
        }
        if !ok || code != TICK {
            break;
        }
        shared.interrupt.store(0, Ordering::Relaxed);
        shared.tick_at = c.due;
    }

    let mut worker_stats = Vec::with_capacity(threads);
    let mut stats = McStats {
        states: shared.states.load(Ordering::Relaxed) as usize,
        transitions: base_transitions,
        depth: shared.depth_max.load(Ordering::Relaxed),
        workers: threads,
        peak_frontier: shared.peak_frontier.load(Ordering::Relaxed),
        ..Default::default()
    };
    for (ws, _) in &per_worker {
        stats.transitions += ws.transitions;
        stats.steals += ws.steals;
        stats.seen_batches += ws.seen_batches;
        worker_stats.push(*ws);
    }
    stats.elapsed = start.elapsed();

    // Priority: a found violation or an exceeded scope limit outranks an
    // interrupt — those are real verdicts, the interrupt is only "stopped
    // early".
    let found = shared.found.lock().unwrap().take();
    if let Some((bad_fp, reason)) = found {
        let parents: HashMap<u128, (u128, T::Label), FpBuild> = per_worker
            .into_iter()
            .flat_map(|(_, log)| log)
            .map(|(child, parent, label)| (child, (parent, label)))
            .collect();
        let mut path = Vec::new();
        let mut cur = bad_fp;
        while let Some((parent, label)) = parents.get(&cur) {
            path.push(label.clone());
            cur = *parent;
        }
        path.reverse();
        return (
            ControlledSearch::Finished(SearchResult::Unsafe(
                Counterexample { path, reason },
                stats,
            )),
            worker_stats,
        );
    }
    let truncated = shared.state_limited.load(Ordering::Relaxed)
        || shared.depth_limited.load(Ordering::Relaxed);
    if truncated {
        return (
            ControlledSearch::Finished(SearchResult::Bounded(stats)),
            worker_stats,
        );
    }
    let tripped = shared.interrupt.load(Ordering::Relaxed);
    if tripped != 0 {
        // Every worker exited through a consistent point, so the deques
        // hold exactly the admitted-but-unexpanded states. Their chunks
        // move into the checkpoint. The other logs are appended to the
        // longest a block at a time from their ends, each shrunk as it
        // goes, so no more than one block is ever held twice (the log is
        // a set of edges: their order is no part of it).
        let queued = shared
            .queues
            .iter_mut()
            .flat_map(|q| q.get_mut().unwrap().drain(..));
        let frontier = Frontier::from_chunks(queued);
        let mut logs: Vec<ParentLog<T::Label>> =
            per_worker.into_iter().map(|(_, log)| log).collect();
        logs.sort_by_key(|log| std::cmp::Reverse(log.len()));
        let mut logs = logs.into_iter();
        let mut parents = logs.next().unwrap_or_default();
        parents.reserve_exact(logs.as_slice().iter().map(Vec::len).sum());
        for mut log in logs {
            while !log.is_empty() {
                let from = log.len().saturating_sub(MERGE_BLOCK);
                parents.extend(log.drain(from..));
                log.shrink_to_fit();
            }
        }
        let checkpoint = SearchCheckpoint {
            seeds: shared.fper.seeds(),
            init_fp,
            frontier,
            parents,
            transitions: stats.transitions,
            depth: stats.depth,
        };
        return (
            ControlledSearch::Interrupted {
                reason: code_to_reason(tripped),
                checkpoint,
                stats,
            },
            worker_stats,
        );
    }
    (
        ControlledSearch::Finished(SearchResult::Safe(stats)),
        worker_stats,
    )
}

/// Work-stealing search (aggregate-stats entry point).
pub fn ws_search<T>(
    sys: &T,
    opts: BfsOptions,
    threads: usize,
    batch: usize,
) -> SearchResult<T::Label, T::Violation>
where
    T: TransitionSystem + Sync,
    T::Label: Send,
{
    ws_search_detailed(sys, opts, threads, batch).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Budget, CancelToken, InterruptReason};

    /// A counter modulo n that "violates" at a designated value (the same
    /// fixture as the mc.rs unit tests).
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

    fn replay(path: &[&str], n: u32) -> u32 {
        let mut s = 0u32;
        for l in path {
            s = match *l {
                "inc" => (s + 1) % n,
                _ => (s * 2) % n,
            };
        }
        s
    }

    #[test]
    fn exhaustive_search_agrees_with_bfs() {
        let sys = Counter { n: 977, bad: None };
        for threads in [1, 2, 4] {
            let (r, ws) = ws_search_detailed(&sys, BfsOptions::default(), threads, 8);
            assert!(r.is_safe(), "threads={threads}");
            assert_eq!(r.stats().states, 977, "threads={threads}");
            let expanded: usize = ws.iter().map(|w| w.expanded).sum();
            assert_eq!(expanded, 977, "every admitted state is expanded");
        }
    }

    #[test]
    fn violation_found_and_path_replays() {
        let sys = Counter {
            n: 977,
            bad: Some(123),
        };
        for threads in [1, 2, 4] {
            match ws_search(&sys, BfsOptions::default(), threads, 4) {
                SearchResult::Unsafe(ce, _) => {
                    assert_eq!(replay(&ce.path, 977), 123, "threads={threads}");
                }
                r => panic!("expected Unsafe at threads={threads}, got {r:?}"),
            }
        }
    }

    #[test]
    fn violating_initial_state_caught() {
        let sys = Counter {
            n: 10,
            bad: Some(0),
        };
        match ws_search(&sys, BfsOptions::default(), 2, 8) {
            SearchResult::Unsafe(ce, _) => assert!(ce.path.is_empty()),
            r => panic!("expected Unsafe, got {r:?}"),
        }
    }

    #[test]
    fn state_limit_reports_bounded() {
        let sys = Counter {
            n: 100_000,
            bad: None,
        };
        let r = ws_search(&sys, BfsOptions::new().max_states(50), 2, 4);
        assert!(matches!(r, SearchResult::Bounded(_)), "{r:?}");
    }

    #[test]
    fn depth_limit_reports_bounded() {
        let sys = Counter { n: 1000, bad: None };
        let r = ws_search(
            &sys,
            BfsOptions::new().max_states(usize::MAX).max_depth(3),
            2,
            4,
        );
        assert!(matches!(r, SearchResult::Bounded(_)), "{r:?}");
        let r = ws_search(
            &sys,
            BfsOptions::new().max_states(usize::MAX).max_depth(0),
            2,
            4,
        );
        assert!(matches!(r, SearchResult::Bounded(_)), "{r:?}");
    }

    /// At depth 0 both engines count and check the initial state and
    /// expand nothing, so even a dead end is `Bounded` with one state.
    #[test]
    fn depth_zero_dead_end_is_bounded_as_in_bfs() {
        struct DeadEnd;
        impl TransitionSystem for DeadEnd {
            type State = u32;
            type Label = &'static str;
            type Violation = String;

            fn initial(&self) -> u32 {
                0
            }
            fn successors(&self, _: &u32) -> Vec<(&'static str, u32)> {
                Vec::new()
            }
            fn violation(&self, _: &u32) -> Option<String> {
                None
            }
        }
        let opts = BfsOptions::new().max_depth(0);
        let runs = [
            crate::mc::bfs(&DeadEnd, opts),
            ws_search(&DeadEnd, opts, 2, 4),
        ];
        for r in runs {
            assert!(matches!(r, SearchResult::Bounded(_)), "{r:?}");
            assert_eq!(r.stats().states, 1);
        }
    }

    #[test]
    fn unreachable_violation_is_safe() {
        // bad = 981 > n is never reached.
        let sys = Counter {
            n: 977,
            bad: Some(981),
        };
        let r = ws_search(&sys, BfsOptions::default(), 3, 16);
        assert!(r.is_safe());
    }

    /// Interrupt with a state budget at various cut points and thread
    /// counts, resume, and demand exact verdict + state-count parity with
    /// a clean run.
    #[test]
    fn interrupt_resume_matches_clean_run() {
        let sys = Counter { n: 977, bad: None };
        let clean = ws_search(&sys, BfsOptions::default(), 4, 8);
        assert_eq!(clean.stats().states, 977);
        for threads in [1usize, 4] {
            for cut in [2usize, 50, 400, 900] {
                let ctrl = RunControl::new(&Budget::unlimited().states(cut), CancelToken::new());
                let (r, _) = ws_search_controlled(
                    &sys,
                    BfsOptions::default(),
                    threads,
                    8,
                    &ctrl,
                    None,
                    None,
                );
                let ControlledSearch::Interrupted {
                    reason,
                    checkpoint,
                    stats,
                } = r
                else {
                    panic!("budget {cut} must interrupt (threads={threads})");
                };
                assert_eq!(reason, InterruptReason::StateBudget);
                // The parent log is the admitted set: one edge per state
                // but the initial one, each naming a distinct child.
                let at = format!("threads={threads}, cut={cut}");
                assert_eq!(checkpoint.parents.len() + 1, stats.states, "{at}");
                let children: std::collections::HashSet<u128> =
                    checkpoint.parents.iter().map(|e| e.0).collect();
                assert_eq!(children.len(), checkpoint.parents.len(), "{at}");
                assert!(!children.contains(&checkpoint.init_fp), "{at}");
                let (resumed, _) = ws_search_controlled(
                    &sys,
                    BfsOptions::default(),
                    threads,
                    8,
                    &RunControl::unlimited(),
                    Some(checkpoint),
                    None,
                );
                let ControlledSearch::Finished(r2) = resumed else {
                    panic!("unlimited resume must finish");
                };
                assert!(r2.is_safe(), "threads={threads}, cut={cut}");
                assert_eq!(
                    r2.stats().states,
                    977,
                    "state-count parity (threads={threads}, cut={cut})"
                );
            }
        }
    }

    /// A violation beyond the interrupt point is still found after
    /// resuming, and the merged (base + new) parent logs replay.
    #[test]
    fn resume_finds_violation_past_cut() {
        let sys = Counter {
            n: 977,
            bad: Some(955),
        };
        let ctrl = RunControl::new(&Budget::unlimited().states(100), CancelToken::new());
        let (r, _) = ws_search_controlled(&sys, BfsOptions::default(), 3, 8, &ctrl, None, None);
        let ControlledSearch::Interrupted { checkpoint, .. } = r else {
            panic!("expected interrupt");
        };
        let (resumed, _) = ws_search_controlled(
            &sys,
            BfsOptions::default(),
            3,
            8,
            &RunControl::unlimited(),
            Some(checkpoint),
            None,
        );
        let ControlledSearch::Finished(SearchResult::Unsafe(ce, _)) = resumed else {
            panic!("resume must find the violation");
        };
        assert_eq!(
            replay(&ce.path, 977),
            955,
            "path must replay to the bad state"
        );
    }

    /// A pre-cancelled token interrupts before any expansion and the
    /// checkpoint carries the full (singleton) frontier.
    #[test]
    fn cancel_interrupts_and_checkpoint_is_resumable() {
        let sys = Counter { n: 977, bad: None };
        let token = CancelToken::new();
        token.cancel();
        let ctrl = RunControl::new(&Budget::unlimited(), token);
        let (r, _) = ws_search_controlled(&sys, BfsOptions::default(), 2, 8, &ctrl, None, None);
        let ControlledSearch::Interrupted {
            reason, checkpoint, ..
        } = r
        else {
            panic!("expected interrupt");
        };
        assert_eq!(reason, InterruptReason::Cancelled);
        let (resumed, _) = ws_search_controlled(
            &sys,
            BfsOptions::default(),
            2,
            8,
            &RunControl::unlimited(),
            Some(checkpoint),
            None,
        );
        let ControlledSearch::Finished(r2) = resumed else {
            panic!("resume must finish");
        };
        assert!(r2.is_safe());
        assert_eq!(r2.stats().states, 977);
    }
}
