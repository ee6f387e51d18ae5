//! Flight recorder: per-worker ring buffers of sequence-stamped events.
//!
//! The aggregate layer ([`crate::metrics`], [`crate::span`]) answers *how
//! much* — total steals, mean expand time. The flight recorder answers
//! *when* and *on which worker*: each thread that records owns a private
//! bounded ring of [`TraceEvent`]s (span begin/end piggybacked on the
//! existing [`Phase`] guards, plus instants for steals, idle parking,
//! admission batches, checker rejections and checkpoints, plus counter
//! samples for frontier depth / seen-set load / states-per-sec). Rings
//! drop their **oldest** entries under overflow — the interesting part of
//! a stall or a steal storm is its tail — and every event carries a
//! per-worker monotone sequence number so dropped prefixes are
//! detectable.
//!
//! ## Cost model
//!
//! The recorder is off by default and gated separately from the metrics
//! layer: [`recorder_enabled`] is one relaxed atomic load, so plain
//! `--telemetry=summary` runs pay exactly one predictable branch per
//! already-instrumented callsite and nothing else. When enabled, a record
//! is a thread-local ring write — no locks, no allocation after the ring
//! reaches capacity, no clock read beyond the one the span guard already
//! made. The global mutex is touched only when a thread exits (its ring
//! is moved into the collected list) and at [`drain`] time.
//!
//! ## Lifecycle
//!
//! ```text
//! recorder_start(cap)            // new session: clears collected rings
//!   set_worker("ws-3")           // label the calling thread's track
//!   instant(..) / counter(..)    // hot-path records
//! drain()                        // collected rings + calling thread's
//! ```
//!
//! Worker threads flush their rings into the collected list when they
//! exit (the search engines join their workers before returning), so a
//! [`drain`] from the coordinating thread sees every finished track plus
//! its own. Threads still alive at drain time (other than the caller)
//! keep their rings until they exit or the next [`drain`].

use crate::span::Phase;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Default per-worker ring capacity (events). At ~32 bytes per stamped
/// event this bounds each worker to ~2 MiB.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Kinds of point-in-time events on a worker's track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstantKind {
    /// Stole a chunk from another worker's deque (`arg` = chunk length).
    Steal,
    /// Went idle: no local work and nothing stealable (`arg` = spin
    /// count so far).
    Idle,
    /// Flushed an admission batch into the seen set (`arg` = states
    /// admitted out of the batch).
    AdmissionBatch,
    /// The SC checker rejected (`arg` = symbol position).
    CheckerReject,
    /// Wrote an on-disk search checkpoint (`arg` = snapshot bytes).
    Checkpoint,
}

/// All instant kinds, in declaration order.
pub const ALL_INSTANT_KINDS: [InstantKind; 5] = [
    InstantKind::Steal,
    InstantKind::Idle,
    InstantKind::AdmissionBatch,
    InstantKind::CheckerReject,
    InstantKind::Checkpoint,
];

impl InstantKind {
    /// Stable dotted name used in trace output.
    pub fn name(self) -> &'static str {
        match self {
            InstantKind::Steal => "mc.steal",
            InstantKind::Idle => "mc.idle",
            InstantKind::AdmissionBatch => "mc.admission_batch",
            InstantKind::CheckerReject => "checker.reject",
            InstantKind::Checkpoint => "mc.checkpoint",
        }
    }
}

/// Counter tracks sampled into the timeline (rendered as Perfetto
/// counter tracks, one line chart each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterTrack {
    /// Items queued across all worker deques.
    FrontierDepth,
    /// States admitted into the seen set so far.
    SeenStates,
    /// Admission throughput sampled by the progress ticker.
    StatesPerSec,
    /// Fraction of probed successors admitted (per sample window).
    AdmissionRate,
}

/// All counter tracks, in declaration order.
pub const ALL_COUNTER_TRACKS: [CounterTrack; 4] = [
    CounterTrack::FrontierDepth,
    CounterTrack::SeenStates,
    CounterTrack::StatesPerSec,
    CounterTrack::AdmissionRate,
];

impl CounterTrack {
    /// Stable dotted name used in trace output.
    pub fn name(self) -> &'static str {
        match self {
            CounterTrack::FrontierDepth => "mc.frontier_depth",
            CounterTrack::SeenStates => "seen.states",
            CounterTrack::StatesPerSec => "mc.states_per_sec",
            CounterTrack::AdmissionRate => "mc.admission_rate",
        }
    }
}

/// One recorded event. Timestamps are nanoseconds since
/// [`recorder_start`] for the current session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A phase span opened.
    SpanBegin { ts_ns: u64, phase: Phase },
    /// The matching span closed.
    SpanEnd { ts_ns: u64, phase: Phase },
    /// A point event with one payload argument.
    Instant {
        ts_ns: u64,
        kind: InstantKind,
        arg: u64,
    },
    /// A counter-track sample.
    Counter {
        ts_ns: u64,
        track: CounterTrack,
        value: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp (ns since session start).
    pub fn ts_ns(&self) -> u64 {
        match *self {
            TraceEvent::SpanBegin { ts_ns, .. }
            | TraceEvent::SpanEnd { ts_ns, .. }
            | TraceEvent::Instant { ts_ns, .. }
            | TraceEvent::Counter { ts_ns, .. } => ts_ns,
        }
    }
}

/// A [`TraceEvent`] with its per-worker sequence number. Sequence numbers
/// are dense per worker, so `events[0].seq > 0` reveals a dropped prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stamped {
    pub seq: u64,
    pub event: TraceEvent,
}

/// One worker's drained timeline: label, events oldest-first, and how
/// many events the ring dropped under overflow.
#[derive(Clone, Debug)]
pub struct WorkerTimeline {
    pub label: String,
    pub events: Vec<Stamped>,
    pub dropped: u64,
}

static RECORDER_ON: AtomicBool = AtomicBool::new(false);
/// Bumped by [`recorder_start`]; thread-local rings from a previous
/// session are discarded lazily when their thread next records.
static SESSION: AtomicU64 = AtomicU64::new(0);
static SESSION_START_NS: AtomicU64 = AtomicU64::new(0);
static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);
static COLLECTED: Mutex<Vec<WorkerTimeline>> = Mutex::new(Vec::new());

/// Monotonic base for all trace timestamps (set once per process).
fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

fn ns_from_base(at: Instant) -> u64 {
    at.saturating_duration_since(base()).as_nanos() as u64
}

/// Convert an already-taken `Instant` (e.g. a span guard's start) into a
/// session-relative timestamp without another clock read.
pub(crate) fn ts_of(at: Instant) -> u64 {
    ns_from_base(at).saturating_sub(SESSION_START_NS.load(Ordering::Relaxed))
}

fn now_ns() -> u64 {
    ts_of(Instant::now())
}

/// Is the flight recorder on? One relaxed load — the per-callsite guard.
#[inline(always)]
pub fn recorder_enabled() -> bool {
    RECORDER_ON.load(Ordering::Relaxed)
}

fn collected_slot() -> MutexGuard<'static, Vec<WorkerTimeline>> {
    COLLECTED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Start a recording session with the given per-worker ring capacity
/// (min 16). Clears timelines collected by any previous session and
/// resets the session clock to zero.
pub fn recorder_start(capacity: usize) {
    let mut collected = collected_slot();
    collected.clear();
    RING_CAP.store(capacity.max(16), Ordering::Relaxed);
    SESSION_START_NS.store(ns_from_base(Instant::now()), Ordering::Relaxed);
    SESSION.fetch_add(1, Ordering::Relaxed);
    RECORDER_ON.store(true, Ordering::SeqCst);
}

/// Stop recording. Already-collected timelines stay available to
/// [`drain`]; live threads stop appending immediately.
pub fn recorder_stop() {
    RECORDER_ON.store(false, Ordering::SeqCst);
}

struct LocalRing {
    session: u64,
    label: String,
    buf: Vec<Stamped>,
    /// Write cursor once `buf` is at capacity (index of the oldest).
    next: usize,
    seq: u64,
    dropped: u64,
    cap: usize,
}

impl LocalRing {
    fn new(session: u64) -> LocalRing {
        let n = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
        LocalRing {
            session,
            label: format!("thread-{n}"),
            buf: Vec::new(),
            next: 0,
            seq: 0,
            dropped: 0,
            cap: RING_CAP.load(Ordering::Relaxed),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        let st = Stamped {
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if self.buf.len() < self.cap {
            self.buf.push(st);
        } else {
            // Drop-oldest: overwrite the oldest slot and advance.
            self.buf[self.next] = st;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn into_timeline(mut self) -> WorkerTimeline {
        // Rotate so events come out oldest-first when the ring wrapped.
        self.buf.rotate_left(self.next);
        WorkerTimeline {
            label: self.label,
            events: self.buf,
            dropped: self.dropped,
        }
    }
}

/// Wrapper whose drop flushes the thread's ring into the collected list,
/// so worker timelines survive their threads.
struct RingCell(RefCell<Option<LocalRing>>);

impl Drop for RingCell {
    fn drop(&mut self) {
        if let Some(ring) = self.0.borrow_mut().take() {
            flush_ring(ring);
        }
    }
}

fn flush_ring(ring: LocalRing) {
    if ring.session != SESSION.load(Ordering::Relaxed) {
        return; // stale session: its collected list was already cleared
    }
    if ring.buf.is_empty() {
        return;
    }
    collected_slot().push(ring.into_timeline());
}

thread_local! {
    static RING: RingCell = const { RingCell(RefCell::new(None)) };
}

fn with_ring(f: impl FnOnce(&mut LocalRing)) {
    let session = SESSION.load(Ordering::Relaxed);
    RING.with(|cell| {
        let mut slot = cell.0.borrow_mut();
        match slot.as_mut() {
            Some(ring) if ring.session == session => f(ring),
            _ => {
                let mut ring = LocalRing::new(session);
                f(&mut ring);
                *slot = Some(ring);
            }
        }
    });
}

/// Move the calling thread's ring into the collected list now. Worker
/// loops call this as their last act: the TLS-destructor backstop also
/// flushes, but thread-local destructors are only guaranteed to have
/// run *after* a join observes the thread — `std::thread::scope` can
/// return while a worker's destructors are still in flight, which would
/// race a [`drain`] on the coordinating thread. An explicit flush
/// before the worker returns sequences the hand-off deterministically.
pub fn flush_worker() {
    if let Some(ring) = RING.with(|cell| cell.0.borrow_mut().take()) {
        flush_ring(ring);
    }
}

/// Label the calling thread's track (e.g. `ws-3`, `main`, `sampler`).
/// No-op while the recorder is off.
pub fn set_worker(label: &str) {
    if !recorder_enabled() {
        return;
    }
    with_ring(|ring| ring.label = label.to_string());
}

/// Record a point event. No-op while the recorder is off.
#[inline]
pub fn instant(kind: InstantKind, arg: u64) {
    if !recorder_enabled() {
        return;
    }
    let ev = TraceEvent::Instant {
        ts_ns: now_ns(),
        kind,
        arg,
    };
    with_ring(|ring| ring.push(ev));
}

/// Record a counter-track sample. No-op while the recorder is off.
#[inline]
pub fn counter(track: CounterTrack, value: f64) {
    if !recorder_enabled() {
        return;
    }
    let ev = TraceEvent::Counter {
        ts_ns: now_ns(),
        track,
        value,
    };
    with_ring(|ring| ring.push(ev));
}

/// Record a span opening, reusing the span guard's existing clock read.
pub(crate) fn span_begin(phase: Phase, start: Instant) {
    let ev = TraceEvent::SpanBegin {
        ts_ns: ts_of(start),
        phase,
    };
    with_ring(|ring| ring.push(ev));
}

/// Record a span closing.
pub(crate) fn span_end(phase: Phase) {
    let ev = TraceEvent::SpanEnd {
        ts_ns: now_ns(),
        phase,
    };
    with_ring(|ring| ring.push(ev));
}

/// Take every collected timeline plus the calling thread's own ring.
/// Timelines come out in collection order (worker exit order, caller
/// last). Leaves the recorder enabled; call [`recorder_stop`] first if
/// no more events should land after the drain.
pub fn drain() -> Vec<WorkerTimeline> {
    let own = RING.with(|cell| cell.0.borrow_mut().take());
    let mut out = std::mem::take(&mut *collected_slot());
    if let Some(ring) = own {
        if ring.session == SESSION.load(Ordering::Relaxed) && !ring.buf.is_empty() {
            out.push(ring.into_timeline());
        }
    }
    out
}

/// Live values shared between the engine hot paths and the progress
/// sampler (plain relaxed atomics; no registry lock).
#[derive(Clone, Copy, Debug)]
#[repr(usize)]
pub enum LiveGauge {
    /// States queued for expansion right now.
    FrontierDepth,
}

static LIVE: [AtomicU64; 1] = [AtomicU64::new(0)];

/// Publish a live gauge (one relaxed store). Callers guard with
/// [`crate::enabled`] or [`recorder_enabled`] as appropriate.
#[inline]
pub fn set_live(gauge: LiveGauge, value: u64) {
    LIVE[gauge as usize].store(value, Ordering::Relaxed);
}

/// Read a live gauge.
#[inline]
pub fn live(gauge: LiveGauge) -> u64 {
    LIVE[gauge as usize].load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_inert() {
        let _lock = crate::test_mutex()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        recorder_stop();
        instant(InstantKind::Steal, 1);
        counter(CounterTrack::FrontierDepth, 2.0);
        set_worker("ghost");
        assert!(drain().is_empty());
    }

    #[test]
    fn ring_drops_oldest_under_overflow() {
        let _lock = crate::test_mutex()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        recorder_start(16);
        set_worker("overflow");
        for i in 0..40u64 {
            instant(InstantKind::Steal, i);
        }
        recorder_stop();
        let mut timelines = drain();
        assert_eq!(timelines.len(), 1);
        let t = timelines.pop().unwrap();
        assert_eq!(t.label, "overflow");
        assert_eq!(t.events.len(), 16, "ring stays at capacity");
        assert_eq!(t.dropped, 40 - 16);
        // Oldest-first, contiguous sequence numbers, newest survives.
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        let args: Vec<u64> = t
            .events
            .iter()
            .map(|e| match e.event {
                TraceEvent::Instant { arg, .. } => arg,
                _ => panic!("unexpected event"),
            })
            .collect();
        // set_worker does not consume a sequence number; the 40 instants
        // are seq 0..40, and the ring keeps the last 16.
        assert_eq!(seqs, (24..40).collect::<Vec<u64>>());
        assert_eq!(args, (24..40).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_threads_flush_on_exit_and_sessions_reset() {
        let _lock = crate::test_mutex()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        recorder_start(64);
        std::thread::scope(|s| {
            for id in 0..2 {
                s.spawn(move || {
                    set_worker(&format!("ws-{id}"));
                    instant(InstantKind::Idle, id);
                    flush_worker();
                });
            }
        });
        counter(CounterTrack::SeenStates, 5.0);
        recorder_stop();
        let timelines = drain();
        let labels: Vec<&str> = timelines.iter().map(|t| t.label.as_str()).collect();
        assert!(labels.contains(&"ws-0") && labels.contains(&"ws-1"));
        assert_eq!(timelines.len(), 3, "two workers plus the caller");
        // A new session discards anything not yet recorded into it.
        recorder_start(64);
        recorder_stop();
        assert!(drain().is_empty());
    }

    #[test]
    fn timestamps_are_session_relative_and_monotone() {
        let _lock = crate::test_mutex()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        recorder_start(64);
        instant(InstantKind::Steal, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        instant(InstantKind::Steal, 1);
        recorder_stop();
        let timelines = drain();
        let evs = &timelines[0].events;
        let (a, b) = (evs[0].event.ts_ns(), evs[1].event.ts_ns());
        assert!(b > a, "timestamps advance: {a} !< {b}");
        assert!(b - a >= 1_000_000, "sleep visible in trace clock");
    }
}
