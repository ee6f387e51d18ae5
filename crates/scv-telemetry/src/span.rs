//! Lightweight phase spans with monotonic timing.
//!
//! A span is an RAII guard from [`crate::timer`]: it notes
//! `Instant::now()` on entry and on drop records the elapsed nanoseconds
//! into the phase's duration histogram. Spans nest — a thread-local depth
//! counter tracks the current nesting level, and each phase remembers the
//! deepest level it ever ran at, so a summary can show which phases run
//! inside others (observer/checker steps inside the search span).
//!
//! There is deliberately **no** per-span sink event: pipeline phases such
//! as observer steps fire millions of times per verify run, so spans
//! record into atomic histograms and the sink sees one aggregated
//! [`crate::sink::Event::PhaseSummary`] per phase at flush time.
//!
//! Per-transition phases are additionally *sampled* (see
//! [`crate::timer_sampled`]): only one call in [`SAMPLE_PERIOD`] pays for
//! the two clock reads, and the recorded duration is weighted by the
//! period so the aggregate still estimates the full population. The
//! non-sampled path costs one thread-local counter bump — that is what
//! keeps enabled-telemetry overhead inside the ≤5% budget the
//! `telemetry_overhead` bench enforces.

use crate::metrics::{HistSnapshot, Histogram};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Pipeline phases. Closed enum indexing a static table, like
/// [`crate::Metric`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// A whole reachability search (sequential or work-stealing).
    Search,
    /// One successor-expansion call on a product state.
    Expand,
    /// One observer step (protocol step → descriptor symbols).
    ObserverStep,
    /// Canonical-encoding work sealing a product state (descriptor-layer
    /// ID canonicalization).
    DescriptorEncode,
    /// One whole-descriptor decode call.
    DescriptorDecode,
    /// Checker symbol consumption for one transition (SC checker).
    CheckerStep,
    /// One streaming cycle-checker pass.
    CheckerCycle,
    /// End-of-string SC check on a product state.
    CheckerEnd,
    /// Orbit-minimum canonicalization of a product state under the
    /// protocol's symmetry group (quotient search).
    Canonicalize,
    /// Replaying a counterexample/run through the online monitor.
    Replay,
}

/// All phases, in declaration order (keep in sync with [`Phase`]).
pub const ALL_PHASES: [Phase; 10] = [
    Phase::Search,
    Phase::Expand,
    Phase::ObserverStep,
    Phase::DescriptorEncode,
    Phase::DescriptorDecode,
    Phase::CheckerStep,
    Phase::CheckerCycle,
    Phase::CheckerEnd,
    Phase::Canonicalize,
    Phase::Replay,
];

impl Phase {
    /// Stable dotted name used in reports and JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Search => "search",
            Phase::Expand => "search.expand",
            Phase::ObserverStep => "observer.step",
            Phase::DescriptorEncode => "descriptor.encode",
            Phase::DescriptorDecode => "descriptor.decode",
            Phase::CheckerStep => "checker.step",
            Phase::CheckerCycle => "checker.cycle",
            Phase::CheckerEnd => "checker.end",
            Phase::Canonicalize => "symmetry.canonicalize",
            Phase::Replay => "replay",
        }
    }
}

/// Per-phase timing store: a duration histogram (nanoseconds) plus the
/// deepest nesting level the phase ran at.
#[derive(Default)]
pub struct PhaseStats {
    durations: Histogram,
    max_depth: AtomicU64,
}

/// The static table of per-phase stats.
#[derive(Default)]
pub struct PhaseTable {
    phases: [PhaseStats; ALL_PHASES.len()],
}

/// One call in `SAMPLE_PERIOD` to [`crate::timer_sampled`] is timed; the
/// very first call always samples, so even tiny runs record each phase.
pub const SAMPLE_PERIOD: u64 = 64;

thread_local! {
    static SPAN_DEPTH: Cell<u64> = const { Cell::new(0) };
    static SAMPLE_TICK: [Cell<u64>; ALL_PHASES.len()] =
        const { [const { Cell::new(0) }; ALL_PHASES.len()] };
}

/// Advance the calling thread's sampling tick for `phase`; true when this
/// call is the one in [`SAMPLE_PERIOD`] that should be timed.
pub(crate) fn sample(phase: Phase) -> bool {
    SAMPLE_TICK.with(|ticks| {
        let t = &ticks[phase as usize];
        let v = t.get();
        t.set(v.wrapping_add(1));
        v % SAMPLE_PERIOD == 0
    })
}

/// The current thread's span nesting depth (0 = no open span).
pub fn current_depth() -> u64 {
    SPAN_DEPTH.with(|d| d.get())
}

impl PhaseTable {
    /// Record a finished span (weight > 1 for sampled spans).
    fn record(&self, phase: Phase, ns: u64, weight: u64, depth: u64) {
        let st = &self.phases[phase as usize];
        st.durations.record_weighted(ns, weight);
        st.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Snapshot one phase's durations (nanoseconds).
    pub fn durations(&self, phase: Phase) -> HistSnapshot {
        self.phases[phase as usize].durations.snapshot()
    }

    /// Deepest nesting level a phase ran at.
    pub fn max_depth(&self, phase: Phase) -> u64 {
        self.phases[phase as usize]
            .max_depth
            .load(Ordering::Relaxed)
    }

    /// Zero every phase.
    pub fn reset(&self) {
        for st in &self.phases {
            st.durations.reset();
            st.max_depth.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII timing guard for one phase span. Construct via [`crate::timer`];
/// records into the global phase table on drop.
pub struct SpanGuard {
    phase: Phase,
    start: Instant,
    weight: u64,
    depth: u64,
}

impl SpanGuard {
    pub(crate) fn begin(phase: Phase) -> SpanGuard {
        Self::begin_weighted(phase, 1)
    }

    pub(crate) fn begin_weighted(phase: Phase, weight: u64) -> SpanGuard {
        let depth = SPAN_DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let start = Instant::now();
        // Flight-recorder piggyback: reuse the clock read the guard
        // already made; one relaxed load when the recorder is off.
        if crate::recorder::recorder_enabled() {
            crate::recorder::span_begin(phase, start);
        }
        SpanGuard {
            phase,
            start,
            weight,
            depth,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        crate::phase_table().record(self.phase, ns, self.weight, self.depth);
        if crate::recorder::recorder_enabled() {
            crate::recorder::span_end(self.phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_unwind() {
        let _s = crate::TestSession::start();
        assert_eq!(current_depth(), 0);
        {
            let _outer = crate::timer(Phase::Search).expect("enabled");
            assert_eq!(current_depth(), 1);
            {
                let _inner = crate::timer(Phase::ObserverStep).expect("enabled");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        let t = crate::phase_table();
        assert_eq!(t.durations(Phase::Search).count, 1);
        assert_eq!(t.durations(Phase::ObserverStep).count, 1);
        // The outer span ran at depth 0, the inner at depth 1.
        assert_eq!(t.max_depth(Phase::Search), 0);
        assert_eq!(t.max_depth(Phase::ObserverStep), 1);
        // The outer span's duration includes the inner span's.
        assert!(t.durations(Phase::Search).sum >= t.durations(Phase::ObserverStep).sum);
    }

    #[test]
    fn sampled_spans_estimate_the_population() {
        let _s = crate::TestSession::start();
        // Each test thread starts with fresh sampling ticks, so exactly
        // the 1st and 65th call are timed.
        let mut timed = 0usize;
        for _ in 0..2 * SAMPLE_PERIOD {
            if crate::timer_sampled(Phase::CheckerStep).is_some() {
                timed += 1;
            }
        }
        assert_eq!(timed, 2);
        let snap = crate::phase_table().durations(Phase::CheckerStep);
        assert_eq!(snap.count, 2 * SAMPLE_PERIOD, "weight-scaled count");
    }

    #[test]
    fn timer_is_none_when_disabled() {
        let _s = crate::TestSession::start_disabled();
        assert!(crate::timer(Phase::Expand).is_none());
        assert_eq!(current_depth(), 0);
    }
}
