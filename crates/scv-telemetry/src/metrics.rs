//! The metrics registry: a fixed set of atomic counters and histograms
//! for hot paths (array-indexed by enum — no name lookup, no allocation).
//! Each entry has a reader beyond the `flush()` dump (DESIGN.md §7,
//! "Metric consumers"); search totals such as states, depth and peak RSS
//! live in `McStats` and the verify run report, not here.
//!
//! Hot-path discipline: every recording site first checks
//! [`crate::enabled`] (one relaxed atomic load); when telemetry is off the
//! registry is never touched, so the disabled cost is a single predictable
//! branch. When on, counters are relaxed `fetch_add`s and histogram
//! records are one relaxed `fetch_add` into a log₂ bucket.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pipeline counters. The set is closed on purpose: hot paths index a
/// static array with `Metric as usize`, which the optimizer folds to a
/// single addressed atomic op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// States admitted into the seen-set (all search engines).
    McStatesAdmitted,
    /// Transitions explored (successor edges generated).
    McTransitions,
    /// Idle sweeps that found no local or stealable work.
    McIdleSpins,
    /// Observer steps consumed.
    ObserverSteps,
    /// Descriptor symbols emitted by observers.
    ObserverSymbols,
    /// Symbols consumed by the SC checker.
    CheckerSymbols,
    /// Edge symbols applied by the SC checker.
    CheckerEdges,
    /// Product states canonicalized under a non-trivial symmetry group.
    SymCanonicalized,
    /// Canonicalizations where a non-identity renaming strictly beat the
    /// identity — states whose orbit representative differs from the state
    /// actually reached.
    SymCanonHits,
    /// Successor candidates rejected by the admission gate *before*
    /// materialization — each one is a state clone (observer + checker +
    /// encoding buffer) the lazy expansion path never paid for.
    McClonesAvoided,
    /// Orbit-seal cache hits: canonicalizations answered from the
    /// per-worker fingerprint-keyed cache, skipping the symmetry-group
    /// enumeration entirely.
    SealCacheHits,
    /// Orbit-seal cache misses: canonicalizations that had to enumerate
    /// the symmetry group and then populated the cache.
    SealCacheMisses,
    /// Bytes frozen into per-worker encoding arenas (admitted states'
    /// interned canonical encodings).
    McArenaAllocBytes,
    /// Canonicalizations fully resolved by the sort-based refinement fast
    /// path: the per-element signature sort was discriminating enough
    /// that exactly one orbit candidate survived per outer coset.
    SymRefineExact,
    /// Always reads 0: the seal cache has a single level, so every hit is
    /// a [`Metric::SealCacheHits`]. Kept only because the time-to-verdict
    /// benchmark still reads it; it will be deleted, together with that
    /// benchmark's `symmetry.seal_l2_share`, in the next benchmark change.
    SealCacheL2Hits,
}

/// All metrics, in declaration order (keep in sync with [`Metric`]).
pub const ALL_METRICS: [Metric; 15] = [
    Metric::McStatesAdmitted,
    Metric::McTransitions,
    Metric::McIdleSpins,
    Metric::ObserverSteps,
    Metric::ObserverSymbols,
    Metric::CheckerSymbols,
    Metric::CheckerEdges,
    Metric::SymCanonicalized,
    Metric::SymCanonHits,
    Metric::McClonesAvoided,
    Metric::SealCacheHits,
    Metric::SealCacheMisses,
    Metric::McArenaAllocBytes,
    Metric::SymRefineExact,
    Metric::SealCacheL2Hits,
];

impl Metric {
    /// Stable dotted name used in reports and JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Metric::McStatesAdmitted => "mc.states_admitted",
            Metric::McTransitions => "mc.transitions",
            Metric::McIdleSpins => "mc.idle_spins",
            Metric::ObserverSteps => "observer.steps",
            Metric::ObserverSymbols => "observer.symbols",
            Metric::CheckerSymbols => "checker.symbols",
            Metric::CheckerEdges => "checker.edges",
            Metric::SymCanonicalized => "symmetry.canonicalized",
            Metric::SymCanonHits => "symmetry.canon_hits",
            Metric::McClonesAvoided => "mc.clones_avoided",
            Metric::SealCacheHits => "symmetry.seal_cache_hits",
            Metric::SealCacheMisses => "symmetry.seal_cache_misses",
            Metric::McArenaAllocBytes => "mc.arena_alloc_bytes",
            Metric::SymRefineExact => "symmetry.refine_exact",
            Metric::SealCacheL2Hits => "symmetry.seal_cache_l2_hits",
        }
    }
}

/// Value histograms with fixed log₂ bucketing. Like [`Metric`], a closed
/// enum indexing a static table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Orbit size (group order / stabilizer order) per canonicalized
    /// product state — how much each state's orbit collapses.
    SymOrbitSize,
    /// Residual-coset size enumerated per canonicalized state after
    /// sort-based refinement — 1 means the sort alone was discriminating.
    SymResidualGroupSize,
}

/// All histograms, in declaration order (keep in sync with [`Hist`]).
pub const ALL_HISTS: [Hist; 2] = [Hist::SymOrbitSize, Hist::SymResidualGroupSize];

impl Hist {
    /// Stable dotted name used in reports and JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SymOrbitSize => "symmetry.orbit_size",
            Hist::SymResidualGroupSize => "symmetry.residual_group_size",
        }
    }
}

/// Number of log₂ buckets: bucket `i` holds values with
/// `bit_width == i`, i.e. `[2^(i-1), 2^i)` for `i >= 1` and `{0}` for
/// bucket 0; the last bucket absorbs everything wider.
pub const HIST_BUCKETS: usize = 32;

/// A lock-free histogram over `u64` values with log₂ buckets plus exact
/// count/sum/max. Concurrent `record`s are safe; snapshots taken while
/// writers run are approximate in the usual torn-read sense (each field
/// individually consistent).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// The index of the log₂ bucket for a value.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound of values mapped to a bucket.
pub fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 63 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_weighted(value, 1);
    }

    /// Record one sampled observation standing in for `weight` real ones:
    /// count, sum, and the value's bucket all advance by `weight`, so
    /// sampled statistics estimate the unsampled population.
    #[inline]
    pub fn record_weighted(&self, value: u64, weight: u64) {
        self.buckets[bucket_of(value)].fetch_add(weight, Ordering::Relaxed);
        self.count.fetch_add(weight, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(weight), Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Reset all buckets and tallies to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The q-quantile linearly interpolated *within* its log₂ bucket
    /// (0 ≤ q ≤ 1; 0 when empty). Where the bucket's upper bound only
    /// says "p99 ≤ 63", this assumes values spread uniformly across the
    /// bucket's range and places the quantile proportionally to the
    /// target rank's position inside the bucket — still an estimate
    /// (the buckets are lossy), but one that moves smoothly as the
    /// distribution shifts instead of jumping between powers of two.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut before = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= target {
                // Bucket i spans [bound(i-1)+1, bound(i)] (just {0} for
                // i == 0); the true max tightens the last bucket.
                let lo = if i == 0 { 0 } else { bucket_bound(i - 1) + 1 };
                let hi = bucket_bound(i).min(self.max).max(lo);
                let frac = (target - before as f64) / c as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
            before += c;
        }
        self.max as f64
    }
}

/// The process-wide registry backing every [`Metric`] and [`Hist`].
#[derive(Default)]
pub struct Registry {
    counters: [AtomicU64; ALL_METRICS.len()],
    hists: [Histogram; ALL_HISTS.len()],
}

impl Registry {
    /// Add to a counter.
    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        self.counters[m as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize].load(Ordering::Relaxed)
    }

    /// Record a histogram value.
    #[inline]
    pub fn record(&self, h: Hist, value: u64) {
        self.hists[h as usize].record(value);
    }

    /// Snapshot a histogram.
    pub fn hist(&self, h: Hist) -> HistSnapshot {
        self.hists[h as usize].snapshot()
    }

    /// Zero every counter and histogram (a fresh run).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }

    /// Every non-zero counter as `(name, value)`, in declaration order.
    pub fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        ALL_METRICS
            .iter()
            .map(|&m| (m.name(), self.get(m)))
            .filter(|&(_, v)| v != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 5, 100, 4096, 1 << 20] {
            let b = bucket_of(v);
            assert!(v <= bucket_bound(b), "{v} <= bound({b})");
            if b > 0 {
                assert!(v > bucket_bound(b - 1), "{v} > bound({})", b - 1);
            }
        }
    }

    #[test]
    fn histogram_tallies_and_quantiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Median of 1..=100 lives in the bucket for 32..=63.
        let med = s.quantile(0.5);
        assert!((32.0..=63.0).contains(&med), "median {med}");
        // p100 is clamped to the true max, not the bucket's bound.
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(HistSnapshot::default().quantile(0.5), 0.0);
    }

    #[test]
    fn interpolated_quantiles_are_pinned() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Buckets for 1..=100: {1}:1, {2,3}:2, {4..7}:4, {8..15}:8,
        // {16..31}:16, {32..63}:32, {64..100}:37 (max tightens 64..127).
        // p50 → rank 50 in the 32..63 bucket, 31 values before it:
        //   32 + (50-31)/32 · (63-32) = 50.40625
        assert!((s.quantile(0.50) - 50.40625).abs() < 1e-9);
        // p95 → rank 95 in the 64..100 bucket, 63 before:
        //   64 + (95-63)/37 · (100-64) = 95.135135…
        assert!((s.quantile(0.95) - (64.0 + 32.0 / 37.0 * 36.0)).abs() < 1e-9);
        // p99 → 64 + (99-63)/37 · 36 = 99.027027…
        assert!((s.quantile(0.99) - (64.0 + 36.0 / 37.0 * 36.0)).abs() < 1e-9);
        // Interpolation stays inside the value range and beats the
        // bucket bound's power-of-two jump.
        assert!(s.quantile(1.0) <= 100.0);
        assert_eq!(HistSnapshot::default().quantile(0.99), 0.0);
        // A single-bucket histogram degenerates to that bucket's range.
        let one = Histogram::default();
        one.record(5);
        let q = one.snapshot().quantile(0.5);
        assert!(
            (4.0..=5.0).contains(&q),
            "within 4..=5 (max-tightened): {q}"
        );
    }

    #[test]
    fn registry_counters() {
        let r = Registry::default();
        r.add(Metric::McTransitions, 5);
        r.add(Metric::McTransitions, 2);
        assert_eq!(r.get(Metric::McTransitions), 7);
        assert_eq!(r.counter_snapshot(), vec![("mc.transitions", 7)]);
        r.reset();
        assert_eq!(r.get(Metric::McTransitions), 0);
    }

    /// The rows of DESIGN.md §7's "Metric consumers" table as
    /// `(names, reader)`; a row may name several entries.
    fn consumer_rows() -> Vec<(Vec<String>, String)> {
        let design = include_str!("../../../DESIGN.md");
        let table = design
            .split("### Metric consumers")
            .nth(1)
            .expect("DESIGN.md has a Metric consumers section");
        table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2)
            .map(|row| {
                let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
                let names = cells[0]
                    .split('`')
                    .skip(1)
                    .step_by(2)
                    .map(str::to_string)
                    .collect();
                (names, cells[cells.len() - 1].to_string())
            })
            .collect()
    }

    #[test]
    fn registry_lists_every_entry_once_and_design_names_its_reader() {
        let mut names = Vec::new();
        for (i, &m) in ALL_METRICS.iter().enumerate() {
            assert_eq!(m as usize, i, "ALL_METRICS out of order at {m:?}");
            names.push(m.name());
        }
        for (i, &h) in ALL_HISTS.iter().enumerate() {
            assert_eq!(h as usize, i, "ALL_HISTS out of order at {h:?}");
            names.push(h.name());
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");

        let rows = consumer_rows();
        for name in names {
            let readers: Vec<&String> = rows
                .iter()
                .filter(|(row, _)| row.iter().any(|n| n == name))
                .map(|(_, reader)| reader)
                .collect();
            assert!(
                !readers.is_empty(),
                "`{name}` has no row in DESIGN.md's consumers table"
            );
            for reader in readers {
                assert!(
                    !reader.contains("summary/JSONL only"),
                    "`{name}` has no reader beyond the summary/JSONL dump"
                );
            }
        }
    }
}
