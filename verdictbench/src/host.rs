//! Host-speed probe.
//!
//! Other tenants of a shared host slow the searches by up to 1.8x, in
//! spells that last from under a second to a whole run; a run that never
//! meets a quiet spell reads slow however many passes it makes. A fixed
//! hash-set workload, timed before every search run, slows with them
//! (1.8x where the searches slow 1.5–1.9x), and at 22 ms it is short
//! enough to meet any quiet spell the run has. The end-to-end times are
//! scaled by how far the run's fastest probe falls short of
//! [`REFERENCE_S`]; see README.md.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Keys the probe inserts and then looks up.
const KEYS: u64 = 300_000;

/// The probe's time on a quiet host of the kind the figures were taken on
/// (2 vCPUs of an Intel Xeon). Times are reported in seconds of a host on
/// which the run's fastest probe takes this long.
pub const REFERENCE_S: f64 = 0.022;

/// The probe as a search with `threads` workers meets the host: one probe
/// per thread, all at once, each on whatever vCPU it lands. Two workers
/// share out the work by stealing, so the faster one does more of it; the
/// figure is the harmonic mean of the threads' times.
pub fn probe_on(threads: usize) -> f64 {
    if threads <= 1 {
        return probe();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(probe)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe thread"))
            .collect()
    });
    threads as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// Wall seconds of one probe: `KEYS` xorshift keys inserted into a fresh
/// `HashSet`, then `KEYS` lookups of keys that are almost all absent.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut set = HashSet::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        set.insert(x);
    }
    let hits = (0..KEYS)
        .filter(|i| set.contains(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .count();
    black_box((hits, set.len()));
    t.elapsed().as_secs_f64()
}
