//! End-to-end throughput benchmark over the protocol zoo — the perf
//! regression gate behind `BENCH_7.json`.
//!
//! ```text
//! cargo run --release -p scv-bench --bin perf [--out <path>] \
//!     [--max-states N] [--reps N] [--filter SUBSTR]
//! ```
//!
//! Runs a *pinned* matrix — protocols {serial, msi, mesi, directory,
//! lazy} × symmetry {off, full} × threads {1, 4} — and appends one
//! schema-versioned [`scv_telemetry::RunReport`] JSONL record per cell plus
//! a `perf/summary` record (total wall clock, process peak RSS). The
//! matrix and the report names are deliberately stable (each cell's record
//! is `perf/<protocol>/sym=<mode>/t=<threads>/lazy`, named after the
//! admission-gated expansion path every search runs): CI regenerates the
//! file and feeds it to `report_diff` against the committed `BENCH_7.json`
//! baseline, failing on a >10% `states_per_sec` (or peak-RSS) regression.
//!
//! Each cell runs `--reps` times (default 3) and the *best* states/sec is
//! reported: best-of-k discards interference from a shared or single-core
//! host, which otherwise swings short runs by ±20%.

use scv_mc::{verify_protocol, Outcome, SymmetryMode, VerifyOptions};
use scv_protocol::{
    DirectoryProtocol, LazyCaching, MesiProtocol, MsiProtocol, SerialMemory, StoreBufferTso,
    Symmetry,
};
use scv_types::Params;
use std::time::Instant;

const DEFAULT_OUT: &str = "BENCH_7.json";
const DEFAULT_MAX_STATES: usize = 20_000;
const DEFAULT_REPS: usize = 3;

/// The pinned protocol list. Params are chosen so every cell either
/// saturates the state cap or covers its full (small) reachable space.
const PROTOCOLS: [&str; 5] = ["serial", "msi", "mesi", "directory", "lazy"];
/// The two quotient extremes from the acceptance criterion. `proc` sits
/// between them in both cost and reduction and is covered by the parity
/// battery (`tests/lazy_parity.rs`); at the pinned p = 6 its group is as
/// large as `full`'s, so benchmarking it would double the matrix wall
/// clock without adding information.
const SYMS: [SymmetryMode; 2] = [SymmetryMode::Off, SymmetryMode::Full];
const THREADS: [usize; 2] = [1, 4];

struct CaseResult {
    verdict: &'static str,
    states: usize,
    transitions: usize,
    elapsed_secs: f64,
    states_per_sec: f64,
}

/// A counter snapshot taken around one rep.
type Counters = Vec<(&'static str, u64)>;

fn sym_tag(m: SymmetryMode) -> &'static str {
    match m {
        SymmetryMode::Off => "off",
        SymmetryMode::Proc => "proc",
        SymmetryMode::Full => "full",
        SymmetryMode::FullEnum => "full-enum",
    }
}

fn run_generic<P>(proto: P, sym: SymmetryMode, threads: usize, cap: usize) -> CaseResult
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    let opts = VerifyOptions::new()
        .max_states(cap)
        .threads(threads)
        .symmetry(sym);
    let t0 = Instant::now();
    let out = verify_protocol(proto, opts);
    let elapsed = t0.elapsed().as_secs_f64();
    let s = out.stats();
    CaseResult {
        verdict: match out {
            Outcome::Verified { .. } => "verified",
            Outcome::Violation { .. } => "violation",
            Outcome::Bounded { .. } => "bounded",
            // No budget is configured for perf cases.
            Outcome::Inconclusive { .. } => "inconclusive",
        },
        states: s.states,
        transitions: s.transitions,
        elapsed_secs: elapsed,
        states_per_sec: if elapsed > 0.0 {
            s.states as f64 / elapsed
        } else {
            0.0
        },
    }
}

fn run_case(proto: &str, sym: SymmetryMode, threads: usize, cap: usize) -> CaseResult {
    let p = Params::new(6, 2, 2);
    match proto {
        "serial" => run_generic(SerialMemory::new(p), sym, threads, cap),
        "msi" => run_generic(MsiProtocol::new(p), sym, threads, cap),
        "mesi" => run_generic(MesiProtocol::new(p), sym, threads, cap),
        "directory" => run_generic(DirectoryProtocol::new(p), sym, threads, cap),
        "lazy" => run_generic(LazyCaching::new(p, 2, 2), sym, threads, cap),
        "tso" => run_generic(StoreBufferTso::new(p, 2), sym, threads, cap),
        other => panic!("unknown protocol {other}"),
    }
}

fn main() {
    let mut out_path = DEFAULT_OUT.to_string();
    let mut max_states = DEFAULT_MAX_STATES;
    let mut reps = DEFAULT_REPS;
    let mut filter = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let need = |args: &mut dyn Iterator<Item = String>| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {a} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--out" => out_path = need(&mut args),
            "--max-states" => {
                max_states = need(&mut args).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --max-states: {e}");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                reps = need(&mut args).parse().unwrap_or_else(|e| {
                    eprintln!("error: bad --reps: {e}");
                    std::process::exit(2);
                });
                reps = reps.max(1);
            }
            "--filter" => filter = need(&mut args),
            _ => {
                eprintln!(
                    "usage: perf [--out <path>] [--max-states N] [--reps N] [--filter SUBSTR]\n\
                     unknown argument: {a}"
                );
                std::process::exit(2);
            }
        }
    }

    match scv_telemetry::JsonlSink::create(std::path::Path::new(&out_path)) {
        Ok(sink) => scv_telemetry::install(Box::new(sink)),
        Err(e) => {
            eprintln!("error: cannot open {out_path}: {e}");
            std::process::exit(2);
        }
    }

    println!("# perf matrix → {out_path} (max_states {max_states})\n");
    println!("| case | verdict | states | states/sec |");
    println!("|---|---|---|---|");
    let t_all = Instant::now();
    let mut cases = 0usize;
    for proto in PROTOCOLS {
        for sym in SYMS {
            for threads in THREADS {
                let case = format!("perf/{proto}/sym={}/t={threads}", sym_tag(sym));
                if !filter.is_empty() && !case.contains(&filter) {
                    continue;
                }
                cases += 1;
                // Best-of-reps: keep the fastest rep (and its counter
                // movement — the counters are deterministic per run).
                let mut best: Option<(CaseResult, Counters, Counters)> = None;
                for _ in 0..reps {
                    let before = scv_telemetry::registry().counter_snapshot();
                    let r = run_case(proto, sym, threads, max_states);
                    let after = scv_telemetry::registry().counter_snapshot();
                    if best
                        .as_ref()
                        .is_none_or(|(b, _, _)| r.states_per_sec > b.states_per_sec)
                    {
                        best = Some((r, before, after));
                    }
                }
                let (r, before, after) = best.expect("reps >= 1");
                let mut report = scv_telemetry::RunReport::new(format!("{case}/lazy"))
                    .param("protocol", proto)
                    .param("symmetry", sym_tag(sym))
                    .param("threads", threads.to_string())
                    .param("max_states", max_states.to_string())
                    .param("reps", reps.to_string())
                    .with_verdict(r.verdict)
                    .metric("states", r.states as f64)
                    .metric("transitions", r.transitions as f64)
                    .metric("elapsed_secs", r.elapsed_secs)
                    .metric("states_per_sec", r.states_per_sec);
                // Counter movement attributable to the run: clones
                // avoided, seal-cache traffic, arena bytes, and the
                // canonicalizer's fast-path/fallback split.
                for key in [
                    "mc.clones_avoided",
                    "mc.arena_alloc_bytes",
                    "symmetry.seal_cache_hits",
                    "symmetry.seal_cache_misses",
                    "symmetry.seal_cache_l2_hits",
                    "symmetry.refine_exact",
                    "symmetry.residual_enum",
                ] {
                    let old = before
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| *v)
                        .unwrap_or(0);
                    let new = after
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| *v)
                        .unwrap_or(0);
                    report = report.metric(key, new.saturating_sub(old) as f64);
                }
                scv_telemetry::emit_report(report);
                println!(
                    "| {case} | {} | {} | {:.0} |",
                    r.verdict, r.states, r.states_per_sec
                );
            }
        }
    }
    let total = t_all.elapsed().as_secs_f64();
    let mut summary = scv_telemetry::RunReport::new("perf/summary")
        .param("max_states", max_states.to_string())
        .param("cases", cases.to_string())
        .with_verdict("completed")
        .metric("total_elapsed_secs", total);
    // Omitted (not zero) when the platform can't report it.
    if let Some(rss) = scv_telemetry::peak_rss_bytes() {
        summary = summary.metric("peak_rss_bytes", rss as f64);
    }
    scv_telemetry::emit_report(summary);
    scv_telemetry::shutdown();
    println!("\n{cases} cases in {total:.1}s → {out_path}");
}
