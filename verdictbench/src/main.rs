//! Time-to-verdict benchmark for sc-verify.
//!
//! ```text
//! cargo run --release --offline --manifest-path verdictbench/Cargo.toml -- \
//!     --workload prove|sweep|hunt|sweep-ws --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off, times
//! scaled by a host-speed probe (host.rs);
//! `--trace 1` runs the workload untraced, traced, and untraced again, and
//! reports the per-layer metrics. Every search's verdict is checked either way. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the same figures for people. See README.md.

mod host;
mod stats;
mod trace;
mod workload;

use sc_verify::telemetry::{self, Hist, Metric, NoopSink};
use stats::{median, quantile, tail_percentile};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Count, Layer, Replay, Totals};
use workload::{Kind, Search, Size, Verdict, Workload};

/// Set-up is timed in `SETUP_ROUNDS` rounds, each a host probe and then
/// set-ups repeated for at least `SETUP_ROUND_S`. A round's figure is its
/// mean set-up time over its probe, and `setup_s` is the median figure
/// times `host::REFERENCE_S`. The set-up phase lasts under a second, often
/// all in one mode of the host, so the run's fastest probe does not fit it;
/// a probe a few milliseconds before the set-ups it pairs with does.
const SETUP_ROUNDS: usize = 31;
const SETUP_ROUND_S: f64 = 0.005;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the JSON result line.
struct Out {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn out(name: &'static str, value: f64, unit: &'static str) -> Out {
    Out {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

/// Pass/fail bookkeeping: every search run counts as attempted.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, search: &dyn Search, v: &Verdict) {
        self.attempted += 1;
        if let Err(why) = search.check(v) {
            self.fail(search.name(), &why);
        }
    }

    fn fail(&mut self, name: &str, why: &str) {
        self.failed += 1;
        println!("FAILED {name}: {why}");
        eprintln!("FAILED {name}: {why}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdictbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut setup_rounds = Vec::new();
    let mut setups = 0;
    let w = loop {
        let probe = host::probe();
        let (mut spent, mut n) = (0.0, 0);
        let w = loop {
            let t = Instant::now();
            let Some(w) = workload::setup(&args.workload, args.seed, Size::Full) else {
                eprintln!(
                    "verdictbench: unknown workload {:?} (one of {})",
                    args.workload,
                    workload::NAMES.join(", ")
                );
                return ExitCode::from(2);
            };
            spent += t.elapsed().as_secs_f64();
            n += 1;
            if spent >= SETUP_ROUND_S {
                break w;
            }
        };
        setup_rounds.push(spent / n as f64 / probe);
        setups += n;
        if setup_rounds.len() == SETUP_ROUNDS {
            break w;
        }
    };
    let setup = Out {
        note: format!("(median of {SETUP_ROUNDS} probed rounds, {setups} set-ups)"),
        ..out("setup_s", host::REFERENCE_S * median(&setup_rounds), "s")
    };
    println!(
        "# verdictbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for g in &w.generated {
        println!("# generated member: {g}");
    }
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&w, &mut tally)
    } else {
        untraced(&w, &args, setup, &mut tally)
    };
    for m in &metrics {
        println!("{:<28} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<28} {:>16.6} {:<8} ({} of {} searches failed)",
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.failed,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// End-to-end metrics: passes over the workload until `--seconds` would be
/// exceeded (at least the workload's minimum), telemetry off, with a host
/// probe before every search run.
fn untraced(w: &Workload, args: &Args, setup: Out, tally: &mut Tally) -> Vec<Out> {
    let start = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); w.searches.len()];
    let mut last: Vec<Option<Verdict>> = w.searches.iter().map(|_| None).collect();
    let mut probe_min = f64::INFINITY;
    let mut passes = 0;
    loop {
        let pass = Instant::now();
        for (i, s) in w.searches.iter().enumerate() {
            probe_min = probe_min.min(host::probe_on(s.threads()));
            let v = s.run();
            tally.record(s.as_ref(), &v);
            walls[i].push(v.wall);
            last[i] = Some(v);
        }
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if passes >= w.min_passes && elapsed + pass.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    // A search's time to verdict is its fastest pass, scaled by the run's
    // fastest probe. Other tenants of a shared host slow the searches by up
    // to 1.8x in spells of seconds to minutes; the interference only ever
    // adds time, so the fastest pass is the steadiest estimate of the
    // search's own cost, and the scale takes out what a run with no quiet
    // spell at all still adds (see host.rs).
    let scale = host::REFERENCE_S / probe_min;
    let ttv: Vec<f64> = walls
        .iter()
        .map(|t| scale * t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    println!(
        "# host probe: fastest {probe_min:.6} s of {} (reference {} s), times scaled by {scale:.4}",
        passes * w.searches.len(),
        host::REFERENCE_S
    );
    for (((s, v), t), passes) in w.searches.iter().zip(&last).zip(&ttv).zip(&walls) {
        let v = v.as_ref().expect("every search ran");
        let ms: Vec<String> = passes.iter().map(|x| format!("{:.0}", x * 1e3)).collect();
        println!(
            "search {:<58} {:<9} states={:<8} transitions={:<9} ttv_s={t:.6} passes_ms=[{}]",
            s.name(),
            format!("{:?}", v.kind),
            v.stats.states,
            v.stats.transitions,
            ms.join(" ")
        );
    }
    let p = tail_percentile(ttv.len());
    let rss = telemetry::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64;
    let mut m = vec![
        setup,
        out("verdict_s", ttv.iter().sum(), "s"),
        out("ttv_p50_s", median(&ttv), "s"),
        out("ttv_tail_s", quantile(&ttv, p / 100.0), "s"),
        out("peak_rss_mb", rss, "MB"),
    ];
    m[1].note = format!("(sum over {} searches, {passes} passes)", ttv.len());
    m[2].note = format!("(p50 of {} searches)", ttv.len());
    m[3].note = format!("(p{p} of {} searches)", ttv.len());
    if args.workload == "hunt" {
        // On hunt every search ends at its first counterexample.
        println!(
            "{:<28} {:>16.6} {:<8} {}",
            "ttc_p50_s", m[2].value, "s", m[2].note
        );
        println!(
            "{:<28} {:>16.6} {:<8} {}",
            "ttc_tail_s", m[3].value, "s", m[3].note
        );
    }
    m
}

/// The traced run's raw material, kept separate from the metrics so the
/// transparency tests can inspect it.
struct TracedPass {
    plain: Vec<Verdict>,
    traced: Vec<Verdict>,
    caps: Vec<usize>,
    totals: Totals,
    replay: Replay,
    counters: Vec<(Metric, u64)>,
    residual_mean: f64,
}

impl TracedPass {
    fn counter(&self, m: Metric) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == m)
            .map_or(0, |(_, v)| *v)
    }
}

const COUNTERS: [Metric; 12] = [
    Metric::ObserverSteps,
    Metric::ObserverSymbols,
    Metric::CheckerSymbols,
    Metric::CheckerEdges,
    Metric::SymCanonicalized,
    Metric::SymRefineExact,
    Metric::SealCacheHits,
    Metric::SealCacheMisses,
    Metric::SealCacheL2Hits,
    Metric::McClonesAvoided,
    Metric::McArenaAllocBytes,
    Metric::McIdleSpins,
];

/// One untraced pass (the reference for transparency and overhead), one
/// traced pass with the program's counters on, then per search the layer
/// replay and a second untraced run.
fn traced_pass(w: &Workload, tally: &mut Tally) -> TracedPass {
    let mut plain = Vec::new();
    for s in &w.searches {
        let v = s.run();
        tally.record(s.as_ref(), &v);
        plain.push(v);
    }
    telemetry::install(Box::new(NoopSink));
    trace::reset();
    let runs: Vec<_> = w.searches.iter().map(|s| s.run_traced()).collect();
    let totals = Totals::read();
    let reg = telemetry::registry();
    let counters = COUNTERS.iter().map(|&m| (m, reg.get(m))).collect();
    let residual_mean = reg.hist(Hist::SymResidualGroupSize).mean();
    telemetry::shutdown();

    let mut traced = Vec::new();
    let mut caps = Vec::new();
    let mut replay = Replay::default();
    for ((s, run), base) in w.searches.iter().zip(runs).zip(&mut plain) {
        tally.record(s.as_ref(), &run.verdict);
        if let Err(why) = transparent(s.as_ref(), base, &run.verdict) {
            tally.fail(s.name(), &why);
        }
        replay.add(&(run.replay)());
        caps.push(run.cap);
        traced.push(run.verdict);
        // A second untraced run after the traced one; the overhead is
        // taken against the faster of the two, as the end-to-end figures
        // are.
        let again = s.run();
        tally.record(s.as_ref(), &again);
        base.wall = base.wall.min(again.wall);
    }
    TracedPass {
        plain,
        traced,
        caps,
        totals,
        replay,
        counters,
        residual_mean,
    }
}

/// The wrappers must not change what the search finds: the same verdict,
/// and at t=1 the same state and transition counts.
fn transparent(s: &dyn Search, plain: &Verdict, traced: &Verdict) -> Result<(), String> {
    if plain.kind != traced.kind {
        return Err(format!(
            "traced verdict {:?} differs from untraced {:?}",
            traced.kind, plain.kind
        ));
    }
    let counts = |v: &Verdict| (v.stats.states, v.stats.transitions);
    if s.threads() == 1 && counts(plain) != counts(traced) {
        return Err(format!(
            "traced counts {:?} differ from untraced {:?}",
            counts(traced),
            counts(plain)
        ));
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn traced(w: &Workload, tally: &mut Tally) -> Vec<Out> {
    let p = traced_pass(w, tally);
    let t = &p.totals;
    let r = &p.replay;
    let c = |m| p.counter(m) as f64;
    let symmetric = w.searches.iter().any(|s| s.symmetric());

    let untraced_wall: f64 = p.plain.iter().map(|v| v.wall).sum();
    let traced_wall: f64 = p.traced.iter().map(|v| v.wall).sum();
    let worker_s: f64 = w
        .searches
        .iter()
        .zip(&p.traced)
        .map(|(s, v)| s.threads() as f64 * v.wall)
        .sum();
    let wrapped_s = t.incl_s(Layer::Initial) + t.incl_s(Layer::Expand) + t.incl_s(Layer::Violation);
    let states: f64 = p.traced.iter().map(|v| v.stats.states as f64).sum();
    let largest = p.traced.iter().map(|v| v.stats.states).max().unwrap_or(0) as f64;
    let probed = t.count(Count::Probed) as f64;

    let obs_ns = Replay::per_call(r.obs_ns, r.obs_steps);
    let chk_ns = Replay::per_call(r.chk_ns, r.chk_symbols);
    let enc_ns = Replay::per_call(r.encode_ns, r.encodes);
    let canon_ns = Replay::per_call(r.canon_ns, r.canons);
    // In-run call counts of the layers inside expansion. Without symmetry
    // every candidate is encoded once; with it, the identity encoding is
    // made for each seal-cache probe and the rest is canonicalization.
    let encodes = if symmetric {
        c(Metric::SealCacheHits) + c(Metric::SealCacheMisses)
    } else {
        c(Metric::ObserverSteps)
    };
    let attributed_s = (obs_ns * c(Metric::ObserverSteps)
        + chk_ns * c(Metric::CheckerSymbols)
        + enc_ns * encodes
        + canon_ns * c(Metric::SymCanonicalized))
        / 1e9;
    let expand_self = t.self_s(Layer::Expand);

    let overshoot: usize = w
        .searches
        .iter()
        .zip(p.traced.iter().zip(&p.caps))
        .filter(|(s, (v, _))| s.threads() > 1 && v.kind == Kind::Bounded)
        .map(|(_, (v, cap))| v.stats.states.saturating_sub(*cap))
        .sum();
    let steals: usize = p.traced.iter().map(|v| v.stats.steals).sum();
    let batches: usize = p.traced.iter().map(|v| v.stats.seen_batches).sum();
    let rss = telemetry::peak_rss_bytes().unwrap_or(0) as f64;

    vec![
        out("protocol.step_calls", t.calls(Layer::Step) as f64, "count"),
        out("protocol.step_s", t.self_s(Layer::Step), "s"),
        out("protocol.sym_calls", t.calls(Layer::Sym) as f64, "count"),
        out("protocol.sym_s", t.self_s(Layer::Sym), "s"),
        out("observer.step_ns", obs_ns, "ns"),
        out(
            "observer.symbols_per_step",
            ratio(c(Metric::ObserverSymbols), c(Metric::ObserverSteps)),
            "ratio",
        ),
        out("checker.step_ns", chk_ns, "ns"),
        out(
            "checker.edges_per_symbol",
            ratio(c(Metric::CheckerEdges), c(Metric::CheckerSymbols)),
            "ratio",
        ),
        out(
            "checker.end_calls",
            t.calls(Layer::Violation) as f64,
            "count",
        ),
        out("checker.end_s", t.incl_s(Layer::Violation), "s"),
        out("descriptor.encode_ns", enc_ns, "ns"),
        out("symmetry.canon_ns", canon_ns, "ns"),
        out(
            "symmetry.seal_hit_rate",
            ratio(
                c(Metric::SealCacheHits),
                c(Metric::SealCacheHits) + c(Metric::SealCacheMisses),
            ),
            "ratio",
        ),
        out(
            "symmetry.seal_l2_share",
            ratio(c(Metric::SealCacheL2Hits), c(Metric::SealCacheHits)),
            "ratio",
        ),
        out(
            "symmetry.refine_exact_frac",
            ratio(c(Metric::SymRefineExact), c(Metric::SymCanonicalized)),
            "ratio",
        ),
        out("symmetry.residual_mean", p.residual_mean, "count"),
        out("seen.admit_calls", t.calls(Layer::Admit) as f64, "count"),
        out("seen.admit_s", t.incl_s(Layer::Admit), "s"),
        out(
            "seen.admit_yield",
            ratio(t.count(Count::Admitted) as f64, probed),
            "ratio",
        ),
        out("mc.expand_calls", t.calls(Layer::Expand) as f64, "count"),
        out("mc.expand_self_s", expand_self, "s"),
        out("mc.engine_self_s", worker_s - wrapped_s, "s"),
        out(
            "mc.dup_frac",
            ratio(c(Metric::McClonesAvoided), probed),
            "ratio",
        ),
        out(
            "mc.arena_bytes_per_state",
            ratio(c(Metric::McArenaAllocBytes), states),
            "B/state",
        ),
        out("mc.rss_bytes_per_state", ratio(rss, largest), "B/state"),
        out("ws.steals", steals as f64, "count"),
        out("ws.idle_spins", c(Metric::McIdleSpins), "count"),
        out("ws.seen_batches", batches as f64, "count"),
        out("ws.cap_overshoot", overshoot as f64, "count"),
        out(
            "trace.unattributed_pct",
            100.0 * ratio(expand_self - attributed_s, expand_self),
            "%",
        ),
        out(
            "trace.overhead_pct",
            100.0 * (ratio(traced_wall, untraced_wall) - 1.0),
            "%",
        ),
    ]
}

#[cfg(test)]
mod tests {
    //! Transparency of the trace wrappers at small sizes: the traced run
    //! must reach the untraced run's verdict on every workload, with the
    //! same state and transition counts at t=1, and pass every check.

    use super::*;
    use std::sync::Mutex;

    /// The trace slots and the telemetry registry are process-wide.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn transparent_on(name: &str) {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let w = workload::setup(name, 7, Size::Small).expect("known workload");
        let mut tally = Tally::default();
        let p = traced_pass(&w, &mut tally);
        assert_eq!(
            tally.failed, 0,
            "{name}: a check or the transparency test failed"
        );
        assert_eq!(tally.attempted, 3 * w.searches.len());
        for (s, (a, b)) in w.searches.iter().zip(p.plain.iter().zip(&p.traced)) {
            assert_eq!(a.kind, b.kind, "{}", s.name());
            if s.threads() == 1 {
                assert_eq!(a.stats.states, b.stats.states, "{}", s.name());
                assert_eq!(a.stats.transitions, b.stats.transitions, "{}", s.name());
            }
        }
        assert!(
            p.totals.calls(Layer::Expand) > 0,
            "{name}: no expansion was traced"
        );
        assert!(
            p.totals.calls(Layer::Step) > 0,
            "{name}: no protocol step was traced"
        );
    }

    #[test]
    fn prove_is_transparent() {
        transparent_on("prove");
    }

    #[test]
    fn sweep_is_transparent() {
        transparent_on("sweep");
    }

    #[test]
    fn hunt_is_transparent() {
        transparent_on("hunt");
    }

    #[test]
    fn sweep_ws_is_transparent() {
        transparent_on("sweep-ws");
    }

    #[test]
    fn hunt_set_follows_the_seed() {
        let a = workload::setup("hunt", 1, Size::Full).unwrap().generated;
        let b = workload::setup("hunt", 1, Size::Full).unwrap().generated;
        assert_eq!(a, b, "same seed, same hunt set");
        let differs =
            (2..20).any(|s| workload::setup("hunt", s, Size::Full).unwrap().generated != a);
        assert!(differs, "the seed must move the hunt set");
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(workload::setup("nope", 0, Size::Full).is_none());
    }
}
