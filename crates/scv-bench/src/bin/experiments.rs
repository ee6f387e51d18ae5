//! Regenerate every table of EXPERIMENTS.md in one run.
//!
//! ```text
//! cargo run --release -p scv-bench --bin experiments [--report <path>] [e1 e5 …]
//! ```
//!
//! Timing *figures* (series with error bars) are produced by the Criterion
//! benches (`cargo bench`); this binary prints the outcome/size/shape
//! tables and quick single-shot timings for the crossover figure.
//!
//! With `--report <path>`, one schema-versioned [`scv_telemetry::RunReport`]
//! JSONL record is appended per experiment: wall-clock time, peak RSS, and
//! the pipeline counter deltas (states admitted, observer/checker symbols,
//! …) attributable to that experiment.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use scv_bench::{protocol_run, sc_workload};
use scv_checker::{CycleChecker, ScChecker};
use scv_descriptor::decode;
use scv_graph::baseline::{BaselineChecker, BaselineVerdict};
use scv_graph::serial_search::has_serial_reordering;
use scv_mc::{verify_protocol, Outcome, SymmetryMode, VerifyOptions};
use scv_observer::{observer_size_bound, Observer, ObserverConfig};
use scv_protocol::{
    DirectoryProtocol, Fig4Protocol, LazyCaching, MsiProtocol, Protocol, Runner, SerialMemory,
    StoreBufferTso,
};
use scv_types::{BlockId, Op, Params, ProcId, Trace, Value};
use std::time::Instant;

fn e1_figure1() {
    println!("## E1 — Figure 1: litmus outcomes\n");
    println!("| r1 | r2 | serial | SC |");
    println!("|----|----|--------|----|");
    let outcome = |r1: Option<u8>, r2: Option<u8>| {
        let val = |o: Option<u8>| o.map(Value).unwrap_or(Value::BOTTOM);
        Trace::from_ops([
            Op::store(ProcId(1), BlockId(1), Value(1)),
            Op::store(ProcId(1), BlockId(2), Value(2)),
            Op::load(ProcId(2), BlockId(2), val(r2)),
            Op::load(ProcId(2), BlockId(1), val(r1)),
        ])
    };
    for (r1, r2) in [
        (Some(1), Some(2)),
        (None, None),
        (Some(1), None),
        (None, Some(2)),
    ] {
        let t = outcome(r1, r2);
        let show = |o: Option<u8>| o.map_or("0".into(), |v: u8| v.to_string());
        println!(
            "| {} | {} | {} | {} |",
            show(r1),
            show(r2),
            t.is_serial(),
            has_serial_reordering(&t)
        );
    }
    println!();
}

fn e4_size_bounds() {
    println!("## E4 — §4.4 observer size bounds vs measurements\n");
    println!("| protocol | p | b | v | L | bound bw (L+pb) | bound bits | measured live nodes | measured aux IDs |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut rng = SmallRng::seed_from_u64(99);
    macro_rules! measure {
        ($name:expr, $proto:expr) => {{
            let proto = $proto;
            let mut runner = Runner::new(proto.clone());
            runner.run_random(600, 0.5, &mut rng);
            let run = runner.into_run();
            let mut obs = Observer::new(ObserverConfig::from_protocol(&proto));
            let mut syms = Vec::new();
            for s in &run.steps {
                obs.step(s, &mut syms);
            }
            obs.finish(&mut syms);
            let params = proto.params();
            let l = proto.locations();
            let bound = observer_size_bound(&params, l);
            let st = obs.stats();
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                $name,
                params.p,
                params.b,
                params.v,
                l,
                bound.bandwidth,
                bound.total_bits,
                st.max_live_nodes,
                st.max_aux_in_use
            );
        }};
    }
    for (p, b, v) in [(2, 2, 2), (3, 2, 2), (2, 4, 2), (4, 2, 4), (4, 4, 4)] {
        let params = Params::new(p, b, v);
        measure!("serial-memory", SerialMemory::new(params));
        measure!("msi", MsiProtocol::new(params));
        measure!("directory", DirectoryProtocol::new(params));
        measure!("lazy-caching", LazyCaching::new(params, 2, 2));
    }
    println!();
}

fn e5_verification() {
    println!("## E5 — verification outcomes (model checking the product)\n");
    println!("Positive rows cap the search at 1.5M states: `no violation (bounded)`");
    println!("means the cap was reached with every explored run verifying;");
    println!("`VERIFIED` means the whole product space was exhausted (a proof).\n");
    println!("| protocol | (p,b,v) | expected | outcome | states | transitions | depth | time |");
    println!("|---|---|---|---|---|---|---|---|");
    let opts = VerifyOptions::new().max_states(1_500_000).threads(4);
    macro_rules! row {
        ($name:expr, $ps:expr, $expected:expr, $proto:expr) => {{
            let out = verify_protocol($proto, opts.clone());
            let s = out.stats();
            let verdict = match &out {
                Outcome::Verified { .. } => "VERIFIED (exhaustive)",
                Outcome::Violation { .. } => "NOT SC / no witness",
                Outcome::Bounded { .. } => "no violation (bounded)",
                Outcome::Inconclusive { .. } => "no violation (interrupted)",
            };
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:?} |",
                $name, $ps, $expected, verdict, s.states, s.transitions, s.depth, s.elapsed
            );
            out
        }};
    }
    row!(
        "serial-memory",
        "(2,1,1)",
        "SC",
        SerialMemory::new(Params::new(2, 1, 1))
    );
    row!(
        "msi",
        "(2,1,2)",
        "SC",
        MsiProtocol::new(Params::new(2, 1, 2))
    );
    row!(
        "mesi",
        "(2,1,2)",
        "SC",
        scv_protocol::MesiProtocol::new(Params::new(2, 1, 2))
    );
    row!(
        "directory",
        "(2,1,1)",
        "SC",
        DirectoryProtocol::new(Params::new(2, 1, 1))
    );
    row!(
        "lazy-caching qo=qi=1",
        "(2,1,1)",
        "SC",
        LazyCaching::new(Params::new(2, 1, 1), 1, 1)
    );
    let mut notes: Vec<String> = Vec::new();
    let out = row!(
        "msi-buggy",
        "(2,2,1)",
        "not SC",
        MsiProtocol::buggy(Params::new(2, 2, 1))
    );
    if let Outcome::Violation { trace, reason, .. } = &out {
        notes.push(format!(
            "msi-buggy counterexample trace: `{trace}` — {reason} (independent check, has serial reordering: {})",
            has_serial_reordering(trace)
        ));
    }
    row!(
        "mesi-buggy",
        "(2,2,1)",
        "not SC",
        scv_protocol::MesiProtocol::buggy(Params::new(2, 2, 1))
    );
    let out = row!(
        "store-buffer (TSO)",
        "(2,2,1) d=1",
        "not SC",
        StoreBufferTso::new(Params::new(2, 2, 1), 1)
    );
    if let Outcome::Violation { trace, .. } = &out {
        notes.push(format!(
            "TSO counterexample trace: `{trace}` (independent check, has serial reordering: {})",
            has_serial_reordering(trace)
        ));
    }
    row!(
        "fig4 (Get-Shared)",
        "(2,1,2) s=1",
        "not in Γ",
        Fig4Protocol::new(Params::new(2, 1, 2), 1)
    );
    println!();
    for n in notes {
        println!("{n}");
        println!();
    }
}

fn e6_crossover() {
    println!("## E6 — streaming checker vs whole-graph baseline (single-shot timings)\n");
    println!("| n ops | window | bandwidth k | stream cycle | stream SC | baseline whole-graph | decode+axioms |");
    println!("|---|---|---|---|---|---|---|");
    for len in [1_000usize, 4_000, 16_000, 64_000] {
        for window in [4usize, 64] {
            let w = sc_workload(len, window, 42);
            // The word-packed cycle checker supports k+1 <= 64; wider
            // workloads are checked by the slab-based SC checker only.
            let cyc = if w.bandwidth < 64 {
                let t0 = Instant::now();
                CycleChecker::check(&w.descriptor).expect("acyclic");
                format!("{:?}", t0.elapsed())
            } else {
                "— (k+1 > 64)".to_string()
            };
            let t0 = Instant::now();
            ScChecker::check(&w.descriptor).expect("valid");
            let sc = t0.elapsed();
            let t0 = Instant::now();
            assert!(matches!(
                BaselineChecker::check(&w.trace, &w.witness),
                BaselineVerdict::Consistent(_)
            ));
            let base = t0.elapsed();
            let t0 = Instant::now();
            let (dg, _) = decode(&w.descriptor).expect("decodes");
            let cg = dg.to_constraint_graph().expect("labeled");
            assert!(scv_graph::validate_constraint_graph(&cg, &w.trace).is_ok());
            let dec = t0.elapsed();
            println!(
                "| {len} | {window} | {} | {cyc} | {sc:?} | {base:?} | {dec:?} |",
                w.bandwidth
            );
        }
    }
    println!();
}

fn e7_bandwidth() {
    println!("## E7 — observed witness-graph bandwidth vs L+pb bound\n");
    println!("| protocol | (p,b,v) | L | L+pb | observed bandwidth | observed max active IDs |");
    println!("|---|---|---|---|---|---|");
    macro_rules! row {
        ($name:expr, $proto:expr) => {{
            let p = $proto;
            let (_, d) = protocol_run(&p, 2_000, 21);
            let (dg, stats) = decode(&d).expect("decodes");
            let cg = dg.to_constraint_graph().expect("labeled");
            let params = p.params();
            let l = p.locations();
            println!(
                "| {} | ({},{},{}) | {} | {} | {} | {} |",
                $name,
                params.p,
                params.b,
                params.v,
                l,
                l as u64 + params.p as u64 * params.b as u64,
                cg.bandwidth(),
                stats.max_active
            );
        }};
    }
    let params = Params::new(2, 2, 2);
    row!("serial-memory", SerialMemory::new(params));
    row!("msi", MsiProtocol::new(params));
    row!("directory", DirectoryProtocol::new(params));
    row!("lazy-caching", LazyCaching::new(params, 2, 2));
    row!(
        "tso (accepting prefix)",
        StoreBufferTso::new(Params::new(2, 2, 2), 2)
    );
    println!();
}

fn e8_lazy_depth() {
    println!("## E8 — lazy caching: queue depth vs observation cost\n");
    println!("| queue depth | run steps | descriptor symbols | max live nodes | observe time | check time |");
    println!("|---|---|---|---|---|---|");
    for depth in [1u8, 2, 4, 8] {
        let p = LazyCaching::new(Params::new(2, 2, 2), depth, depth);
        let (run, _) = protocol_run(&p, 3_000, 13);
        let t0 = Instant::now();
        let mut obs = Observer::new(ObserverConfig::from_protocol(&p));
        let mut syms = Vec::new();
        for s in &run.steps {
            obs.step(s, &mut syms);
        }
        obs.finish(&mut syms);
        let t_obs = t0.elapsed();
        let t0 = Instant::now();
        let mut chk = ScChecker::new(obs.k());
        for s in &syms {
            chk.step(s).expect("verifies");
        }
        chk.finish().expect("verifies");
        let t_chk = t0.elapsed();
        println!(
            "| {depth} | {} | {} | {} | {t_obs:?} | {t_chk:?} |",
            run.len(),
            syms.len(),
            obs.stats().max_live_nodes
        );
    }
    println!();
}

fn e9_parallel() {
    println!("## E9 — parallel model checking (MSI 2,1,2; 500k-state bounded sweep)\n");
    println!("| engine | threads | states | time | states/s | speedup | steals | seen batches | peak frontier |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let sweep = VerifyOptions::new().max_states(500_000);
    let mut t1 = None;
    let mut row = |label: &str, opts: VerifyOptions| {
        let threads = opts.threads;
        let t0 = Instant::now();
        let out = verify_protocol(MsiProtocol::new(Params::new(2, 1, 2)), opts);
        let dt = t0.elapsed();
        assert!(!matches!(out, Outcome::Violation { .. }));
        let s = out.stats();
        let base = *t1.get_or_insert(dt);
        println!(
            "| {label} | {} | {} | {dt:?} | {:.0} | {:.2}x | {} | {} | {} |",
            threads,
            s.states,
            s.states_per_sec(),
            base.as_secs_f64() / dt.as_secs_f64(),
            s.steals,
            s.seen_batches,
            s.peak_frontier,
        );
    };
    row("sequential", sweep.clone().threads(1));
    for threads in [2usize, 4, 8] {
        row("work-stealing", sweep.clone().threads(threads));
    }
    println!();

    // Time-to-counterexample on the violating products: the asynchronous
    // engine explores in a schedule-dependent order, so the interesting
    // guarantees are (a) every engine still finds a violation and (b) how
    // much of the product each visits before doing so.
    println!("### E9b — time to counterexample (violating products)\n");
    println!("| product | engine | threads | states to violation | run length | time |");
    println!("|---|---|---|---|---|---|");
    macro_rules! cex_rows {
        ($name:expr, $mk:expr) => {
            for (engine, threads) in [("sequential", 1usize), ("work-stealing", 4)] {
                let t0 = Instant::now();
                let out = verify_protocol($mk, sweep.clone().threads(threads));
                let dt = t0.elapsed();
                let Outcome::Violation { run, ref stats, .. } = out else {
                    panic!("{} must violate", $name);
                };
                println!(
                    "| {} | {engine} | {threads} | {} | {} | {dt:?} |",
                    $name,
                    stats.states,
                    run.len()
                );
            }
        };
    }
    cex_rows!(
        "msi-buggy (2,2,1)",
        MsiProtocol::buggy(Params::new(2, 2, 1))
    );
    cex_rows!(
        "fig4 (2,1,2) s=1",
        Fig4Protocol::new(Params::new(2, 1, 2), 1)
    );
    println!();
}

fn e11_symmetry() {
    println!("## E11 — symmetry-quotient search: reduced vs full product space\n");
    println!("Each product is searched twice with identical limits — once over the");
    println!("raw space and once quotiented by the protocol's declared symmetry");
    println!("group (orbit-minimum canonicalization before seen-set admission).");
    println!("Limits are chosen so the search frontier is comparable either way:");
    println!("small products run exhaustively, large ones are depth-limited (a");
    println!("shared state cap would hide the reduction — both searches would");
    println!("stop at the cap). Verdicts must agree; `reduction` is raw states /");
    println!("reduced states.\n");
    println!("| protocol | (p,b,v) | limit | |G| | verdict | states off | states on | reduction | time off | time on |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    macro_rules! row {
        ($name:expr, $ps:expr, $limit:expr, $base:expr, $mk:expr) => {{
            let order =
                scv_mc::VerifySystem::with_symmetry($mk, SymmetryMode::Full).symmetry_group_order();
            let t0 = Instant::now();
            let off = verify_protocol($mk, $base.clone());
            let t_off = t0.elapsed();
            let t0 = Instant::now();
            let on = verify_protocol($mk, $base.clone().symmetry(SymmetryMode::Full));
            let t_on = t0.elapsed();
            let verdict = |o: &Outcome| match o {
                Outcome::Verified { .. } => "VERIFIED",
                Outcome::Violation { .. } => "violation",
                Outcome::Bounded { .. } => "bounded",
                Outcome::Inconclusive { .. } => "inconclusive",
            };
            assert_eq!(
                verdict(&off),
                verdict(&on),
                "{}: symmetry changed verdict",
                $name
            );
            let (s_off, s_on) = (off.stats().states, on.stats().states);
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.2}x | {:?} | {:?} |",
                $name,
                $ps,
                $limit,
                order,
                verdict(&off),
                s_off,
                s_on,
                s_off as f64 / s_on.max(1) as f64,
                t_off,
                t_on
            );
        }};
    }
    // Exhaustive rows: the whole quotient is a proof either way.
    let exhaustive = VerifyOptions::new().max_states(2_000_000);
    row!(
        "serial-memory",
        "(2,1,1)",
        "exhaustive",
        exhaustive,
        SerialMemory::new(Params::new(2, 1, 1))
    );
    row!(
        "serial-memory",
        "(1,1,2)",
        "exhaustive",
        exhaustive,
        SerialMemory::new(Params::new(1, 1, 2))
    );
    // Depth-limited sweeps: identical frontier depth, so the state counts
    // measure the orbit merging directly.
    let sweep = VerifyOptions::new().max_states(1_500_000).max_depth(8);
    row!(
        "msi",
        "(2,1,2)",
        "depth 8",
        sweep,
        MsiProtocol::new(Params::new(2, 1, 2))
    );
    row!(
        "mesi",
        "(2,1,2)",
        "depth 8",
        sweep,
        scv_protocol::MesiProtocol::new(Params::new(2, 1, 2))
    );
    row!(
        "directory",
        "(2,2,1)",
        "depth 8",
        sweep,
        DirectoryProtocol::new(Params::new(2, 2, 1))
    );
    // A violating product: the quotient must still catch the bug (with a
    // shortest counterexample — sequential BFS), just sooner.
    let hunt = VerifyOptions::new().max_states(2_000_000);
    row!(
        "msi-buggy",
        "(2,2,1)",
        "to violation",
        hunt,
        MsiProtocol::buggy(Params::new(2, 2, 1))
    );
    println!();
}

fn main() {
    // With no arguments every table is regenerated; passing experiment
    // names (`experiments e9 e5`) reruns just those. `--report <path>`
    // additionally writes one RunReport JSONL record per experiment.
    let mut only: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = only.iter().position(|a| a == "--report") {
        only.remove(i);
        if i >= only.len() {
            eprintln!("error: --report needs a path");
            std::process::exit(2);
        }
        let path = only.remove(i);
        match scv_telemetry::JsonlSink::create(std::path::Path::new(&path)) {
            Ok(sink) => scv_telemetry::install(Box::new(sink)),
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let run = |name: &str| only.is_empty() || only.iter().any(|a| a == name);
    println!("# sc-verify experiment tables (generated)\n");
    let experiments: [(&str, fn()); 8] = [
        ("e1", e1_figure1),
        ("e4", e4_size_bounds),
        ("e5", e5_verification),
        ("e6", e6_crossover),
        ("e7", e7_bandwidth),
        ("e8", e8_lazy_depth),
        ("e9", e9_parallel),
        ("e11", e11_symmetry),
    ];
    for (name, f) in experiments {
        if !run(name) {
            continue;
        }
        let before = scv_telemetry::registry().counter_snapshot();
        let t0 = Instant::now();
        f();
        let elapsed = t0.elapsed();
        if scv_telemetry::enabled() {
            // Attribute the pipeline counter movement to this experiment.
            let after = scv_telemetry::registry().counter_snapshot();
            let mut report = scv_telemetry::RunReport::new(format!("experiments/{name}"))
                .with_verdict("completed")
                .metric("elapsed_secs", elapsed.as_secs_f64());
            // Omitted (not zero) when the platform can't report it.
            if let Some(rss) = scv_telemetry::peak_rss_bytes() {
                report = report.metric("peak_rss_bytes", rss as f64);
            }
            for (key, new) in &after {
                let old = before
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                if new > &old {
                    report = report.metric(*key, (new - old) as f64);
                }
            }
            scv_telemetry::emit_report(report);
        }
    }
    scv_telemetry::shutdown();
    println!("done.");
}
