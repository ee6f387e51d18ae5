//! `scv` — command-line front end for the verification pipeline.
//!
//! `scv --help` lists the commands, protocols and flags, and
//! `scv <command> --help` one command's flags; both are printed from the
//! tables below, which also drive parsing and range checks. Exit codes:
//! 0 verified (or the command succeeded), 1 a violation (or a failed fuzz
//! campaign), 2 a usage or I/O error, 3 inconclusive.

use rand::{rngs::SmallRng, SeedableRng};
use sc_verify::fuzz::{fault_injection_self_test, run_fuzz, FuzzOptions};
use sc_verify::prelude::*;
use sc_verify::telemetry;
use sc_verify::testing::{MonitorStep, RunMonitor};
use std::process::ExitCode;
use std::time::Duration;
use Kind::{Int, Secs, Switch, Text};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cmd {
    Verify,
    Trace,
    Explain,
    Observe,
    Monitor,
    Fuzz,
    List,
}

/// Each command's name and help line.
#[rustfmt::skip]
const COMMANDS: &[(Cmd, &str, &str)] = &[
    (Cmd::Verify, "verify", "model-check the protocol ⊗ observer ⊗ checker product"),
    (Cmd::Trace, "trace", "verify with the flight recorder on; write a Perfetto trace"),
    (Cmd::Explain, "explain", "find a violation; print its constraint graph and narration"),
    (Cmd::Observe, "observe", "print one random run and its descriptor"),
    (Cmd::Monitor, "monitor", "check one random run online (§5 testing mode)"),
    (Cmd::Fuzz, "fuzz", "differential fuzzing over generated protocols"),
    (Cmd::List, "list", "print the protocols"),
];
/// Every command: the first five take a protocol, the first three search.
#[rustfmt::skip]
const ALL: &[Cmd] =
    &[Cmd::Verify, Cmd::Trace, Cmd::Explain, Cmd::Observe, Cmd::Monitor, Cmd::Fuzz, Cmd::List];
const PROTO: &[Cmd] = ALL.split_at(5).0;
const SEARCH: &[Cmd] = ALL.split_at(3).0;
const RUN: &[Cmd] = &[Cmd::Observe, Cmd::Monitor];
const FUZZ: &[Cmd] = &[Cmd::Fuzz];

/// The protocol zoo as `list` prints it; `dispatch` has one arm per row.
const PROTOCOLS: &[(&str, &str)] = &[
    ("serial", "atomic serial memory (SC)"),
    ("msi", "snooping MSI, atomic bus (SC)"),
    ("msi-buggy", "MSI with a lost invalidation (not SC)"),
    ("mesi", "MESI with silent E->M upgrades (SC)"),
    ("mesi-buggy", "MESI with a stale snoop (not SC)"),
    ("directory", "directory protocol with response buffers (SC)"),
    ("lazy", "lazy caching, memory-write ST order (SC)"),
    ("tso", "store buffers without fences (not SC)"),
    ("fig4", "the paper's Get-Shared cache (not SC / not in Γ)"),
];

/// Build the zoo protocol `name` and run `a`'s command on it; `None` when
/// the name is not in the zoo.
fn dispatch(name: &str, a: &Args) -> Option<ExitCode> {
    let params = a.params;
    Some(match name {
        "serial" => run_on(SerialMemory::new(params), a),
        "msi" => run_on(MsiProtocol::new(params), a),
        "msi-buggy" => run_on(MsiProtocol::buggy(params), a),
        "mesi" => run_on(MesiProtocol::new(params), a),
        "mesi-buggy" => run_on(MesiProtocol::buggy(params), a),
        "directory" => run_on(DirectoryProtocol::new(params), a),
        "lazy" => run_on(LazyCaching::new(params, 2, 2), a),
        "tso" => run_on(StoreBufferTso::new(params, 2), a),
        "fig4" => run_on(Fig4Protocol::new(params, 2), a),
        _ => return None,
    })
}

/// `DirectoryProtocol` keeps its sharers in a u8 bitmask.
const MAX_P: u64 = 8;
/// The symmetry group's order p!·b!·v! is a 64-bit product in the library:
/// 8!·10!·10! < 2^64, while a wrapped order can make it enumerate an
/// astronomic group. (`msi`, `mesi` and `lazy` also need the u8 p·b.)
const MAX_BV: u64 = 10;
/// Every step of an `observe`/`monitor` run or a fuzz run is kept.
const MAX_STEPS: u64 = 1_000_000;
/// Each worker is an OS thread with its own successor arena.
const MAX_THREADS: u64 = 64;
/// One year: a deadline stays far from `Instant`'s overflow.
const MAX_WAIT: Duration = Duration::from_secs(31_536_000);
const ANY: u64 = u64::MAX;

/// How a flag's value is checked and stored.
#[derive(Clone, Copy)]
enum Kind {
    /// Takes no value.
    Switch(fn(&mut Args)),
    /// An integer in `[lo, hi]`.
    Int(u64, u64, fn(&mut Args, u64)),
    /// Seconds in `[0, MAX_WAIT]`, fractions allowed.
    Secs(fn(&mut Args, Duration)),
    /// Text; the setter refuses a word that is not one of the placeholder's.
    Text(fn(&mut Args, &str) -> bool),
}

/// One row of the flag grammar: name, value placeholder, the commands that
/// take it, its range and setter, and its help line.
#[rustfmt::skip]
type Flag = (&'static str, &'static str, &'static [Cmd], Kind, &'static str);

/// The flag grammar: parsing, range checks and `--help` all read it.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("-p", "N", PROTO, Int(1, MAX_P, |a, n| a.params.p = n as u8), "processors (default 2)"),
    ("-b", "N", PROTO, Int(1, MAX_BV, |a, n| a.params.b = n as u8), "memory blocks (default 1)"),
    ("-v", "N", PROTO, Int(1, MAX_BV, |a, n| a.params.v = n as u8), "values per block (default 2)"),
    ("--threads", "N", SEARCH, Int(0, MAX_THREADS, |a, n| a.search.threads = n as _),
         "search threads; 1 runs sequential BFS, more work-stealing (default 1)"),
    ("--max-states", "N", SEARCH, Int(0, ANY, |a, n| a.search.bfs.max_states = n as _),
         "state cap (default 2000000)"),
    ("--batch", "N", SEARCH, Int(0, 1 << 20, |a, n| a.search.batch_size = n as _),
         "work-stealing chunk size (default 128)"),
    ("--symmetry", "off|proc|full|full-enum", SEARCH, Text(|a, s| {
        a.search.symmetry = match s {
            "off" => SymmetryMode::Off,
            "proc" => SymmetryMode::Proc,
            "full" => SymmetryMode::Full,
            "full-enum" => SymmetryMode::FullEnum,
            _ => return false,
        };
        true
    }), "symmetry quotient of the search (default off)"),
    ("--timeout", "SECS", SEARCH, Secs(|a, d| a.search.budget.deadline = Some(d)),
         "stop as inconclusive (exit 3) after this wall time"),
    ("--checkpoint", "PATH", SEARCH,
         Text(|a, s| { a.search.checkpoint_path = Some(s.into()); true }),
         "write a resumable checkpoint when interrupted"),
    ("--checkpoint-every", "SECS", SEARCH, Secs(|a, d| a.search.checkpoint_every = Some(d)),
         "also snapshot the running search this often"),
    ("--resume", "PATH", SEARCH, Text(|a, s| { a.search.resume_from = Some(s.into()); true }),
         "continue from a checkpoint"),
    ("--progress", "", SEARCH, Switch(|a| a.progress = true),
         "live stderr ticker: states/sec, frontier, admission rate, ETA"),
    ("--out", "PATH", &[Cmd::Trace], Text(|a, s| { a.out = s.into(); true }),
         "trace file (default trace.json)"),
    ("--dot", "PATH", &[Cmd::Explain], Text(|a, s| { a.dot = Some(s.into()); true }),
         "write the constraint graph here instead of stdout"),
    ("--steps", "N", RUN, Int(0, MAX_STEPS, |a, n| a.steps = n as _), "run length (default 100)"),
    ("--seed", "N", &[Cmd::Observe, Cmd::Monitor, Cmd::Fuzz],
         Int(0, ANY, |a, n| { a.seed = n; a.fuzz.seed = n }), "random seed (default 0; fuzz 42)"),
    ("--cases", "N", FUZZ, Int(0, ANY, |a, n| a.fuzz.cases = n as _), "fuzz cases (default 200)"),
    ("--budget", "SECS", FUZZ, Secs(|a, d| a.fuzz.budget = Some(d)), "wall-clock budget"),
    ("--mc-every", "N", FUZZ, Int(0, ANY, |a, n| a.fuzz.mc_every = n as _),
         "model-check every Nth case, 0 never (default 10)"),
    ("--mc-states", "N", FUZZ, Int(0, ANY, |a, n| a.fuzz.mc_states = n as _),
         "state cap per model-checker run"),
    ("--runs", "N", FUZZ, Int(0, ANY, |a, n| a.fuzz.runs_per_case = n as _),
         "random runs per case (default 3)"),
    ("--run-len", "N", FUZZ, Int(0, MAX_STEPS, |a, n| a.fuzz.run_len = n as _),
         "steps per random run (default 36)"),
    ("--corpus", "DIR", FUZZ, Text(|a, s| { a.fuzz.corpus_dir = Some(s.into()); true }),
         "write shrunk reproducers here"),
    ("--no-self-test", "", FUZZ, Switch(|a| a.self_test = false), "no fault-injection self-test"),
    ("--telemetry", "summary|jsonl PATH|off", ALL, Text(|a, s| {
        a.telemetry = match s {
            "summary" => Telemetry::Summary,
            "off" | "none" => Telemetry::Off,
            "jsonl" => Telemetry::Jsonl(String::new()), // the path is the next argument
            _ => match s.strip_prefix("jsonl=") {
                Some(path) => Telemetry::Jsonl(path.into()),
                None => return false,
            },
        };
        true
    }), "phase/counter table on stdout, or JSONL events to PATH; the command defaults to verify"),
];

/// What a flag accepts, as help and errors print it.
fn accepts(f: &Flag) -> String {
    match f.3 {
        Int(lo, hi, _) if hi < ANY => format!("an integer in [{lo}, {hi}]"),
        Int(..) => "an unsigned 64-bit integer".into(),
        Secs(_) => format!("seconds in [0, {}]", MAX_WAIT.as_secs()),
        Text(_) => f.1.into(),
        Switch(_) => "no value".into(),
    }
}

/// Telemetry sink selection.
#[derive(Debug, PartialEq)]
enum Telemetry {
    Off,
    Summary,
    Jsonl(String),
}

/// A parsed command line; every value is in its flag's range.
struct Args {
    cmd: Cmd,
    protocol: &'static str,
    params: Params,
    search: VerifyOptions,
    progress: bool,
    out: String,
    dot: Option<String>,
    steps: usize,
    seed: u64,
    fuzz: FuzzOptions,
    self_test: bool,
    telemetry: Telemetry,
}

/// What a command line asks for: help on a command (or on all), or a run.
enum Parsed {
    Help(Option<Cmd>),
    Run(Box<Args>),
}

/// One pass over `argv`: `-h`/`--help` anywhere asks for help; every flag
/// takes `--flag value` or `--flag=value` in any position; the words left
/// are the command and its protocol.
fn parse(argv: &[String]) -> Result<Parsed, String> {
    let command = |w: &str| COMMANDS.iter().find(|c| c.1 == w).map(|c| c.0);
    if argv.iter().any(|w| w == "-h" || w == "--help") {
        return Ok(Parsed::Help(argv.iter().find_map(|w| command(w))));
    }
    let mut a = Args {
        cmd: Cmd::Verify,
        protocol: "",
        params: Params::new(2, 1, 2),
        search: VerifyOptions::new().max_states(2_000_000),
        progress: false,
        out: "trace.json".into(),
        dot: None,
        steps: 100,
        seed: 0,
        fuzz: FuzzOptions {
            seed: 42,
            cases: 200,
            ..FuzzOptions::default()
        },
        self_test: true,
        telemetry: Telemetry::Off,
    };
    let (mut words, mut given) = (Vec::new(), Vec::new());
    let mut it = argv.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if arg.len() < 2 || !arg.starts_with('-') {
            words.push(arg);
            continue;
        }
        let (name, inline) = arg
            .split_once('=')
            .map_or((arg, None), |(n, v)| (n, Some(v)));
        let f = FLAGS
            .iter()
            .find(|f| f.0 == name)
            .ok_or_else(|| format!("unknown flag `{name}` (see `scv --help`)"))?;
        let v = match (f.3, inline) {
            (Switch(_), _) | (_, Some(_)) => inline.unwrap_or_default(),
            _ => it
                .next()
                .ok_or_else(|| format!("{name} needs a value: {}", f.1))?,
        };
        let ok = match f.3 {
            Switch(set) => inline.is_none().then(|| set(&mut a)).is_some(),
            Int(lo, hi, set) => {
                let n = v.parse().ok().filter(|n| (lo..=hi).contains(n));
                n.map(|n| set(&mut a, n)).is_some()
            }
            Secs(set) => {
                let d = v.parse().ok().map(Duration::try_from_secs_f64);
                let d = d.and_then(Result::ok).filter(|d| *d <= MAX_WAIT);
                d.map(|d| set(&mut a, d)).is_some()
            }
            Text(set) => set(&mut a, v),
        };
        if !ok {
            return Err(format!("{name} takes {}, got `{v}`", accepts(f)));
        }
        if a.telemetry == Telemetry::Jsonl(String::new()) {
            let path = it.next().ok_or("--telemetry jsonl needs a PATH")?;
            a.telemetry = Telemetry::Jsonl(path.into());
        }
        given.push(f);
    }
    // With telemetry requested the command may be left out: it is `verify`.
    if a.telemetry != Telemetry::Off && words.first().is_some_and(|w| command(w).is_none()) {
        words.insert(0, "verify");
    }
    let mut words = words.into_iter();
    let name = words.next().ok_or("no command (see `scv --help`)")?;
    a.cmd = command(name).ok_or_else(|| format!("unknown command `{name}` (see `scv --help`)"))?;
    if PROTO.contains(&a.cmd) {
        let proto = words
            .next()
            .ok_or(format!("`scv {name}` needs a protocol (see `scv list`)"))?;
        a.protocol = PROTOCOLS
            .iter()
            .find(|p| p.0 == proto)
            .ok_or_else(|| format!("unknown protocol `{proto}` (see `scv list`)"))?
            .0;
    }
    if let Some(extra) = words.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    if let Some((flag, ..)) = given.iter().find(|f| !f.2.contains(&a.cmd)) {
        return Err(format!(
            "`scv {name}` takes no {flag} (see `scv {name} --help`)"
        ));
    }
    Ok(Parsed::Run(Box::new(a)))
}

/// Usage for one command, or for all of them, printed from the tables.
fn help(cmd: Option<Cmd>) -> String {
    let shown = |cmds: &[Cmd]| cmd.is_none_or(|c| cmds.contains(&c));
    let mut s = String::from("usage: scv <command> [<protocol>] [flags]\n\ncommands:\n");
    for (c, name, about) in COMMANDS {
        let operand = if PROTO.contains(c) { " <protocol>" } else { "" };
        s += &format!("  {:<20}{about}\n", format!("{name}{operand}"));
    }
    if shown(PROTO) {
        let names: Vec<&str> = PROTOCOLS.iter().map(|p| p.0).collect();
        s += &format!("\nprotocols (`scv list`): {}\n", names.join(", "));
    }
    s += "\nflags (also as --flag=value; `scv <command> --help` lists one command's):\n";
    for f @ (name, value, _, kind, about) in FLAGS.iter().filter(|f| shown(f.2)) {
        let range = match kind {
            Int(_, ANY, _) | Switch(_) | Text(_) => String::new(),
            Int(..) | Secs(_) => format!("; {}", accepts(f)),
        };
        s += &format!("  {:<36}{about}{range}\n", format!("{name} {value}"));
    }
    s += &format!("  {:<36}print this help\n", "-h, --help");
    s + "\nexit codes: 0 verified or done, 1 violation or failed check, 2 usage or I/O error, \
         3 inconclusive\n"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&argv) {
        Ok(Parsed::Run(a)) => a,
        Ok(Parsed::Help(cmd)) => {
            print!("{}", help(cmd));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The progress ticker and the flight recorder's counter tracks read
    // the metrics registry, whose counters only advance while telemetry
    // is enabled — so `--progress` and `scv trace` without an explicit
    // sink get a NoopSink (enabled pipeline, no output).
    match &a.telemetry {
        Telemetry::Off if a.progress || a.cmd == Cmd::Trace => {
            telemetry::install(Box::new(telemetry::NoopSink))
        }
        Telemetry::Off => {}
        Telemetry::Summary => telemetry::install(Box::new(telemetry::SummarySink::default())),
        Telemetry::Jsonl(path) => match telemetry::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => telemetry::install(Box::new(sink)),
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                return ExitCode::from(2);
            }
        },
    }
    if a.search.checkpoint_every.is_some() && a.search.checkpoint_path.is_none() {
        eprintln!("warning: --checkpoint-every has no effect without --checkpoint PATH");
    }
    let code = match a.cmd {
        Cmd::Fuzz => run_fuzz_cmd(&a),
        Cmd::List => {
            for (name, about) in PROTOCOLS {
                println!("{name:<12} {about}");
            }
            ExitCode::SUCCESS
        }
        _ => dispatch(a.protocol, &a).expect("the parser admits only zoo protocols"),
    };
    telemetry::shutdown(); // flushes aggregates to the sink
    code
}

/// `scv fuzz`: a seeded, budgeted differential-fuzzing campaign over the
/// generated protocol family, plus the fault-injection self-test.
fn run_fuzz_cmd(a: &Args) -> ExitCode {
    let o = &a.fuzz;
    let budget = o.budget.map(|b| format!(", budget {}s", b.as_secs()));
    let (budget, runs) = (budget.unwrap_or_default(), o.runs_per_case);
    println!(
        "fuzzing: seed {}, {} cases{budget}, {runs} runs/case, mc every {} case(s)…",
        o.seed, o.cases, o.mc_every
    );
    let report = run_fuzz(o);
    let exhausted = report.budget_exhausted.then_some(" [budget exhausted]");
    let exhausted = exhausted.unwrap_or_default();
    let (checked, mc_runs, mc_bounded) = (report.runs_checked, report.mc_runs, report.mc_bounded);
    println!(
        "ran {} cases ({} SC, {} mutated){exhausted}: {checked} runs through the oracle stack, \
         {mc_runs} mc matrix runs ({mc_bounded} bounded)",
        report.cases, report.sc_cases, report.mutated_cases
    );
    let (flagged, mutated) = (report.bugs_flagged, report.mutated_cases);
    println!("injected bugs flagged: {flagged}/{mutated}");
    for d in &report.disagreements {
        let (case, config, disagreement) = (d.case, &d.config, &d.disagreement);
        println!("DISAGREEMENT (case {case}, {config}): {disagreement}");
        if let Some(shrunk) = &d.shrunk {
            let (len, name) = (shrunk.actions.len(), &shrunk.name);
            println!("  shrunk to {len} actions as `{name}`");
        }
    }
    let mut ok = report.ok();
    if a.self_test {
        match fault_injection_self_test(o.seed) {
            Ok(case) => println!(
                "self-test: synthetic disagreement shrunk to {} actions and replayed from the corpus format",
                case.actions.len()
            ),
            Err(e) => {
                println!("SELF-TEST FAILED: {e}");
                ok = false;
            }
        }
    }
    if ok {
        println!("fuzzing clean: all oracles agreed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The search that `verify`, `trace` and `explain` share: print the run
/// header, run the verifier under the progress ticker, and exit 2 on a
/// checkpoint error.
fn search<P>(p: P, a: &Args) -> Outcome
where
    P: Symmetry + Sync,
    P::State: Send + Sync + 'static,
{
    let Params { p: procs, b, v } = a.params;
    let (name, params) = (p.name(), format!("p={procs}, b={b}, v={v}"));
    let (threads, cap) = (a.search.threads, a.search.bfs.max_states);
    match a.cmd {
        Cmd::Verify => println!(
            "verifying {name} ({params}, L={}) with {threads} thread(s), cap {cap} states…",
            p.locations()
        ),
        Cmd::Trace => println!(
            "tracing {name} ({params}) with {threads} thread(s), cap {cap} states → {}",
            a.out
        ),
        _ => println!("searching {name} ({params}) for an SC violation, cap {cap} states…"),
    }
    if a.cmd != Cmd::Explain {
        println!("{}", symmetry_note(&p, a.search.symmetry));
    }
    let ticker = a.progress.then(|| {
        telemetry::start_progress(telemetry::ProgressOptions {
            target_states: Some(cap as u64),
            ..Default::default()
        })
    });
    let run = Verifier::with_options(p, a.search.clone()).run_controlled();
    drop(ticker); // stops the ticker
    run.unwrap_or_else(|e| {
        eprintln!("error: checkpoint: {e}");
        telemetry::shutdown();
        std::process::exit(2)
    })
}

/// `(states, transitions, depth, elapsed)` as the verdict lines print them.
fn counts(s: &McStats) -> String {
    let (n, m, depth, t) = (s.states, s.transitions, s.depth, s.elapsed);
    format!("({n} states, {m} transitions, depth {depth}, {t:?})")
}

/// Run a protocol command on the protocol `dispatch` built.
fn run_on<P>(p: P, a: &Args) -> ExitCode
where
    P: Symmetry + Clone + Sync,
    P::State: Send + Sync + 'static,
{
    match a.cmd {
        Cmd::Verify => {
            if telemetry::enabled() {
                telemetry::event(telemetry::Event::RunStart {
                    name: format!("verify/{}", p.name()),
                    params: vec![
                        ("p".into(), a.params.p.to_string()),
                        ("b".into(), a.params.b.to_string()),
                        ("v".into(), a.params.v.to_string()),
                        ("threads".into(), a.search.threads.to_string()),
                        ("max_states".into(), a.search.bfs.max_states.to_string()),
                        ("symmetry".into(), format!("{:?}", a.search.symmetry)),
                    ],
                });
            }
            // The facade owns the RunReport (params, verdict, metrics), so
            // the CLI only adds the RunStart event and the summary lines.
            let out = search(p, a);
            let s = out.stats();
            match out {
                Outcome::Verified { .. } => {
                    let bound = collision_bound_note(s.states);
                    println!("VERIFIED: sequentially consistent {}; {bound}", counts(&s));
                    ExitCode::SUCCESS
                }
                Outcome::Violation {
                    run, trace, reason, ..
                } => {
                    println!("NOT VERIFIED: {reason}");
                    println!("violating run ({} actions):", run.len());
                    for action in &run {
                        println!("  {action}");
                    }
                    println!("trace: {trace}");
                    println!(
                        "independent SC check of the trace: {}",
                        if has_serial_reordering(&trace) {
                            "has a serial reordering (protocol is outside Γ for this generator)"
                        } else {
                            "NO serial reordering — genuine SC violation"
                        }
                    );
                    ExitCode::FAILURE
                }
                Outcome::Bounded { .. } => {
                    println!(
                        "INCONCLUSIVE: state cap reached ({} states); raise --max-states",
                        s.states
                    );
                    ExitCode::from(3)
                }
                Outcome::Inconclusive {
                    reason, coverage, ..
                } => {
                    println!("INCONCLUSIVE: interrupted by {reason} ({coverage})");
                    match &a.search.checkpoint_path {
                        Some(path) => println!(
                            "checkpoint written; resume with: scv verify {} --resume {}",
                            a.protocol,
                            path.display()
                        ),
                        None => println!(
                            "no checkpoint was requested; pass --checkpoint PATH to make \
                             interrupted runs resumable"
                        ),
                    }
                    ExitCode::from(3)
                }
            }
        }
        Cmd::Trace => {
            telemetry::recorder::recorder_start(telemetry::DEFAULT_RING_CAPACITY);
            let out = search(p, a);
            telemetry::recorder::recorder_stop();
            let timelines = telemetry::recorder::drain();
            let out_path = &a.out;
            if let Err(e) =
                telemetry::write_chrome_trace(std::path::Path::new(out_path), &timelines)
            {
                eprintln!("error: cannot write {out_path}: {e}");
                return ExitCode::from(2);
            }
            let events: usize = timelines.iter().map(|t| t.events.len()).sum();
            let dropped: u64 = timelines.iter().map(|t| t.dropped).sum();
            println!(
                "wrote {out_path}: {} track(s), {events} events ({dropped} dropped); \
                 open at https://ui.perfetto.dev or chrome://tracing",
                timelines.len()
            );
            println!("verdict: {} {}", verdict_str(&out), counts(&out.stats()));
            match out {
                // An interrupted search still wrote a useful trace, so an
                // Inconclusive verdict is not a trace-command failure.
                Outcome::Verified { .. }
                | Outcome::Bounded { .. }
                | Outcome::Inconclusive { .. } => ExitCode::SUCCESS,
                Outcome::Violation { .. } => ExitCode::FAILURE,
            }
        }
        Cmd::Explain => {
            let out = search(p.clone(), a);
            let states = out.stats().states;
            match out {
                Outcome::Violation { run, .. } => match explain_violation(&p, &run) {
                    Ok(ex) => {
                        print!("{}", ex.narration);
                        match &a.dot {
                            Some(path) => {
                                if let Err(e) = std::fs::write(path, &ex.dot) {
                                    eprintln!("error: cannot write {path}: {e}");
                                    return ExitCode::from(2);
                                }
                                println!(
                                    "constraint graph written to {path} \
                                     (render with: dot -Tsvg {path})"
                                );
                            }
                            None => println!("\n{}", ex.dot),
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: cannot explain the violating run: {e}");
                        ExitCode::FAILURE
                    }
                },
                Outcome::Verified { .. } => {
                    println!("nothing to explain: protocol verified ({states} states)");
                    ExitCode::FAILURE
                }
                Outcome::Bounded { .. } => {
                    println!(
                        "nothing to explain: no violation within {states} states; raise --max-states"
                    );
                    ExitCode::from(3)
                }
                Outcome::Inconclusive {
                    reason, coverage, ..
                } => {
                    println!("nothing to explain: interrupted by {reason} ({coverage})");
                    ExitCode::from(3)
                }
            }
        }
        Cmd::Observe => {
            let mut rng = SmallRng::seed_from_u64(a.seed);
            let mut runner = Runner::new(p.clone());
            runner.run_random(a.steps, 0.5, &mut rng);
            let run = runner.into_run();
            let (name, steps, ops) = (p.name(), run.len(), run.trace().len());
            println!("run of {name} ({steps} steps, {ops} memory ops):");
            for s in &run.steps {
                println!("  {}", s.action);
            }
            let d = Observer::observe_run(&p, &run);
            println!("\ndescriptor (k = {}):", d.k);
            println!("{d}");
            println!("\nchecker verdict: {:?}", ScChecker::check(&d));
            ExitCode::SUCCESS
        }
        Cmd::Monitor => {
            let mut rng = SmallRng::seed_from_u64(a.seed);
            let mut runner = Runner::new(p.clone());
            let mut monitor = RunMonitor::new(&p);
            for i in 0..a.steps {
                if !runner.step_random(&mut rng) {
                    break;
                }
                let step = runner.run().steps.last().expect("just stepped");
                if let MonitorStep::Violation(e) = monitor.feed(step) {
                    println!("violation at step {i}: {e}");
                    println!("run so far: {}", runner.run().trace());
                    return ExitCode::FAILURE;
                }
            }
            match monitor.finish() {
                Ok(()) => {
                    let steps = runner.run().len();
                    println!("run of {steps} steps is consistent with sequential consistency");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    println!("violation at end of run: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Cmd::Fuzz | Cmd::List => unreachable!("`{:?}` takes no protocol", a.cmd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// Random argument vectors drawn from the tables plus unknown names,
    /// help requests, missing values and hostile numbers: parsing returns
    /// help, an error, or arguments inside every flag's range.
    #[test]
    fn random_argv_parses_to_help_error_or_in_range_args() {
        let mut values: Vec<String> = ["0", "1", "2", "256", "300", "-1", "0.5", "1e300", "NaN"]
            .iter()
            .chain(&[
                "inf",
                "",
                "abc",
                "off",
                "full-enum",
                "summary",
                "jsonl",
                "jsonl=x.jsonl",
            ])
            .map(|w| w.to_string())
            .collect();
        values.push(u64::MAX.to_string());
        values.push((MAX_WAIT.as_secs() + 1).to_string());
        for (_, _, _, kind, _) in FLAGS {
            if let Int(lo, hi, _) = kind {
                let bounds = [*lo, hi.saturating_add(1), *hi, lo.wrapping_sub(1)];
                values.extend(bounds.iter().map(|n| n.to_string()));
            }
        }
        let names: Vec<&str> = FLAGS.iter().map(|f| f.0).collect();
        let stray = [
            "bogus", "--bogus", "-x", "-", "--help", "-h", "msi", "verify",
        ];
        let mut rng = SmallRng::seed_from_u64(0x5c5);
        let (mut helps, mut errors, mut runs) = (0, 0, 0);
        for _ in 0..20_000 {
            let mut argv = Vec::new();
            if rng.gen_bool(0.9) {
                argv.push(COMMANDS.choose(&mut rng).unwrap().1.to_string());
            }
            if rng.gen_bool(0.9) {
                argv.push(PROTOCOLS.choose(&mut rng).unwrap().0.to_string());
            }
            for _ in 0..rng.gen_range(0..5usize) {
                let name = names.choose(&mut rng).unwrap();
                let value = values.choose(&mut rng).unwrap();
                match rng.gen_range(0..8u8) {
                    0 => argv.push(stray.choose(&mut rng).unwrap().to_string()),
                    1 => argv.push(format!("{name}={value}")),
                    2 => argv.push(name.to_string()), // a switch, or a missing value
                    _ => argv.extend([name.to_string(), value.clone()]),
                }
            }
            let parsed = std::panic::catch_unwind(|| parse(&argv))
                .unwrap_or_else(|_| panic!("parse panicked on {argv:?}"));
            match parsed {
                Ok(Parsed::Help(_)) => helps += 1,
                Err(e) => {
                    assert!(!e.is_empty(), "{argv:?}");
                    errors += 1;
                }
                Ok(Parsed::Run(a)) => {
                    runs += 1;
                    let Params { p, b, v } = a.params;
                    let bounded = [(p, MAX_P), (b, MAX_BV), (v, MAX_BV)];
                    assert!(bounded.iter().all(|&(n, hi)| (1..=hi).contains(&n.into())));
                    assert!(a.search.threads <= MAX_THREADS as usize, "{argv:?}");
                    assert!(a.search.batch_size <= 1 << 20, "{argv:?}");
                    assert!(a.steps as u64 <= MAX_STEPS && a.fuzz.run_len as u64 <= MAX_STEPS);
                    let waits = [
                        a.search.budget.deadline,
                        a.search.checkpoint_every,
                        a.fuzz.budget,
                    ];
                    assert!(waits.iter().flatten().all(|d| *d <= MAX_WAIT), "{argv:?}");
                    assert_eq!(PROTO.contains(&a.cmd), !a.protocol.is_empty(), "{argv:?}");
                    assert!(a.telemetry != Telemetry::Jsonl(String::new()), "{argv:?}");
                }
            }
        }
        assert!(
            helps > 1000 && errors > 1000 && runs > 1000,
            "{helps}/{errors}/{runs}"
        );
    }

    #[test]
    fn out_of_range_values_name_the_flag_and_its_range() {
        for (line, want) in [
            (
                "verify serial -p 0",
                "-p takes an integer in [1, 8], got `0`",
            ),
            (
                "verify msi -p 20 -b 20",
                "-p takes an integer in [1, 8], got `20`",
            ),
            (
                "verify directory -b=11",
                "-b takes an integer in [1, 10], got `11`",
            ),
            (
                "verify serial -v 255",
                "-v takes an integer in [1, 10], got `255`",
            ),
            (
                "verify serial --timeout 1e300",
                "--timeout takes seconds in [0, 31536000]",
            ),
            (
                "verify serial --threads 65",
                "--threads takes an integer in [0, 64]",
            ),
            (
                "observe msi --threads 2",
                "`scv observe` takes no --threads",
            ),
            ("verify msi --symmetry", "--symmetry needs a value"),
            ("list msi", "unexpected argument `msi`"),
        ] {
            match parse(&argv(&line.split(' ').collect::<Vec<_>>())) {
                Err(e) => assert!(e.contains(want), "{line}: {e}"),
                Ok(_) => panic!("{line} parsed"),
            }
        }
    }

    #[test]
    fn flags_take_either_spelling_in_any_position() {
        let words = [
            "--telemetry=jsonl",
            "run.jsonl",
            "-p=3",
            "msi",
            "--symmetry",
            "full",
            "-v",
            "1",
        ];
        let Ok(Parsed::Run(a)) = parse(&argv(&words)) else {
            panic!("{words:?} did not parse");
        };
        assert_eq!((a.cmd, a.protocol), (Cmd::Verify, "msi"));
        assert_eq!((a.params.p, a.params.b, a.params.v), (3, 1, 1));
        assert_eq!(a.search.symmetry, SymmetryMode::Full);
        assert_eq!(a.telemetry, Telemetry::Jsonl("run.jsonl".into()));
    }

    /// `--help` anywhere wins over any error; the help text names every
    /// command and, for one command, exactly the flags it takes.
    #[test]
    fn help_is_printed_from_the_tables() {
        for words in [&["--help"][..], &["-h", "-p", "0"], &["bogus", "--help"]] {
            assert!(
                matches!(parse(&argv(words)), Ok(Parsed::Help(None))),
                "{words:?}"
            );
        }
        let all = help(None);
        for &(c, name, _) in COMMANDS {
            assert!(all.contains(name));
            let Ok(Parsed::Help(Some(got))) = parse(&argv(&[name, "--out", "--help"])) else {
                panic!("`{name} --help` is not help");
            };
            assert_eq!(got, c);
            let one = help(Some(c));
            for f in FLAGS {
                assert!(all.contains(f.0), "{}", f.0);
                assert_eq!(
                    one.contains(&format!("  {} ", f.0)),
                    f.2.contains(&c),
                    "{name} {}",
                    f.0
                );
            }
        }
    }

    /// `list` prints `PROTOCOLS`, and `dispatch` builds exactly those: every
    /// row runs, and near misses (the protocols' own long names among
    /// them) are refused by both the parser and `dispatch`.
    #[test]
    fn list_names_exactly_the_protocols_dispatch_accepts() {
        for (name, _) in PROTOCOLS {
            let Ok(Parsed::Run(a)) = parse(&argv(&["observe", name, "--steps", "0"])) else {
                panic!("`{name}` does not parse");
            };
            assert_eq!(dispatch(name, &a), Some(ExitCode::SUCCESS), "{name}");
        }
        let Ok(Parsed::Run(a)) = parse(&argv(&["observe", "serial", "--steps", "0"])) else {
            panic!("observe serial does not parse");
        };
        let misses = ["", "bogus", "MSI", "msi ", "serial-memory", "lazy-caching"];
        for name in misses
            .iter()
            .chain(&["store-buffer-tso", "fig4-get-shared", "list"])
        {
            assert!(parse(&argv(&["verify", name])).is_err(), "{name}");
            assert_eq!(dispatch(name, &a), None, "{name}");
        }
    }
}
