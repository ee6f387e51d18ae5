//! The `scv` binary at the edges of its parameter ranges.
//!
//! Every argument vector either runs to a verdict or is refused with exit
//! 2; none panics. The parser's own tests (in `src/bin/scv.rs`) cover
//! random argument vectors without running anything; these run the built
//! binary.

use std::process::Command;

fn scv(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scv"))
        .args(args)
        .output()
        .expect("the scv binary runs");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text.into_owned())
}

const PROTOCOLS: [&str; 9] = [
    "serial",
    "msi",
    "msi-buggy",
    "mesi",
    "mesi-buggy",
    "directory",
    "lazy",
    "tso",
    "fig4",
];

/// Values that used to panic, wrap or run with a silently changed value
/// are refused, and the help requests print usage.
#[test]
fn hostile_values_exit_2_and_help_exits_0() {
    for args in [
        &["verify", "serial", "-p", "0"][..],
        &["verify", "serial", "-p", "300"],
        &["verify", "msi", "-p", "20", "-b", "20"],
        &["verify", "directory", "-p", "9"],
        &["verify", "serial", "-v", "255", "--symmetry", "full"],
        &["verify", "serial", "--timeout", "1e300"],
        &["verify", "serial", "--checkpoint-every", "NaN"],
        &["fuzz", "--run-len", "18446744073709551615"],
    ] {
        let (code, text) = scv(args);
        assert_eq!(code, Some(2), "{args:?}: {text}");
        assert!(text.starts_with("error: "), "{args:?}: {text}");
    }
    for args in [&["--help"][..], &["verify", "--help"], &["-h"]] {
        let (code, text) = scv(args);
        assert_eq!(code, Some(0), "{args:?}: {text}");
        assert!(text.starts_with("usage: scv"), "{args:?}: {text}");
    }
}

/// Every protocol at the smallest and the largest parameters the CLI
/// accepts, under every symmetry mode, sequential and work-stealing, with
/// a 200-state cap: a verdict (exit 0, 1 or 3), never a panic. 144 runs;
/// gated on `SCV_STRESS=1` (about 1 s in a release build, 6 s in debug).
#[test]
fn every_protocol_runs_at_the_parameter_bounds() {
    if std::env::var_os("SCV_STRESS").is_none_or(|v| v != "1") {
        eprintln!("skipping the parameter-bound runs; enable with SCV_STRESS=1");
        return;
    }
    for proto in PROTOCOLS {
        for (p, b, v) in [("1", "1", "1"), ("8", "10", "10")] {
            for sym in ["off", "proc", "full", "full-enum"] {
                for threads in ["1", "2"] {
                    let line = format!(
                        "verify {proto} -p {p} -b {b} -v {v} --symmetry {sym} \
                         --threads {threads} --max-states 200"
                    );
                    let args: Vec<&str> = line.split(' ').collect();
                    let (code, text) = scv(&args);
                    assert!(
                        matches!(code, Some(0 | 1 | 3)),
                        "{args:?} exited {code:?}: {text}"
                    );
                }
            }
        }
    }
}
