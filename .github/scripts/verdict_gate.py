#!/usr/bin/env python3
"""Time-to-verdict regression gate: a change against its parent commit.

    verdict_gate.py run PARENT_DIR CHANGE_DIR OUT_DIR
    verdict_gate.py selftest

`run` times every workload of BENCHMARK.json with `verdictbench --trace 0`
in both checkouts on the same machine: PAIRS pairs of runs per workload,
each `run_seconds` (from BENCHMARK.json) long, alternating which side runs
first. Every run's output is kept in OUT_DIR. The command, the workloads,
the run length and the bounds come from the parent's BENCHMARK.json.

The gate only compares like with like. If the change edits BENCHMARK.json,
a file under its `paths` (the benchmark's own sources) or this script
(when the parent has it), the two sides would be timed on different
yardsticks, so `run` stops with "benchmark changed: not comparable" and
exit 1 before timing anything.

On any workload, an end-to-end metric FAILs when its change median is
worse than its parent median by more than the metric's bound, unless the
parent's own interquartile range (relative to its median) already exceeds
that bound. Then the metric is "unresolved" and does not fail, unless
every change run is worse than every parent run. Any change run with
`failed` > 0 fails the gate. Exit 0 = pass, 1 = fail, 2 = bad input.

`selftest` feeds the comparison synthetic runs and checks its results:
identical sides pass, a 1.3x `verdict_s` on one workload fails, a change
run with `failed: 1` fails, and against a noisy parent a 1.3x median
passes as unresolved, while a 1.5x median with every change run slower
than every parent run fails.
"""

import filecmp
import json
import os
import statistics
import subprocess
import sys

PAIRS = 3
SEED = 1
GATE_SCRIPT = os.path.join(".github", "scripts", "verdict_gate.py")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def tree(root, rel):
    """Files under root/rel (relative paths), skipping cargo `target` dirs."""
    path = os.path.join(root, rel)
    if os.path.isfile(path):
        return {rel}
    files = set()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = [d for d in dirnames if d != "target"]
        files.update(os.path.relpath(os.path.join(dirpath, f), root) for f in filenames)
    return files


def changed_yardstick(bench, parent_dir, change_dir):
    """Files of the benchmark that differ between the two checkouts."""
    rels = bench["paths"] + ["BENCHMARK.json"]
    if os.path.exists(os.path.join(parent_dir, GATE_SCRIPT)):
        rels.append(GATE_SCRIPT)
    diff = []
    for rel in rels:
        p, c = tree(parent_dir, rel), tree(change_dir, rel)
        diff += sorted(p ^ c)
        diff += [f for f in sorted(p & c)
                 if not filecmp.cmp(os.path.join(parent_dir, f), os.path.join(change_dir, f), shallow=False)]
    return diff


def worse_by(better, parent, change):
    """Relative move of `change` from `parent`, positive when worse."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def compare(bench, parent, change):
    """Print the comparison table; return 0 (pass) or 1 (fail).

    `parent` and `change` map a workload name to its runs, each a
    verdictbench result line."""
    bad = unresolved = 0
    print(f"{'workload':<10} {'metric':<12} {'parent':>12} {'change':>12} {'delta':>8} {'p.iqr':>7} {'bound':>6}")
    for w in (w["name"] for w in bench["workloads"]):
        p_runs, c_runs = parent.get(w, []), change.get(w, [])
        if not p_runs or not c_runs:
            print(f"{w:<10} FAIL: {len(p_runs)} parent and {len(c_runs)} change runs")
            bad += 1
            continue
        failed = [r["failed"] for r in c_runs]
        if any(failed):
            print(f"{w:<10} FAIL: change runs report failed = {failed}")
            bad += 1
        if any(r["failed"] for r in p_runs):
            print(f"{w:<10} note: parent runs report failed = {[r['failed'] for r in p_runs]}")
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            ps = [r["metrics"][name]["value"] for r in p_runs]
            cs = [r["metrics"][name]["value"] for r in c_runs]
            p, c = statistics.median(ps), statistics.median(cs)
            q1, _, q3 = statistics.quantiles(ps, n=4) if len(ps) > 1 else (p, p, p)
            iqr = (q3 - q1) / p if p else 0.0
            status = ""
            if worse_by(better, p, c) > bound:
                separated = min(worse_by(better, pv, cv) for pv in ps for cv in cs) > 0
                if iqr <= bound or separated:
                    status = "  FAIL"
                    bad += 1
                else:
                    status = "  unresolved"
                    unresolved += 1
            delta = f"{(c - p) / p:+.1%}" if p else "n/a"
            print(f"{w:<10} {name:<12} {p:>12.6f} {c:>12.6f} {delta:>8} {iqr:>7.1%} {bound:>6.0%}{status}")
    note = f" ({unresolved} unresolved: parent spread exceeds the bound)" if unresolved else ""
    print("verdict gate:", ("FAIL" if bad else "pass") + note)
    return 1 if bad else 0


def run_side(root, bench, workload, log):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    with open(log, "w") as f:
        f.write(proc.stdout)
        f.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"verdict gate: {' '.join(cmd)} in {root} exited {proc.returncode}; see {log}")
    return json.loads(lines[-1])


def run(parent_dir, change_dir, out_dir):
    bench = load_bench(parent_dir)
    diff = changed_yardstick(bench, parent_dir, change_dir)
    if diff:
        print("verdict gate: benchmark changed: not comparable:", ", ".join(diff))
        return 1
    os.makedirs(out_dir, exist_ok=True)
    sides = [("parent", parent_dir), ("change", change_dir)]
    results = {"parent": {}, "change": {}}
    workloads = [w["name"] for w in bench["workloads"]]
    for pair in range(PAIRS):
        for i, w in enumerate(workloads):
            order = sides if (pair + i) % 2 == 0 else sides[::-1]
            for side, root in order:
                log = os.path.join(out_dir, f"{side}-{w}-{pair}.out")
                r = run_side(root, bench, w, log)
                results[side].setdefault(w, []).append(r)
                print(f"pair {pair} {w:<9} {side:<6} verdict_s={r['metrics']['verdict_s']['value']:.6f} failed={r['failed']}", flush=True)
    return compare(bench, results["parent"], results["change"])


def selftest():
    bench = load_bench(REPO_ROOT)
    workloads = [w["name"] for w in bench["workloads"]]

    def runs(verdict_s=(1.0,) * PAIRS, failed=0):
        out = []
        for v in verdict_s:
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
            metrics["verdict_s"]["value"] = v
            out.append({"correct": failed == 0, "attempted": 4, "failed": failed, "metrics": metrics})
        return out

    def side(**first):
        """Identical runs everywhere, except `first` on the first workload."""
        return {w: runs(**first) if i == 0 and first else runs() for i, w in enumerate(workloads)}

    base, noisy = side(), side(verdict_s=(0.6, 1.0, 1.4))
    cases = [("identical sides", base, base, 0),
             (f"verdict_s x1.3 on {workloads[0]}", base, side(verdict_s=(1.3,) * PAIRS), 1),
             (f"failed: 1 on {workloads[0]}", base, side(failed=1), 1),
             ("x1.3 median within a noisy parent's spread", noisy, side(verdict_s=(1.2, 1.3, 1.35)), 0),
             ("x1.5 median, every change run slower than every parent run", noisy, side(verdict_s=(1.45, 1.5, 1.6)), 1)]
    ok = True
    for label, parent, change, want in cases:
        got = compare(bench, parent, change)
        print(f"selftest: {label}: exit {got} (want {want})\n")
        ok &= got == want
    return 0 if ok else 1


def main(argv):
    if argv[:1] == ["run"] and len(argv) == 4:
        return run(*argv[1:])
    if argv == ["selftest"]:
        return selftest()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, ValueError, KeyError, statistics.StatisticsError) as e:
        print(f"verdict gate: bad input: {e!r}", file=sys.stderr)
        sys.exit(2)
