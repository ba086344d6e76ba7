"""Run the benchmark in alternating parent/change pairs and summarize them.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seed S --pairs N

Each tree is a checkout holding BENCHMARK.json and perfbench/. Pair i runs
the benchmark command of PARENT_TREE's BENCHMARK.json with --trace 0 and
its run_seconds, in both trees, one after the other: the parent first in
pairs 1, 3, 5, ..., the change first in the others. Every run reads the
result from the last JSON line it prints and its output digest from its
report in the tree's .perfbench_out/.

The summary gives, for each end-to-end metric of BENCHMARK.json, each
side's median and quartiles (statistics.quantiles, inclusive method), the
pairs the change wins by the metric's "better" direction (ties count for
neither side), the parent's interquartile range, and whether the medians
differ by more than it in the better direction. A gain holds where the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's IQR. It also applies the no-regression test to
each metric: "yes" where the change's median is worse than the parent's by
more than the metric's "bound" times the parent's median, "no" where it is
not, and "unresolved" where the parent's IQR exceeds that same share of
its median, so the runs spread too widely to tell, unless every run of
the change is better than every run of the parent. The summary also says
in how many pairs the two digests are equal. The script exits 1 if any run
is not correct, whatever the other findings.

Before the first pair the script byte-compiles each tree's src/, so that
neither side's workers recompile the package from stale or missing .pyc
files when PYTHONDONTWRITEBYTECODE is set.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600


def run_once(tree: Path, bench: dict, workload: str, seed: int) -> dict:
    """One --trace 0 run in tree: its correct flag, metric values and digest."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {tree}: the run printed no result (exit {proc.returncode})") from None
    report = tree / ".perfbench_out" / f"report-{workload}-seed{seed}-trace0.json"
    digest = json.loads(report.read_text(encoding="utf-8"))["worker"]["digest"]
    return {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": digest,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """The summary of (parent run, change run) pairs over the metrics of
    BENCHMARK.json's end_to_end list."""
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        old = [p["metrics"][name] for p, _ in pairs]
        new = [c["metrics"][name] for _, c in pairs]
        old_q, new_q = quartiles(old), quartiles(new)
        iqr = old_q[2] - old_q[0]
        allowed = spec["bound"] * abs(old_q[1])
        if iqr > allowed and not all(sign * (c - p) > 0 for c in new for p in old):
            worse = "unresolved"
        else:
            worse = "yes" if sign * (old_q[1] - new_q[1]) > allowed else "no"
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": old_q,
            "change": new_q,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(old, new)),
            "losses": sum(sign * (c - p) < 0 for p, c in zip(old, new)),
            "parent_iqr": iqr,
            "beyond_iqr": sign * (new_q[1] - old_q[1]) > iqr,
            "bound": spec["bound"],
            "worse_beyond_bound": worse,
        })
    return {
        "pairs": len(pairs),
        "metrics": rows,
        "digests_equal": sum(p["digest"] == c["digest"] for p, c in pairs),
        "incorrect_runs": sum(not r["correct"] for pair in pairs for r in pair),
    }


def format_summary(s: dict) -> list[str]:
    n = s["pairs"]
    out = [f"{'metric':12s} {'better':6s} {'parent q1 / median / q3':>32s}"
           f" {'change q1 / median / q3':>32s} {'wins':>7s} {'parent IQR':>10s}  gain"]
    for r in s["metrics"]:
        old = " / ".join(f"{v:.4g}" for v in r["parent"])
        new = " / ".join(f"{v:.4g}" for v in r["change"])
        gain = r["wins"] >= 0.9 * n and r["beyond_iqr"]
        out.append(f"{r['name']:12s} {r['better']:6s} {old:>32s} {new:>32s}"
                   f" {r['wins']:>3d}/{n:<3d} {r['parent_iqr']:10.4g}  {'yes' if gain else 'no'}"
                   f" ({r['losses']} losses; medians differ beyond the IQR: {'yes' if r['beyond_iqr'] else 'no'});"
                   f" worse beyond the {r['bound']:.0%} bound: {r['worse_beyond_bound']}")
    out.append(f"digests equal in {s['digests_equal']} of {n} pairs")
    out.append(f"runs not correct: {s['incorrect_runs']} of {2 * n}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"bench_pairs {args.workload} seed={args.seed} seconds={bench['run_seconds']} pairs={args.pairs}")
    for tree in trees.values():
        compileall.compile_dir(tree / "src", quiet=1)
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(trees[side], bench, args.workload, args.seed) for side in order}
        pairs.append((runs["parent"], runs["change"]))
        values = ", ".join(
            f"{m['name']} {runs['parent']['metrics'][m['name']]:.6g} -> {runs['change']['metrics'][m['name']]:.6g}"
            for m in bench["end_to_end"]
        )
        same = runs["parent"]["digest"] == runs["change"]["digest"]
        print(f"pair {i + 1} ({order[0]} first): {values};"
              f" digests {'equal' if same else 'DIFFER'} ({runs['parent']['digest'][:16]})", flush=True)
    summary = summarize(bench["end_to_end"], pairs)
    print("\n".join(format_summary(summary)))
    return 1 if summary["incorrect_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
