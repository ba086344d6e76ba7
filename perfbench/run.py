"""earlkit benchmark: the fit_cv, sim_grid and permtest workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_cv --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in its own worker process with BLAS pinned to one
thread, importing earlkit from the checkout's ``src``. With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json; ``setup_s`` is
the median over several worker processes. Their times are scaled to a
nominal host speed by the speed probe of ``speed.py``, which keeps the
host's drift out of them. With ``--trace 1`` it reports
the per-layer metrics instead. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full report goes to
``.perfbench_out/``. ``--smoke`` is the benchmark's self-test: each
workload for its minimum number of ops, twice with the same seed and once
traced, checking metric names and units and that value_regret, error_rate
and the output digests repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fit_cv", "sim_grid", "permtest")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run ends, with its children, within this many seconds
E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("EARL_SEED", None)  # the CLI default seed must be 0
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode: str, workload: str, seed: int, seconds: float, workdir: Path,
            deadline: float, spans_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--workdir", str(workdir), "--src", str(SRC)]
    if spans_file is not None:
        cmd += ["--spans", str(spans_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "earlkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _units(bench: dict, trace: bool) -> tuple[dict[str, str], list[str]]:
    """The units of the metrics this mode emits, and any mismatch with BENCHMARK.json."""
    units = {n: u for n, (u, _) in spans.metric_units().items()} if trace else E2E_UNITS
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    problems = [
        f"metric {n}: BENCHMARK.json declares unit {declared.get(n)!r}, the benchmark emits {units.get(n)!r}"
        for n in sorted(set(units) | set(declared))
        if units.get(n) != declared.get(n)
    ]
    return units, problems


def run_workload(bench: dict, workload: str, seed: int, seconds: float, trace: bool,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return its full report."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    load_before = os.getloadavg()
    try:
        setups = []
        if not trace:
            for _ in range(setup_samples - 1):
                setups.append(_worker("setup", workload, seed, 0, workdir, deadline))
        mode = "trace" if trace else "run"
        spans_file = OUT / f"spans-{tag}.csv" if trace else None
        res = _worker(mode, workload, seed, seconds, workdir, deadline, spans_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)
    samples = [r["setup_s"] for r in setups]

    problems = list(res["problems"]) + [f"failed op: {f}" for f in res["failures"]]
    if trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(samples),
            "ops_per_s": res["ops_per_s"],
            "op_p50_s": res["op_p50_s"],
            "op_tail_s": res["op_tail_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units, mismatches = _units(bench, trace)
    problems += mismatches
    metrics = {}
    for name, unit in units.items():
        v = values.get(name)
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            problems.append(f"metric {name} has no finite value ({v!r})")
            v = 0.0
        metrics[name] = {"value": v, "unit": unit}
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": res["failed"] == 0 and not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"] if res["attempted"] else 1.0,
        "value_regret": res.get("value_regret"),
        "metrics": metrics,
        "problems": problems,
        "setup_samples_s": samples,
        "setup_wall_samples_s": [r["setup_wall_s"] for r in setups],
        "env": dict(
            res["env"],
            nproc=os.cpu_count(),
            cpus_usable=len(os.sched_getaffinity(0)),
            git_sha=_git_sha(),
            source_sha256=_source_sha256(),
            seed=seed,
            loadavg_run={"before": load_before, "after": os.getloadavg()},
            loadavg_worker=res["loadavg"],
        ),
        "criterion_8": res["criterion_8"],
        "worker": {k: v for k, v in res.items() if k not in ("env", "criterion_8", "layers", "problems")},
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def _print_report(r: dict) -> None:
    w = r["worker"]
    print(f"perfbench {r['workload']} seed={r['seed']} seconds={r['seconds']} trace={r['trace']}")
    for name, m in r["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':48s} {r['error_rate']:.6g} ratio ({r['failed']} failed of {r['attempted']} ops)")
    if r["value_regret"] is not None:
        print(f"  {'value_regret':48s} {r['value_regret']:.6g} outcome (mean over {w['regret_ops']} ops)")
    if r["trace"]:
        acc = w["accounting"]
        print(f"  traced op wall {acc['op_wall_s']:.6g} s = layer self {acc['layer_self_s']:.6g} s"
              f" + unaccounted {acc['unaccounted_s']:.6g} s (residual {acc['residual_s']:.3g} s)")
        print(f"  ops/s untraced {w['untraced']['ops_per_s']:.6g}, traced {w['traced']['ops_per_s']:.6g}")
    else:
        print(f"  op_tail_s is p{w['op_tail_percentile']} of {w['op_count']} ops;"
              f" output digest {w['digest'][:16]}")
        wall, probe = w["wall"], w["probe"]
        print(f"  unscaled wall times: ops_per_s {wall['ops_per_s']:.6g}, op_p50_s {wall['op_p50_s']:.6g},"
              f" op_tail_s {wall['op_tail_s']:.6g}; speed probe median {probe['median_s']:.6g} s"
              f" (nominal {probe['nominal_s']:.6g} s) over {probe['count']} probes")
    env = r["env"]
    print(f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
          f" blas={env['blas']} {env['blas_version']} threads={env['blas_threads']}"
          f" git={env['git_sha']} loadavg {env['loadavg_run']['before'][0]:.2f}"
          f" -> {env['loadavg_run']['after'][0]:.2f}")
    c8 = ", ".join(f"{k} {v:.4f}" for k, v in r["criterion_8"].items())
    print(f"  criterion 8 sign agreement (informational, bar 0.95): {c8}")
    for p in r["problems"][:10]:
        print(f"  PROBLEM: {p}")


def _result_line(r: dict) -> str:
    return json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": r["metrics"]})


def smoke(bench: dict, seed: int) -> int:
    ok = True
    for workload in WORKLOADS:
        a, b = (run_workload(bench, workload, seed, 0, False, setup_samples=1) for _ in range(2))
        t = run_workload(bench, workload, seed, 0, True)
        for r in (a, b, t):
            _print_report(r)
        same = {
            key: pick(a) == pick(b)
            for key, pick in {
                "value_regret": lambda r: r["value_regret"],
                "error_rate": lambda r: r["error_rate"],
                "digest": lambda r: r["worker"]["digest"],
                "criterion_8": lambda r: r["criterion_8"],
            }.items()
        }
        passed = a["correct"] and b["correct"] and t["correct"] and all(same.values())
        ok &= passed
        print(f"smoke {workload}: {'ok' if passed else 'FAILED'} (repeats exactly: {same})")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="earlkit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (SRC / "earlkit" / "__init__.py").is_file():
        print(f"error: no earlkit source under {SRC}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(bench, args.seed)
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        report = run_workload(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    print(_result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
