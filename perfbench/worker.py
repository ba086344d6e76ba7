"""One benchmark workload in its own process; run.py starts it.

Modes:
  setup  import earlkit and run one untimed warm-up op; report the time,
         scaled to the nominal host speed by speed probes run right after
  run    setup, then the timed closed loop with its checks, the value
         regret of the first calls, and the process's peak RSS; the speed
         probe runs on a timer throughout, and the op times are scaled by it
  trace  setup, then an untraced phase and a traced phase of half the
         time each; reports per-layer metrics and the tracing overhead

Every mode ends with the criterion-8 sign agreement, computed outside the
timed phases. The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def measure(wl, seconds: float, min_calls: int, keep: int, tracer=None, first: int = 0):
    """Closed loop with one caller: each op starts when the previous ends.

    Runs until `seconds` have passed and at least `min_calls` calls were
    made. Input generation and checks happen between ops and are not timed.
    The first `keep` calls keep what the value oracle needs. Returns the
    outcomes and each call's (start, end) on the perf_counter clock.
    """
    from workloads import Outcome

    outcomes, windows = [], []
    start = time.perf_counter()
    k = first
    while len(outcomes) < min_calls or time.perf_counter() - start < seconds:
        inp = wl.make_input(k)
        if tracer is not None:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        err = None
        try:
            raw = wl.op(inp)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            raw, err = None, f"op raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        dt = t1 - t0
        if err is None:
            try:
                out = wl.evaluate(k, inp, raw, dt, keep_oracle=k - first < keep)
            except Exception as exc:  # malformed output fails its check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            n = wl.ops_per_call
            out = Outcome(ops=n, latencies=[dt / n], failures=[err] * n)
        outcomes.append(out)
        windows.append((t0, t1))
        k += 1
    return outcomes, windows


def harrell_davis_median(values) -> float:
    """The Harrell-Davis estimate of the median: a Beta-weighted mean of the
    order statistics. The sample median of a sim_grid run sits in the gap
    between its fast half (earl, qlearning) and slow half (aipwe, owl) of
    records and jumps with the one record on either side; this one weighs
    the records around the middle and spreads less across seeds."""
    import numpy as np
    from scipy.stats import beta

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, (n + 1) / 2, (n + 1) / 2))
    return float(weights @ x)


def summarize(outcomes, windows, factors=None) -> dict:
    """Throughput and latency quantiles, each call's times multiplied by its
    factor (1 when `factors` is None)."""
    factors = factors or [1.0] * len(outcomes)
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    busy = sum((t1 - t0) * f for (t0, t1), f in zip(windows, factors))
    lat = sorted(x * f for o, f in zip(outcomes, factors) for x in o.latencies)
    out = {
        "calls": len(outcomes),
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy,
        "ops_per_s": (attempted - failed) / busy if busy > 0 else 0.0,
        "op_count": len(lat),
        "op_p50_s": harrell_davis_median(lat) if lat else None,
        "op_sample_median_s": statistics.median(lat) if lat else None,
        "op_tail_s": None,
        "op_tail_percentile": None,
        "failures": sorted({f for o in outcomes for f in o.failures})[:10],
        "latencies_s": lat,
    }
    # the highest percentile with at least 10 ops beyond it
    k = len(lat) - 11
    if k >= 0:
        out["op_tail_s"] = lat[k]
        out["op_tail_percentile"] = 100.0 * (k + 1) / len(lat)
    return out


def speed_factors(probe, windows) -> tuple[list[float], list[float]]:
    """Per call: the share of its wall time outside the probe, and that share
    times the host-speed scale around the call (see speed.py)."""
    net, scaled = [], []
    for t0, t1 in windows:
        share = 1.0 - probe.time_within(t0, t1) / (t1 - t0)
        net.append(share)
        scaled.append(share * probe.scale(t0, t1))
    return net, scaled


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    for lib in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    import earlkit

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "earlkit": earlkit.__file__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True, help="the earlkit source directory to import from")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)
    load_before = os.getloadavg()

    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and earlkit

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.warmup()
    setup_wall_s = time.perf_counter() - t0

    import speed

    probe = speed.SpeedProbe()
    probe.sample(speed.MIN_PROBES)
    setup_s = setup_wall_s * probe.scale(probe.starts[0], probe.ends[-1])

    env = environment()
    if not Path(env["earlkit"]).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"earlkit was imported from {env['earlkit']}, not from {args.src}", file=sys.stderr)
        return 2
    res = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "env": env, "problems": []}
    if args.mode == "run":
        probe.start()
        try:
            outcomes, windows = measure(wl, args.seconds, wl.min_calls, keep=wl.min_calls)
            time.sleep(speed.INTERVAL_S * (speed.MIN_PROBES // 2 + 1))  # probes after the last call
        finally:
            probe.stop()
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        net, scaled = speed_factors(probe, windows)
        res.update(summarize(outcomes, windows, scaled))
        res["wall"] = summarize(outcomes, windows, net)
        res["probe"] = {
            "count": len(probe.starts),
            "median_s": statistics.median(e - s for s, e in zip(probe.starts, probe.ends)),
            "nominal_s": speed.NOMINAL_S,
        }
        regrets, problems = workloads.regrets_of(wl, outcomes)
        res["value_regret"] = statistics.fmean(regrets) if regrets else None
        res["regret_ops"] = len(regrets)
        res["problems"] += problems
        res["digest"] = workloads.digest(outcomes[: wl.min_calls])
    elif args.mode == "trace":
        import spans

        plain, plain_windows = measure(wl, args.seconds / 2, 1, keep=0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_windows = measure(wl, args.seconds / 2, 1, keep=0, tracer=tracer, first=len(plain))
        finally:
            tracer.uninstall()
        plain_s, traced_s = summarize(plain, plain_windows), summarize(traced, traced_windows)
        layers, accounting = tracer.layer_metrics(traced_s["attempted"])
        plain_rate = plain_s["attempted"] / plain_s["busy_s"]
        traced_rate = traced_s["attempted"] / traced_s["busy_s"]
        layers["trace.overhead_ratio"] = plain_rate / traced_rate
        res.update(
            attempted=plain_s["attempted"] + traced_s["attempted"],
            failed=plain_s["failed"] + traced_s["failed"],
            failures=sorted(set(plain_s["failures"] + traced_s["failures"])),
            untraced=plain_s,
            traced=traced_s,
            layers=layers,
            accounting=accounting,
        )
        if not accounting["ok"]:
            res["problems"].append("layer self times do not add up to the op wall time")
        if args.spans:
            tracer.write(args.spans)
    if args.mode != "setup":
        res["criterion_8"] = workloads.criterion_8()
    res["loadavg"] = {"before": load_before, "after": os.getloadavg()}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
