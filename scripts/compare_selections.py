"""Compare select_lambda between two earlkit source trees.

    python scripts/compare_selections.py OLD_TREE NEW_TREE

Each tree is a checkout whose src/ holds the earlkit package, or a
directory that holds the package itself. The fixed comparison set runs in
one subprocess per tree, so that both versions can be imported, with BLAS
on one thread unless OPENBLAS_NUM_THREADS is set. The script then prints a
deterministic summary of how far the two trees agree:

- calls whose selected lambdas are equal, and calls that fail on both
  sides (with the same error or not);
- tables whose repr is identical;
- fold cells that are identical, within 1e-12 relative, or further apart,
  with the worst cell;
- calls whose CV splits took the outcome fit's rank-deficiency ridge
  fallback in the same splits on both sides;
- each call with a cell further apart, with the CV splits on each side
  whose nuisance fits took that fallback, and the number of far cells in
  splits where no fit did.

A call's fallback splits are its selection's ridge_fallback_splits, and
none for a call that fails.

It exits 1 if a selected lambda differs or a call fails on one side only.

The comparison set: scenarios 1-3 x n in {200, 500, 2500} x the losses
logistic, exp and sqhinge (and the hinge at n = 200 and 500) x plain and
cross-fitted CV; the default maps of `earlkit fit` (a linear rule and
propensity, a linear*a outcome model), the default lambda grid, data seed
0 and config seed 0. That is 66 calls.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

REL = 1e-12


def _calls():
    for scenario in (1, 2, 3):
        for n in (200, 500, 2500):
            losses = ("logistic", "exp", "sqhinge") + (("hinge",) if n <= 500 else ())
            for loss in losses:
                for crossfit in (False, True):
                    yield scenario, n, loss, crossfit


def _call_id(scenario, n, loss, crossfit):
    return f"scenario {scenario} n={n} {loss} {'cross-fit' if crossfit else 'plain'}"


def emit() -> None:
    """Run the comparison set with the earlkit on sys.path; one JSON line per call."""
    from earlkit.core import FeatureMap
    from earlkit.earl import EarlConfig, LambdaSelection, select_lambda
    from earlkit.nuisance import NuisanceSpec
    from earlkit.sim import ScenarioSpec, generate_scenario

    # without the record every call would report no fallback split
    if "ridge_fallback_splits" not in {f.name for f in dataclasses.fields(LambdaSelection)}:
        sys.exit("error: earlkit.earl.LambdaSelection has no ridge_fallback_splits to report the fallback splits from")
    for scenario, n, loss, crossfit in _calls():
        data = generate_scenario(ScenarioSpec(scenario, n), 0)
        spec = NuisanceSpec(FeatureMap.linear(data.p), FeatureMap.from_name("linear*a", data.p))
        record = {"id": _call_id(scenario, n, loss, crossfit)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                sel = select_lambda(data, spec, EarlConfig(loss=loss, seed=0), crossfit=crossfit)
            except Exception as exc:  # a failure is compared, not raised
                record["error"] = f"{type(exc).__name__}: {exc}"
                record["fallback_splits"] = []
            else:
                record["lambda"] = sel.lambda_
                record["table"] = repr(sel.table)
                record["cells"] = [row["fold_values"] for row in sel.table]
                record["fallback_splits"] = list(sel.ridge_fallback_splits)
        print(json.dumps(record), flush=True)


def _package_dir(tree: str) -> Path:
    root = Path(tree)
    for candidate in (root / "src", root):
        if (candidate / "earlkit" / "__init__.py").is_file():
            return candidate.resolve()
    sys.exit(f"error: no earlkit package in {tree} or {tree}/src")


def _start(tree: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(_package_dir(tree)))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def _collect(proc: subprocess.Popen, tree: str) -> list[dict]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"error: the comparison set failed in {tree} (exit {proc.returncode})")
    return [json.loads(line) for line in out.splitlines()]


def _rel(a, b) -> float:
    """0 for equal cells, inf where one side is missing, else |a - b| / max(|a|, |b|)."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: list[dict], new: list[dict]) -> int:
    same_lambda = both_failed = same_error = differ = compared = identical_tables = 0
    cells = {"identical": 0, "within": 0, "larger": 0}
    worst = (0.0, None)
    far, unexplained = [], 0
    same_fallback = sum(a["fallback_splits"] == b["fallback_splits"] for a, b in zip(old, new))
    for a, b in zip(old, new):
        if "error" in a or "error" in b:
            if "error" in a and "error" in b:
                both_failed += 1
                same_error += a["error"] == b["error"]
            else:
                differ += 1
                print(f"fails on one side only: {a['id']}: {a.get('error') or b.get('error')}")
            continue
        compared += 1
        if a["lambda"] == b["lambda"]:
            same_lambda += 1
        else:
            differ += 1
            print(f"selected lambda differs: {a['id']}: {a['lambda']!r} vs {b['lambda']!r}")
        identical_tables += a["table"] == b["table"]
        n_far, call_worst = 0, 0.0
        for row, (ra, rb) in enumerate(zip(a["cells"], b["cells"])):
            for fold, (va, vb) in enumerate(zip(ra, rb)):
                r = _rel(va, vb)
                if r == 0.0:
                    cells["identical"] += 1
                elif r <= REL:
                    cells["within"] += 1
                else:
                    cells["larger"] += 1
                    n_far += 1
                    fell_back = fold in a["fallback_splits"] or fold in b["fallback_splits"]
                    unexplained += not fell_back
                call_worst = max(call_worst, r)
                if r > worst[0]:
                    worst = (r, f"{a['id']}, lambda row {row}, fold {fold}")
        if n_far:
            far.append((a["id"], n_far, call_worst, a["fallback_splits"], b["fallback_splits"]))
    print(f"calls: {len(old)}")
    print(f"  equal selected lambda: {same_lambda}")
    print(f"  failed on both sides: {both_failed} (same error: {same_error})")
    print(f"  lambda differs or fails on one side only: {differ}")
    print(f"tables repr-identical: {identical_tables} of {compared}")
    fell_back = [sum(len(r["fallback_splits"]) for r in side) for side in (old, new)]
    print(f"identical fallback splits: {same_fallback} of {len(old)} calls ({fell_back[0]} / {fell_back[1]} splits fell back)")
    print(f"fold cells: {sum(cells.values())}")
    print(f"  identical: {cells['identical']}")
    print(f"  within {REL:g} relative: {cells['within']}")
    print(f"  further apart: {cells['larger']}")
    if worst[1] is not None:
        print(f"  worst: {worst[0]:.2g} relative at {worst[1]}")
    if far:
        print(f"calls with a cell beyond {REL:g} relative: cells, worst, splits with a ridge-fallback fit old / new")
        for call, n_far, call_worst, fa, fb in far:
            print(f"  {call}: {n_far}, {call_worst:.2g}, {fa} / {fb}")
    print(f"cells beyond {REL:g} relative in splits with no ridge-fallback fit: {unexplained}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        emit()
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    procs = [_start(tree) for tree in argv]
    old, new = (_collect(proc, tree) for proc, tree in zip(procs, argv))
    return compare(old, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
