"""The three benchmark workloads.

Each workload turns an op index k into a fresh input drawn from the
workload seed, runs one op through earlkit's public entry points, checks
the op's output, and keeps what the value oracle needs. Module functions
are looked up at call time (``earlkit.cli.main``, ``earlkit.sim.run_experiment``)
so that the tracer's wrappers are seen once installed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import earlkit.cli
from earlkit.core import FeatureMap, LinearRule, save_csv, stream
from earlkit.earl import EarlConfig, earl_fit
from earlkit.losses import LOSS_NAMES
from earlkit.nuisance import NuisanceSpec
from earlkit.sim import (
    ScenarioSpec,
    contrast,
    generate_scenario,
    optimal_rule,
    true_outcome_model,
    true_propensity_model,
    true_value_mc,
    write_results_csv,
)
from earlkit.weights import dr_weights

FIT_N = 2500
FIT_LOSSES = ("logistic", "exp", "sqhinge")
# Monte Carlo draws for the fit_cv and permtest oracle; both rules share them
ORACLE_DRAWS = 100_000

PERM_N = 200
PERM_B = 49
PERM_COVARIATES = (1, 2, 3)  # 1-based, as on the command line

SIM_GRID = dict(
    scenarios=[2, 3],
    specs=["CC", "II"],
    methods=["earl-logistic", "owl", "qlearning", "aipwe"],
    n_grid=[500],
    replicates=1,
    validation_draws=10000,
    threads=1,
)
SIM_RECORDS = len(SIM_GRID["scenarios"]) * len(SIM_GRID["specs"]) * len(SIM_GRID["methods"])


@dataclass
class Outcome:
    """The checked result of one call into earlkit, which may hold several ops."""

    ops: int
    latencies: list[float]  # one sample per op, in seconds
    failures: list[str] = field(default_factory=list)  # one reason per failed op
    digest: bytes = b""  # the op's deterministic output bytes
    oracle: object = None  # what regret() needs, kept only for the first calls

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.ops)


def _seed_int(*keys) -> int:
    return int(stream(*keys).integers(2**63))


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class FitCV:
    """``earlkit fit --lambda cv`` on a new scenario-2 CSV at n=2500."""

    name = "fit_cv"
    ops_per_call = 1
    min_calls = 12  # also the number of ops the regret averages over

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "fit_cv-input.csv"
        self.artifact = workdir / "fit_cv-artifact.json"
        self.oracle_seed = _seed_int(seed, "fit_cv-oracle")
        self._v_star = None

    def make_input(self, k: int) -> str:
        data = generate_scenario(ScenarioSpec(2, FIT_N), stream(self.seed, "fit_cv", k))
        save_csv(data, self.csv)
        self.artifact.unlink(missing_ok=True)
        return FIT_LOSSES[k % len(FIT_LOSSES)]

    def op(self, loss: str) -> int:
        return earlkit.cli.main(
            ["fit", "--input", str(self.csv), "--output", str(self.artifact),
             "--lambda", "cv", "--loss", loss]
        )

    def warmup(self) -> None:
        data = generate_scenario(ScenarioSpec(2, FIT_N), stream(self.seed, "fit_cv-warmup"))
        save_csv(data, self.csv)
        self.op(FIT_LOSSES[0])

    def evaluate(self, k: int, loss: str, rc, seconds: float, keep_oracle: bool) -> Outcome:
        out = Outcome(ops=1, latencies=[seconds])
        if rc != 0:
            out.failures.append(f"exit code {rc}")
            return out
        text = self.artifact.read_text(encoding="utf-8")
        out.digest = text.encode("utf-8")
        art = json.loads(text)
        reason = _check_fit_artifact(art)
        if reason:
            out.failures.append(reason)
        elif keep_oracle:
            out.oracle = LinearRule(
                art["rule"]["beta0"], art["rule"]["beta"],
                FeatureMap.from_jsonable(art["rule"]["feature_map"]),
            )
        return out

    def regret(self, out: Outcome) -> list[float]:
        if self._v_star is None:
            self._v_star = true_value_mc(optimal_rule(), 2, ORACLE_DRAWS, self.oracle_seed)
        return [self._v_star - true_value_mc(out.oracle, 2, ORACLE_DRAWS, self.oracle_seed)]


def _check_fit_artifact(art: dict) -> str | None:
    if not _finite([art["beta0"], *art["beta"], art["aipwe_insample"]]):
        return "artifact holds a non-finite beta0, beta or aipwe_insample"
    rows = [r for r in art["cv_table"] if r["mean_value"] is not None]
    if not rows:
        return "CV table has no finite mean_value"
    # arg-max of mean_value, ties to the larger lambda
    best = max(rows, key=lambda r: (r["mean_value"], r["lambda"]))
    if art["lambda"] != best["lambda"]:
        return f"lambda {art['lambda']} is not the CV arg-max {best['lambda']}"
    return None


class PermTest:
    """``earlkit permtest`` at n=200 on covariates 1,2,3; one op is one refit."""

    name = "permtest"
    ops_per_call = PERM_B * len(PERM_COVARIATES)
    min_calls = 12

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "permtest-input.csv"
        self.report = workdir / "permtest-report.csv"
        self.oracle_seed = _seed_int(seed, "permtest-oracle")
        self._v_star = None

    def make_input(self, k):
        data = generate_scenario(ScenarioSpec(2, PERM_N), stream(self.seed, "permtest", k))
        save_csv(data, self.csv)
        self.report.unlink(missing_ok=True)
        return data

    def op(self, data, b: int = PERM_B, covariates=PERM_COVARIATES) -> int:
        return earlkit.cli.main(
            ["permtest", "--input", str(self.csv), "--output", str(self.report),
             "--covariates", ",".join(str(c) for c in covariates), "--b", str(b)]
        )

    def warmup(self) -> None:
        self.op(self.make_input("warmup"), b=1, covariates=(1,))

    def evaluate(self, k: int, data, rc, seconds: float, keep_oracle: bool) -> Outcome:
        ops = self.ops_per_call
        out = Outcome(ops=ops, latencies=[seconds / ops])
        reason = f"exit code {rc}" if rc != 0 else None
        if reason is None:
            text = self.report.read_text(encoding="utf-8")
            out.digest = text.encode("utf-8")
            rows, reason = _parse_permtest(text)
        if reason is None and keep_oracle:
            rule = _permtest_pipeline(data)
            for cov, coef, _ in rows:
                ref = rule.coefficient(cov - 1)
                if abs(coef - ref) > 1e-8 * (1.0 + abs(ref)):
                    reason = f"x{cov} coefficient {coef!r} differs from the refit {ref!r}"
            out.oracle = rule
        if reason is not None:
            out.failures.extend([reason] * ops)
        return out

    def regret(self, out: Outcome) -> list[float]:
        if self._v_star is None:
            self._v_star = true_value_mc(optimal_rule(), 2, ORACLE_DRAWS, self.oracle_seed)
        return [self._v_star - true_value_mc(out.oracle, 2, ORACLE_DRAWS, self.oracle_seed)]


def _parse_permtest(text: str):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "covariate,coefficient,p_value":
        return None, "permtest report has no header"
    rows = []
    for line in lines[1:]:
        name, coef, p = line.split(",")
        rows.append((int(name.lstrip("x")), float(coef), float(p)))
    if [r[0] for r in rows] != list(PERM_COVARIATES):
        return None, f"permtest report rows {[r[0] for r in rows]} != {list(PERM_COVARIATES)}"
    for cov, coef, p in rows:
        if not (math.isfinite(coef) and 1.0 / (PERM_B + 1) <= p <= 1.0):
            return None, f"x{cov}: coefficient {coef!r} or p-value {p!r} out of range"
    return rows, None


def _permtest_pipeline(data) -> LinearRule:
    """The rule permtest fits on the observed data, rebuilt from the public
    API with the command's defaults (logistic loss, lambda 1, linear maps)."""
    p = data.p
    spec = NuisanceSpec(
        propensity_map=FeatureMap.linear(p),
        outcome_map=FeatureMap.linear(p).with_treatment(),
    )
    prop, out = spec.fit(data)
    config = EarlConfig(loss="logistic", lam=1.0, feature_map=FeatureMap.linear(p, intercept=False))
    return earl_fit(data, dr_weights(data, prop, out), config).rule


class SimGrid:
    """One replicate cell of the acceptance grid: 16 records per call."""

    name = "sim_grid"
    ops_per_call = SIM_RECORDS
    # a call takes about 12 s, so this fixes the run at 48 records: the
    # latency quantiles then fall on the same method groups in every run
    min_calls = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_input(self, k: int) -> int:
        return _seed_int(self.seed, "sim_grid", k)

    def op(self, cell_seed: int):
        return earlkit.sim.run_experiment(seed=cell_seed, **SIM_GRID)

    def warmup(self) -> None:
        # the first record of a cell: earl-logistic on scenario 2, spec CC
        earlkit.sim.run_experiment(
            **dict(SIM_GRID, scenarios=[2], specs=["CC"], methods=["earl-logistic"]),
            seed=_seed_int(self.seed, "sim_grid-warmup"),
        )

    def evaluate(self, k: int, cell_seed: int, records, seconds: float, keep_oracle: bool) -> Outcome:
        out = Outcome(ops=len(records), latencies=[r.seconds for r in records])
        expected = {
            (m, s, c) for m in SIM_GRID["methods"] for s in SIM_GRID["scenarios"] for c in SIM_GRID["specs"]
        }
        got = {(r.method, r.scenario, r.spec) for r in records}
        if got != expected or len(records) != SIM_RECORDS:
            out.failures.extend(["record set differs from the grid"] * SIM_RECORDS)
        for r in records:
            if r.error is not None or not math.isfinite(r.value):
                out.failures.append(f"{r.method} s{r.scenario} {r.spec}: {r.error or 'non-finite value'}")
        buf = io.StringIO()
        write_results_csv(records, buf, timings=False)
        out.digest = buf.getvalue().encode("utf-8")
        if keep_oracle:
            out.oracle = (cell_seed, records)
        return out

    def regret(self, out: Outcome) -> list[float]:
        cell_seed, records = out.oracle
        # run_experiment draws scenario s's validation sample from stream(seed, 202, s)
        v_star = {
            s: true_value_mc(
                optimal_rule(), s, SIM_GRID["validation_draws"], stream(cell_seed, 202, s)
            )
            for s in SIM_GRID["scenarios"]
        }
        return [v_star[r.scenario] - r.value for r in records if r.error is None]


WORKLOADS = {w.name: w for w in (FitCV, SimGrid, PermTest)}


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(hashlib.sha256(o.digest).digest())
    return h.hexdigest()


def regrets_of(wl, outcomes) -> tuple[list[float], list[str]]:
    """Per-op regret V(d*) - V(d_hat) over the outcomes that kept an oracle.

    Both values are taken on the same draws, and d* maximizes the outcome
    pointwise, so a negative regret means the draws were not the same.
    """
    values, problems = [], []
    for o in outcomes:
        if o.oracle is None:
            continue
        for r in wl.regret(o):
            if not (math.isfinite(r) and r >= 0.0):
                problems.append(f"regret {r!r} is negative or non-finite")
            values.append(r)
    return values, problems


def criterion_8() -> dict:
    """Sign agreement of each surrogate with the optimal rule under the true
    nuisances, computed with the public calls the acceptance suite uses."""
    d = generate_scenario(ScenarioSpec(2, 5000), stream(777, "fisher"))
    w = dr_weights(d, true_propensity_model(2), true_outcome_model())
    grid = stream(777, "fisher-grid").standard_normal((10000, 10))
    truth = np.where(contrast(grid) >= 0, 1, -1)
    fm = FeatureMap.quadratic(10, intercept=False)
    return {
        loss: float(np.mean(
            earl_fit(d, w, EarlConfig(loss=loss, lam=1e-3, feature_map=fm, seed=0)).rule.decide_many(grid)
            == truth
        ))
        for loss in LOSS_NAMES
    }
