"""Benchmark harness: generative scenarios, nuisance-specification grid,
replicate runner, and the Monte Carlo oracle for true rule values.

Three generative models share the outcome

    Y = sum_j X_j^2 + sum_j X_j + A c(X) + eps,   c(x) = x1 + x2 - 0.1,

with X ~ N(0, I_10) and eps ~ N(0, 1). They differ in the treatment
mechanism: scenario 1 uses the logit link x1 + x2 + x1 x2, scenario 2 uses
0.5 x1 - 0.5, and scenario 3 assigns treatment with constant probability
0.025 (a severe positivity violation). The specification grid crosses
correct/incorrect propensity and outcome models (CC, CI, IC, II).
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .baselines import aipwe_direct_search, owl_fit, qlearning_fit
from .core import ConfigError, Dataset, EarlError, FeatureMap, LinearRule, _integer, stream
from .earl import EarlConfig, fit_earl_pipeline
from .nuisance import NuisanceSpec, OutcomeModel, PropensityModel, _expit

__all__ = [
    "ScenarioSpec",
    "ModelSpec",
    "ExperimentResult",
    "generate_scenario",
    "true_value_mc",
    "optimal_rule",
    "true_propensity_model",
    "true_outcome_model",
    "run_experiment",
    "write_results_csv",
    "METHODS",
]

SCENARIO_3_PROPENSITY = 0.025
DEFAULT_P = 10
DEFAULT_LAMBDA = 2.0**-5


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: int
    n: int
    p: int = DEFAULT_P

    def __post_init__(self):
        if self.scenario not in (1, 2, 3):
            raise ConfigError(f"scenario must be 1, 2, or 3, got {self.scenario}")
        if _integer("n", self.n) < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if _integer("p", self.p) < 2:
            raise ConfigError(f"need p >= 2 for the contrast x1 + x2 - 0.1, got {self.p}")


def contrast(X: np.ndarray) -> np.ndarray:
    """Treatment-interaction contrast c(x) = x1 + x2 - 0.1."""
    return X[:, 0] + X[:, 1] - 0.1


def propensity_true(scenario: int, X: np.ndarray) -> np.ndarray:
    """P(A = 1 | X) under each scenario."""
    if scenario == 1:
        return _expit(X[:, 0] + X[:, 1] + X[:, 0] * X[:, 1])
    if scenario == 2:
        return _expit(0.5 * X[:, 0] - 0.5)
    return np.full(X.shape[0], SCENARIO_3_PROPENSITY)


def _treatment_free(X: np.ndarray) -> np.ndarray:
    """The outcome's rule-free part, sum_j x_j^2 + sum_j x_j."""
    return np.sum(X**2, axis=1) + np.sum(X, axis=1)


def outcome_mean(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    return _treatment_free(X) + np.asarray(A, dtype=float) * contrast(X)


def generate_scenario(spec: ScenarioSpec, seed) -> Dataset:
    """Draw one training set; deterministic given the seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X = rng.standard_normal((spec.n, spec.p))
    A = np.where(rng.random(spec.n) < propensity_true(spec.scenario, X), 1, -1)
    Y = outcome_mean(X, A) + rng.standard_normal(spec.n)
    return Dataset(X, A, Y)


def true_value_mc(rule, scenario: int, draws: int, seed) -> float:
    """Monte Carlo estimate of the true value of a rule on fresh draws
    of X ~ N(0, I_10).

    The mean-zero noise is omitted since it averages out. rule may be a
    LinearRule or any callable mapping an n x 10 matrix to signs. The
    three scenarios share the outcome model, so scenario is only
    validated.
    """
    if scenario not in (1, 2, 3):
        raise ConfigError(f"scenario must be 1, 2, or 3, got {scenario}")
    if _integer("draws", draws) < 1:
        raise ConfigError(f"draws must be positive, got {draws}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X = rng.standard_normal((draws, DEFAULT_P))
    return _value_on(X, _treatment_free(X), contrast(X), rule)


def _value_on(X: np.ndarray, free: np.ndarray, c: np.ndarray, rule) -> float:
    """Mean outcome of rule on the draws X, whose _treatment_free is free
    and whose contrast is c."""
    if isinstance(rule, LinearRule):
        d = rule.decide_many(X)
    else:
        d = np.asarray(rule(X))
    return float(np.mean(free + np.asarray(d, dtype=float) * c))


def optimal_rule() -> LinearRule:
    """sgn{c(x)}, the value-maximizing rule."""
    beta = np.zeros(DEFAULT_P)
    beta[0] = beta[1] = 1.0
    return LinearRule.raw(-0.1, beta)


def true_propensity_model(scenario: int) -> PropensityModel:
    """The data-generating propensity wrapped as a fitted-model object."""
    if scenario in (1, 2):
        fm = _propensity_map(True, scenario)
        gamma = np.array([0.0, 1.0, 1.0, 1.0] if scenario == 1 else [-0.5, 0.5])
    else:
        fm = FeatureMap.intercept_only(DEFAULT_P)
        pi = SCENARIO_3_PROPENSITY
        gamma = np.array([math.log(pi / (1 - pi))])
    return PropensityModel(feature_map=fm, gamma=gamma)


def true_outcome_model() -> OutcomeModel:
    """The data-generating conditional mean wrapped as a fitted-model object."""
    fm = _outcome_map(correct=True)
    theta = np.zeros(fm.q)
    for i, term in enumerate(fm.terms):
        if term[0] in ("x", "x2"):
            theta[i] = 1.0
        elif term == ("a",):
            theta[i] = -0.1
        elif term[0] == "ax":
            theta[i] = 1.0
    return OutcomeModel(feature_map=fm, theta=theta)


def _propensity_map(correct: bool, scenario: int) -> FeatureMap:
    if correct:
        if scenario == 1:
            return FeatureMap(DEFAULT_P, (("1",), ("x", 0), ("x", 1), ("xx", 0, 1)))
        return FeatureMap(DEFAULT_P, (("1",), ("x", 0)))
    if scenario == 1:
        return FeatureMap.linear(DEFAULT_P, intercept=True)
    return FeatureMap.intercept_only(DEFAULT_P)


def _outcome_map(correct: bool) -> FeatureMap:
    if correct:
        return FeatureMap.quadratic(DEFAULT_P, intercept=True).with_treatment(coords=(0, 1))
    return FeatureMap.linear(DEFAULT_P, intercept=True).with_treatment()


@dataclass(frozen=True)
class ModelSpec:
    """One cell of the CC/CI/IC/II specification grid."""

    code: str

    def __post_init__(self):
        if self.code not in ("CC", "CI", "IC", "II"):
            raise ConfigError(f"spec code must be CC, CI, IC, or II, got {self.code!r}")

    @property
    def propensity_correct(self) -> bool:
        return self.code[0] == "C"

    @property
    def outcome_correct(self) -> bool:
        return self.code[1] == "C"

    def nuisance_spec(self, scenario: int) -> NuisanceSpec:
        return NuisanceSpec(
            propensity_map=_propensity_map(self.propensity_correct, scenario),
            outcome_map=_outcome_map(self.outcome_correct),
        )


@dataclass(frozen=True)
class ExperimentResult:
    method: str
    scenario: int
    spec: str
    n: int
    replicate: int
    value: float
    seconds: float
    error: str | None = None


METHODS = (
    "earl-logistic",
    "earl-hinge",
    "earl-exp",
    "earl-sqhinge",
    "qlearning",
    "owl",
    "aipwe",
)


def _fit_method_rule(
    method: str,
    data: Dataset,
    nspec: NuisanceSpec,
    fit_seed: int,
    earl_cfg: EarlConfig,
    select: str,
) -> LinearRule:
    if method.startswith("earl-"):
        cfg = replace(earl_cfg, loss=method.split("-", 1)[1], seed=fit_seed)
        return fit_earl_pipeline(data, nspec, cfg, select=select).fit.rule
    if method == "qlearning":
        return qlearning_fit(data, nspec.outcome_map).rule
    if method == "owl":
        # hinge loss, null Q-model; lambda stays fixed, even under select="cv"
        prop = nspec.fit_propensity(data)
        cfg = replace(earl_cfg, loss="hinge", seed=fit_seed)
        return owl_fit(data, prop, cfg).rule
    # "aipwe": run_experiment has rejected every other name
    prop, out = nspec.fit(data)
    return aipwe_direct_search(data, prop, out, fit_seed).rule


def run_experiment(
    scenarios,
    specs,
    methods,
    n_grid,
    replicates: int,
    seed: int = 0,
    validation_draws: int = 10000,
    threads: int = 1,
    earl_config: EarlConfig | None = None,
    select: str = "cv",
) -> list[ExperimentResult]:
    """Run the full benchmark grid and return one record per cell.

    All methods and specifications within a (scenario, n, replicate) cell
    share the same training draw, and each scenario shares one validation
    sample, mirroring a single stored validation set. Replicates run on
    independent derived RNG streams, so results are identical for any
    thread count. Run threads > 1 with OPENBLAS_NUM_THREADS=1 (or the
    equivalent for the BLAS in use): the workers otherwise stack on BLAS's
    own threads. On a 2-vCPU host, with two workers, some records of a
    default search at n=500 took 1.0 s, where the search alone takes
    0.027 s with one BLAS thread. Even so, threads > 1 is no faster
    there: a record's small-array numpy work holds the GIL, and 4
    replicates of scenarios 2-3 x CC/II x five methods at n=500 took 9.2 s
    on one thread and 13.1 s on two. A failing fit yields a record with a
    NaN value and the error message; the run continues.
    """
    scenarios = [_integer("each scenarios entry", s) for s in scenarios]
    spec_list = [ModelSpec(str(c)) for c in specs]
    methods = [str(m) for m in methods]
    n_grid = [_integer("each n_grid entry", n) for n in n_grid]
    for name, count in (("replicates", replicates), ("validation_draws", validation_draws), ("threads", threads)):
        _integer(name, count)
    if not (scenarios and spec_list and methods and n_grid and replicates >= 1):
        raise ConfigError("scenarios, specs, methods, n_grid, and replicates must be nonempty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; expected one of {', '.join(METHODS)}")
    # a repeated entry would return (and write) each of its records twice
    for name, entries in (
        ("scenarios", scenarios), ("specs", [m.code for m in spec_list]), ("methods", methods), ("n_grid", n_grid)
    ):
        if len(set(entries)) < len(entries):
            repeated = next(e for e in entries if entries.count(e) > 1)
            raise ConfigError(f"{name} lists {repeated!r} more than once")
    if select not in ("cv", "fixed"):
        raise ConfigError(f"select must be 'cv' or 'fixed', got {select!r}")
    if validation_draws < 1 or threads < 1:
        raise ConfigError(
            f"validation_draws and threads must be at least 1, got {validation_draws} and {threads}"
        )
    earl_cfg = earl_config if earl_config is not None else EarlConfig(lam=DEFAULT_LAMBDA)
    validation = {}
    for s in scenarios:
        V = stream(seed, 202, s).standard_normal((validation_draws, DEFAULT_P))
        validation[s] = (V, _treatment_free(V), contrast(V))
    nspecs = {(m.code, s): m.nuisance_spec(s) for m in spec_list for s in scenarios}

    def one_cell(scenario: int, n: int, rep: int) -> list[ExperimentResult]:
        data = generate_scenario(ScenarioSpec(scenario, n), stream(seed, 101, scenario, n, rep))
        records = []
        for method in methods:
            for mspec in spec_list:
                t0 = time.perf_counter()
                err = None
                value = float("nan")
                fit_seed = int(
                    stream(seed, 303, scenario, n, rep, method, mspec.code).integers(2**63)
                )
                try:
                    rule = _fit_method_rule(
                        method,
                        data,
                        nspecs[mspec.code, scenario],
                        fit_seed,
                        earl_cfg,
                        select,
                    )
                    value = _value_on(*validation[scenario], rule)
                except (EarlError, np.linalg.LinAlgError) as exc:
                    err = str(exc)
                records.append(
                    ExperimentResult(
                        method=method,
                        scenario=scenario,
                        spec=mspec.code,
                        n=n,
                        replicate=rep,
                        value=value,
                        seconds=time.perf_counter() - t0,
                        error=err,
                    )
                )
        return records

    cells = [(s, n, r) for s in scenarios for n in n_grid for r in range(replicates)]
    results: list[ExperimentResult] = []
    # the warning filters are process-global, so they are set once here, in the
    # calling thread; with threads=1 nothing is submitted and no thread starts
    with warnings.catch_warnings(), ThreadPoolExecutor(max_workers=threads) as pool:
        warnings.simplefilter("ignore")
        for recs in (pool.map if threads > 1 else map)(one_cell, *zip(*cells)):
            results.extend(recs)
    results.sort(key=lambda r: (r.method, r.scenario, r.spec, r.n, r.replicate))
    return results


def write_results_csv(results, fh, timings: bool = True) -> None:
    """Emit the experiment table as method,scenario,spec,n,replicate,value,seconds,error.

    With timings off the seconds column is written as zero so that
    repeated runs with the same seed produce identical bytes. The error
    column is empty for a record that fitted, and otherwise holds its
    error message, quoted by the csv module where it has commas, quotes
    or newlines.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["method", "scenario", "spec", "n", "replicate", "value", "seconds", "error"])
    for r in results:
        secs = r.seconds if timings else 0.0
        writer.writerow(
            [r.method, r.scenario, r.spec, r.n, r.replicate, repr(r.value), f"{secs:.6f}", r.error or ""]
        )
