"""Permutation test for the significance of rule coefficients.

The observed statistic is |beta_j| from the full fitting pipeline. Each
permutation shuffles covariate column j across subjects and refits the
entire pipeline (nuisance models included); the add-one p-value

    p = (1 + #{b : |beta_j^(b)| >= |beta_j|}) / (B + 1)

is never exactly zero and is at least 1/(B+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConfigError, Dataset, EarlError, LinearRule, NumericalError, _integer, stream

__all__ = ["PermutationEntry", "PermutationReport", "permutation_test", "permutation_report"]

DEFAULT_PERMUTATIONS = 2000


@dataclass(frozen=True)
class PermutationEntry:
    covariate: int  # 0-based column index
    coefficient: float
    p_value: float
    permutations: int


@dataclass(frozen=True)
class PermutationReport:
    entries: tuple[PermutationEntry, ...]


def permutation_test(
    data: Dataset,
    pipeline: Callable[[Dataset], LinearRule],
    covariate: int,
    b: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> PermutationEntry:
    """Permutation p-value for one covariate; deterministic given the seed.

    Refits that raise an EarlError or numpy's LinAlgError are tolerated up
    to 5% of the permutations (they are dropped from both the count and the
    denominator); beyond that the test errors out.
    """
    if _integer("b", b) < 1:
        raise ConfigError(f"permutation count must be at least 1, got {b}")
    covariate = _integer("covariate", covariate)
    if not (0 <= covariate < data.p):
        raise ConfigError(f"covariate index {covariate} out of range for p={data.p}")
    rule = pipeline(data)
    observed = abs(rule.coefficient(covariate))
    rng = stream(seed, 909, covariate)
    count_ge = 0
    successes = 0
    failures = 0
    for _ in range(b):
        perm = rng.permutation(data.n)
        Xp = np.array(data.X, copy=True)
        Xp[:, covariate] = data.X[perm, covariate]
        try:
            stat = abs(pipeline(Dataset(Xp, data.A, data.Y)).coefficient(covariate))
        except (EarlError, np.linalg.LinAlgError):
            failures += 1
            continue
        successes += 1
        if stat >= observed:
            count_ge += 1
    if failures > 0.05 * b:
        raise NumericalError(
            f"{failures} of {b} permutation refits failed (more than 5%)"
        )
    p_value = (1 + count_ge) / (successes + 1)
    return PermutationEntry(
        covariate=covariate,
        coefficient=float(rule.coefficient(covariate)),
        p_value=p_value,
        permutations=successes,
    )


def permutation_report(
    data: Dataset,
    pipeline: Callable[[Dataset], LinearRule],
    b: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    covariates=None,
) -> PermutationReport:
    """Run the permutation test for each covariate (default: all of them).

    The observed data are fit once, at the first test's first call, and
    that rule serves every covariate, so the pipeline runs
    1 + B |covariates| times; for a deterministic pipeline the entries are
    those of separate permutation_test calls.
    """
    covariates = range(data.p) if covariates is None else covariates
    observed = []

    def shared(d: Dataset) -> LinearRule:
        if d is not data:
            return pipeline(d)
        if not observed:
            observed.append(pipeline(data))
        return observed[0]

    entries = tuple(
        permutation_test(data, shared, j, b=b, seed=seed) for j in covariates
    )
    return PermutationReport(entries=entries)
