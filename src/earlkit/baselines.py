"""Comparator estimators: Q-learning, outcome weighted learning, and a
direct maximizer of the augmented IPW value over linear rules.

Q-learning fits the outcome model and recommends the arm with the larger
fitted Q; for maps linear in treatment the contrast Q(x,1) - Q(x,-1) is
itself linear in x, so the rule is returned in closed form. OWL is the
special case of the weighted surrogate minimizer with a null Q-model (the
outcome is shifted to be nonnegative first). The direct search runs a
small evolutionary loop over unit-norm coefficient vectors with a free
intercept, seeded with the Q-learning rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FeatureMap, LinearRule, stream
from .earl import EarlConfig, earl_fit
from .nuisance import OutcomeModel, PropensityModel, fit_outcome
from .value import _dr_value
from .weights import dr_weights

__all__ = [
    "BaselineFit",
    "qlearning_fit",
    "owl_fit",
    "aipwe_direct_search",
    "contrast_rule",
]

# effectively a constant rule when the coefficient vector is forced to unit norm
_CONST_INTERCEPT = 1e9
# the search's size, Gaussian mutation scale and tournament size
_POPULATION = 100
_GENERATIONS = 200
_MUTATION_SD = 0.1
_TOURNAMENT = 4


@dataclass(frozen=True)
class BaselineFit:
    method: str
    rule: LinearRule
    diagnostics: dict


def contrast_rule(model: OutcomeModel) -> LinearRule:
    """Rule sgn{Q(x,1) - Q(x,-1)} for an outcome map linear in treatment.

    Treatment-free terms cancel in the contrast; the main effect
    contributes 2*theta to the intercept and each a*x_j term contributes
    2*theta x_j.
    """
    p = model.feature_map.p
    beta0 = 0.0
    coords, coefs = [], []
    for term, th in zip(model.feature_map.terms, model.theta):
        if term == ("a",):
            beta0 += 2.0 * float(th)
        elif term[0] == "ax":
            coords.append(term[1])
            coefs.append(2.0 * float(th))
    fm = FeatureMap(p, tuple(("x", j) for j in coords))
    return LinearRule(beta0, np.asarray(coefs, dtype=float), fm)


def qlearning_fit(data: Dataset, outcome_map: FeatureMap) -> BaselineFit:
    """Least-squares Q-learning: d(x) = sgn{Q(x,1) - Q(x,-1)}, ties to +1."""
    model = fit_outcome(data, outcome_map)
    return BaselineFit(
        method="qlearning",
        rule=contrast_rule(model),
        diagnostics={"outcome_model": model},
    )


def owl_fit(data: Dataset, propensity: PropensityModel, config: EarlConfig) -> BaselineFit:
    """Outcome weighted learning: null Q-model, propensity-only weights.

    Outcomes are shifted by min(0, min Y) so the weights are nonnegative;
    the shift is recorded in the diagnostics. The objective is identical
    to the general weighted surrogate objective under a null Q-model.
    """
    shift = min(0.0, float(np.min(data.Y)))
    work = data if shift == 0.0 else Dataset(data.X, data.A, data.Y - shift)
    w = dr_weights(work, propensity, None)
    fit = earl_fit(work, w, config)
    return BaselineFit(
        method="owl",
        rule=fit.rule,
        diagnostics={
            "outcome_shift": shift,
            "objective_value": fit.objective_value,
            "lambda_used": fit.lambda_used,
            "converged": fit.converged,
        },
    )


def _normalize_genomes(genomes: np.ndarray, fallback_axes: np.ndarray) -> np.ndarray:
    """Rescale each row's coefficients (all but the intercept) to unit norm,
    in place; a row whose coefficients are near zero becomes its fallback
    axis. Returns genomes."""
    c = genomes[:, 1:]
    # the arithmetic of np.linalg.norm(c, axis=1) on real input
    nb = np.sqrt(np.add.reduce(c * c, axis=1))
    tiny = nb < 1e-12
    if tiny.any():
        c[tiny] = 0.0
        c[tiny, fallback_axes[tiny]] = 1.0
        nb[tiny] = 1.0
    c /= nb[:, None]
    return genomes


def _seed_genome(outcome: OutcomeModel, p: int, rng: np.random.Generator) -> np.ndarray:
    rule = contrast_rule(outcome)
    beta = np.zeros(p)
    for term, b in zip(rule.feature_map.terms, rule.beta):
        beta[term[1]] = b
    nb = float(np.linalg.norm(beta))
    if nb < 1e-12:
        # constant rule: a huge intercept over any unit direction preserves the sign
        direction = rng.standard_normal(p)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        b0 = _CONST_INTERCEPT if rule.beta0 >= 0 else -_CONST_INTERCEPT
        return np.concatenate([[b0], direction])
    return np.concatenate([[rule.beta0 / nb], beta / nb])


def aipwe_direct_search(
    data: Dataset,
    propensity: PropensityModel,
    outcome: OutcomeModel | None,
    seed: int = 0,
) -> BaselineFit:
    """Evolutionary maximization of the augmented IPW value over rules
    f(x) = b0 + beta'x with ||beta|| = 1.

    A population of 100 rules evolves for 200 generations by tournament
    selection (4 entrants), uniform crossover, Gaussian mutation (sd 0.1),
    and an elite copied unchanged each generation, so the best value never
    decreases. A rule's fitness is its value P_n[W_{d(X)}] over the doubly
    robust weights, which are computed once. Deterministic given the seed.
    The Q-learning rule derived from the supplied outcome model is placed
    in the initial population (a random direction when no outcome model is
    given).
    """
    rng = stream(seed, 5150)
    n, p = data.n, data.p
    w_pos, w_neg = dr_weights(data, propensity, outcome)
    X1 = np.column_stack([np.ones(n), data.X])
    base, gain = float(np.mean(w_neg)), w_pos - w_neg

    def fitness(pop: np.ndarray) -> np.ndarray:
        # P_n[W_{d(X)}] for the whole population at once: d = +1 where f >= 0;
        # the product with a contiguous copy of pop.T is the faster one
        return base + gain @ (X1 @ np.ascontiguousarray(pop.T) >= 0.0) / n

    m, k = _POPULATION, _TOURNAMENT
    axes = np.arange(m) % p
    rows = np.arange(2 * (m - 1))
    if outcome is not None:
        seed_genome = _seed_genome(outcome, p, rng)
    else:
        seed_genome = np.concatenate([[0.0], rng.standard_normal(p)])
    pop = _normalize_genomes(np.vstack([seed_genome, rng.standard_normal((m - 1, p + 1))]), axes)
    nxt = np.empty_like(pop)  # each generation is written here, then the two swap
    fit_vals = fitness(pop)
    seed_value = float(fit_vals[0])
    best_i = int(fit_vals.argmax())
    best_genome = pop[best_i].copy()
    best_value = float(fit_vals[best_i])
    history = [best_value]
    for _ in range(_GENERATIONS):
        # both tournaments of every child in one draw; argmax keeps the
        # first of tied entrants
        entrants = rng.integers(0, m, size=(2, m - 1, k)).reshape(-1, k)
        won = entrants[rows, fit_vals[entrants].argmax(axis=1)].reshape(2, m - 1)
        mask = rng.random((m - 1, p + 1)) < 0.5
        nxt[0] = best_genome  # elitism
        children = nxt[1:]
        # every index is in range, and mode="clip" spares take its buffered copy
        pop.take(won[1], axis=0, out=children, mode="clip")
        np.copyto(children, pop.take(won[0], axis=0), where=mask)
        children += rng.normal(0.0, _MUTATION_SD, size=(m - 1, p + 1))
        _normalize_genomes(children, axes[1:])
        pop, nxt = nxt, pop
        fit_vals = fitness(pop)
        gen_best = int(fit_vals.argmax())
        if float(fit_vals[gen_best]) > best_value:
            best_value = float(fit_vals[gen_best])
            best_genome = pop[gen_best].copy()
        history.append(best_value)
    rule = LinearRule.raw(best_genome[0], best_genome[1:])
    return BaselineFit(
        method="aipwe_direct",
        rule=rule,
        diagnostics={
            "aipwe": float(_dr_value(rule.scores(data.X), w_pos, w_neg)),
            "best_history": tuple(history),
            "seed_rule_aipwe": seed_value,
            "evaluations": m * (_GENERATIONS + 1),
        },
    )
