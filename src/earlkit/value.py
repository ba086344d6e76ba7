"""Value estimators for a fixed decision rule.

The inverse-probability-weighted estimator only uses subjects whose
observed treatment matches the rule; the augmented estimator adds a
Q-model term with mean zero under correct specification, making it doubly
robust. The normalized variant divides by the sum of the IPW weights and
is the evaluator used for observational data with estimated propensities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import DataError, Dataset, LinearRule
from .losses import get_loss
from .nuisance import OutcomeModel, PropensityModel
from .weights import dr_weights

__all__ = [
    "ValueEstimate",
    "value_ipwe",
    "value_aipwe",
    "value_ipwe_normalized",
    "value_crossfit_aggregate",
]


@dataclass(frozen=True)
class ValueEstimate:
    estimate: float
    estimator_kind: str
    n_effective: int  # subjects whose treatment matches the rule

    def to_json(self) -> dict:
        """JSON record {estimator, value, n_effective}."""
        return {
            "estimator": self.estimator_kind,
            "value": self.estimate,
            "n_effective": self.n_effective,
        }


def value_ipwe(data: Dataset, rule: LinearRule, propensity: PropensityModel) -> ValueEstimate:
    """P_n[ Y I{A = d(X)} / pi(A; X) ] with clipped propensities: the
    augmented estimator value_aipwe with a null Q-model."""
    return replace(value_aipwe(data, rule, propensity, None), estimator_kind="ipwe")


def _dr_value(d: np.ndarray, w_pos: np.ndarray, w_neg: np.ndarray) -> float:
    """P_n[W_{d(X)}]: the mean doubly robust weight of the recommended arm."""
    return float(np.mean(np.where(d == 1, w_pos, w_neg)))


def value_aipwe(
    data: Dataset,
    rule: LinearRule,
    propensity: PropensityModel,
    outcome: OutcomeModel | None = None,
) -> ValueEstimate:
    """Augmented IPW estimator of the value of a rule, P_n[W_{d(X)}] over
    the doubly robust weights of dr_weights.

    W_a's leading term has denominator pi(a; X), which equals pi(A; X)
    when A = a and is nullified by the indicator otherwise, so with
    outcome None this is the IPW estimator; value_ipwe returns it.
    """
    d = rule.decide_many(data.X)
    est = _dr_value(d, *dr_weights(data, propensity, outcome))
    return ValueEstimate(est, "aipwe", int(np.sum(data.A == d)))


def value_ipwe_normalized(
    data: Dataset, rule: LinearRule, propensity: PropensityModel
) -> ValueEstimate:
    """IPW estimator normalized by the mean inverse-probability weight.

    Invariant to rescaling all propensities by a constant; errors out when
    no subject's treatment matches the rule.
    """
    match = (data.A == rule.decide_many(data.X)).astype(float)
    pi_pos, pi_neg = propensity.probs(data.X)
    pi_obs = np.where(data.A == 1, pi_pos, pi_neg)
    den = float(np.mean(match / pi_obs))
    if den == 0.0:
        raise DataError("rule is unsupported by the data: no subject's treatment matches it")
    num = float(np.mean(data.Y * match / pi_obs))
    return ValueEstimate(num / den, "ipwe_normalized", int(match.sum()))


def value_crossfit_aggregate(data: Dataset, folds, loss=None) -> ValueEstimate:
    """Aggregated cross-fit value: the mean over folds of the augmented
    IPW evaluation of each fold's rule on that fold's held-out rows, using
    that fold's nuisance models.

    folds is a sequence of fold artifacts exposing erm_index, rule,
    propensity, and outcome (as produced by earl_fit_crossfit). The loss
    argument is accepted for pipeline symmetry and validated, but the
    doubly robust value does not depend on it.
    """
    if loss is not None:
        get_loss(loss)
    folds = list(folds)
    if len(folds) < 2:
        raise DataError(f"need at least 2 fold artifacts, got {len(folds)}")
    for f in folds:
        for attr in ("erm_index", "rule", "propensity"):
            if not hasattr(f, attr):
                raise DataError(f"fold artifact is missing {attr!r}")
    per_fold = [
        value_aipwe(data.subset(f.erm_index), f.rule, f.propensity, getattr(f, "outcome", None))
        for f in folds
    ]
    est = float(np.mean([v.estimate for v in per_fold]))
    n_eff = int(sum(v.n_effective for v in per_fold))
    return ValueEstimate(est, "crossfit_aggregate", n_eff)
