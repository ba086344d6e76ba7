"""Doubly robust per-subject weights and their weighted-classification view.

For each subject and each arm a,

    W_a = Y I(A=a) / pi(a; x) - {I(A=a) - pi(a; x)} / pi(a; x) * Q(x, a),

so the unobserved arm reduces algebraically to W_a = Q(x, a). A subject
contributes two classification instances: labels sgn(W_a) * a with
misclassification weights |W_a|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, DomainError, sgn
from .nuisance import OutcomeModel, PropensityModel

__all__ = [
    "WeightPair",
    "ClassificationInstance",
    "compute_weights",
    "classification_view",
    "dr_weights",
    "weight_pairs",
]


@dataclass(frozen=True)
class WeightPair:
    """Doubly robust weights (W_1, W_-1) for one subject."""

    w_pos: float
    w_neg: float


@dataclass(frozen=True)
class ClassificationInstance:
    label: int
    weight: float
    subject: int = 0


def _one_arm(y: float, a: int, arm: int, pi_arm: float, q_arm: float) -> float:
    ind = 1.0 if a == arm else 0.0
    return y * ind / pi_arm - (ind - pi_arm) / pi_arm * q_arm


def compute_weights(y: float, a: int, pi_hat, q_hat=(0.0, 0.0)) -> WeightPair:
    """Weights for one subject.

    pi_hat = (pi(1; x), pi(-1; x)) and q_hat = (Q(x, 1), Q(x, -1)); both
    propensities must lie strictly inside (0, 1).
    """
    if a not in (-1, 1):
        raise DomainError(f"treatment must be -1 or +1, got {a}")
    pi_pos, pi_neg = float(pi_hat[0]), float(pi_hat[1])
    for v in (pi_pos, pi_neg):
        if not (0.0 < v < 1.0):
            raise DomainError(f"propensity {v} outside (0, 1)")
    q_pos, q_neg = float(q_hat[0]), float(q_hat[1])
    return WeightPair(
        w_pos=_one_arm(float(y), a, 1, pi_pos, q_pos),
        w_neg=_one_arm(float(y), a, -1, pi_neg, q_neg),
    )


def classification_view(wp: WeightPair, subject: int = 0):
    """The two weighted classification instances implied by a WeightPair.

    Zero-weight instances are retained so subject indexing stays stable.
    """
    pos = ClassificationInstance(label=sgn(wp.w_pos) * 1, weight=abs(wp.w_pos), subject=subject)
    neg = ClassificationInstance(label=sgn(wp.w_neg) * -1, weight=abs(wp.w_neg), subject=subject)
    return pos, neg


def dr_weights(
    data: Dataset,
    propensity: PropensityModel,
    outcome: OutcomeModel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized weights (W_1, W_-1) for every subject.

    Propensities are the model's clipped predictions, which bounds
    |W_a| <= (|Y| + |Q|) / lo. outcome None means Q-hat identically zero
    (the outcome-weighted-learning special case).
    """
    pi_pos, pi_neg = propensity.probs(data.X)
    if outcome is None:
        q_pos = np.zeros(data.n)
        q_neg = np.zeros(data.n)
    else:
        q_pos = outcome.predict_arm(data.X, 1)
        q_neg = outcome.predict_arm(data.X, -1)
    ind_pos = (data.A == 1).astype(float)
    ind_neg = 1.0 - ind_pos
    w_pos = data.Y * ind_pos / pi_pos - (ind_pos - pi_pos) / pi_pos * q_pos
    w_neg = data.Y * ind_neg / pi_neg - (ind_neg - pi_neg) / pi_neg * q_neg
    return w_pos, w_neg


def weight_pairs(
    data: Dataset,
    propensity: PropensityModel,
    outcome: OutcomeModel | None = None,
) -> list[WeightPair]:
    w_pos, w_neg = dr_weights(data, propensity, outcome)
    return [WeightPair(float(a), float(b)) for a, b in zip(w_pos, w_neg)]
