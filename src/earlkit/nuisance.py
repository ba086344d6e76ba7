"""Nuisance models: logistic propensity scores and least-squares Q-functions.

The propensity score pi(a; x) is fit by iteratively reweighted least squares
(Newton steps with step halving, so the penalized log-likelihood never
decreases). The Q-function is fit by ordinary least squares with an
automatic minimal-ridge fallback on rank deficiency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    Dataset,
    DomainError,
    FeatureMap,
    NumericalError,
    ShapeError,
)

__all__ = [
    "PropensityModel",
    "OutcomeModel",
    "NuisanceSpec",
    "fit_propensity",
    "predict_propensity",
    "fit_outcome",
    "predict_q",
]

SCORE_TOL = 1e-8
MAX_IRLS_ITER = 100
# |gamma| beyond this on the logit scale means fitted probabilities are
# saturated to machine precision; with no ridge that signals separation.
SEPARATION_COEF = 30.0


def _expit(x) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)) of an array; 0.5 at 0. exp's
    argument is held in [-700, 700], where it neither overflows nor
    underflows, so no input raises a floating-point warning."""
    z = np.maximum(x, -700.0)
    np.minimum(z, 700.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _check_clip(clip) -> tuple[float, float]:
    lo, hi = float(clip[0]), float(clip[1])
    if not (0.0 < lo <= hi < 1.0):
        raise DomainError(f"clip bounds must satisfy 0 < lo <= hi < 1, got {clip}")
    return lo, hi


@dataclass(frozen=True)
class PropensityModel:
    """Fitted logistic model for pi(1; x), with clipping bounds.

    Predictions are clipped into [lo, hi] for both arms; the pair of raw
    probabilities sums to one, the clipped pair may not.
    """

    feature_map: FeatureMap
    gamma: np.ndarray
    clip: tuple[float, float] = (0.01, 0.99)
    ridge: float = 0.0
    converged: bool = True
    n_iter: int = 0
    loglik_path: tuple[float, ...] = ()

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        if self.feature_map.uses_treatment:
            raise ShapeError("propensity feature map must be over x only")
        if gamma.shape[0] != self.feature_map.q:
            raise ShapeError(
                f"gamma has length {gamma.shape[0]}, map has {self.feature_map.q} terms"
            )
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "clip", _check_clip(self.clip))

    def linear_predictor(self, X) -> np.ndarray:
        return self.feature_map.design(np.asarray(X, dtype=float)) @ self.gamma

    def raw_prob(self, X, a: int) -> np.ndarray:
        """Unclipped pi(a; x); the two arms sum to one exactly."""
        p1 = _expit(self.linear_predictor(X))
        return p1 if a == 1 else 1.0 - p1

    def probs(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Clipped (pi(1; x), pi(-1; x)) from one prediction, each inside [lo, hi]."""
        p1 = self.raw_prob(X, 1)
        lo, hi = self.clip
        return np.clip(p1, lo, hi), np.clip(1.0 - p1, lo, hi)

    def prob(self, X, a: int) -> np.ndarray:
        """Clipped pi(a; x), guaranteed inside [lo, hi]."""
        if a not in (-1, 1):
            raise DomainError(f"treatment arm must be -1 or +1, got {a}")
        return self.probs(X)[0 if a == 1 else 1]


def predict_propensity(model: PropensityModel, x, a: int) -> float:
    """Clipped propensity for a single subject."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(model.prob(x[None, :], a)[0])


def _penalized_loglik(eta, y, gamma, ridge, pen_mask) -> float:
    # y*eta - log(1 + exp(eta)), computed stably
    ll = y * eta - (np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta))))
    pen = 0.5 * ridge * float(np.sum((gamma * pen_mask) ** 2))
    return float(np.sum(ll)) - pen


def fit_propensity(
    data: Dataset,
    feature_map: FeatureMap,
    ridge: float = 0.0,
    clip: tuple[float, float] = (0.01, 0.99),
) -> PropensityModel:
    """Fit pi(1; x) = expit{gamma' features(x)} by penalized IRLS.

    The intercept is never penalized. Convergence is declared when the
    largest score component falls below 1e-8 or after 100 iterations.
    Raises ConvergenceError for perfectly separated data with ridge = 0 and
    NumericalError if the weighted normal equations are singular.
    """
    ridge = float(ridge)
    if ridge < 0:
        raise DomainError(f"ridge must be nonnegative, got {ridge}")
    lo, hi = _check_clip(clip)
    if ridge == 0.0 and len(np.unique(data.A)) < 2:
        raise ConvergenceError(
            "all subjects received the same treatment; the unpenalized fit "
            "diverges, refit with ridge > 0"
        )
    Z = feature_map.design(data.X)
    y = (data.A == 1).astype(float)
    q = Z.shape[1]
    pen_mask = np.array(
        [0.0 if t == ("1",) else 1.0 for t in feature_map.terms], dtype=float
    )
    gamma = np.zeros(q)
    eta = Z @ gamma
    mu = _expit(eta)  # refreshed at every accepted step; the separation check reads it too
    ll = _penalized_loglik(eta, y, gamma, ridge, pen_mask)
    path = [ll]
    converged = False
    n_iter = 0
    for n_iter in range(1, MAX_IRLS_ITER + 1):
        score = Z.T @ (y - mu) - ridge * (gamma * pen_mask)
        if np.max(np.abs(score)) < SCORE_TOL:
            converged = True
            n_iter -= 1
            break
        w = mu * (1.0 - mu)
        H = Z.T @ (w[:, None] * Z)
        H[np.diag_indices(q)] += ridge * pen_mask
        try:
            delta = np.linalg.solve(H, score)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular weighted normal equations: {exc}") from exc
        if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 1e12:
            raise NumericalError("weighted normal equations are numerically singular")
        # step halving keeps the penalized log-likelihood nondecreasing
        t = 1.0
        while t >= 1e-12:
            cand = gamma + t * delta
            cand_eta = Z @ cand
            cand_ll = _penalized_loglik(cand_eta, y, cand, ridge, pen_mask)
            if cand_ll >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            t *= 0.5
        else:
            break  # no ascent direction left at machine precision
        gamma, eta, ll = cand, cand_eta, cand_ll
        mu = _expit(eta)
        if ll < path[-1] - 1e-9 * (1.0 + abs(path[-1])):
            raise NumericalError("IRLS objective decreased; numerical breakdown")
        path.append(ll)
    if ridge == 0.0:
        # separation: every fitted probability saturates on its own label,
        # or the coefficients diverged on the logit scale
        resid = np.max(np.abs(y - mu))
        if resid < 1e-6 or np.max(np.abs(gamma)) > SEPARATION_COEF:
            raise ConvergenceError(
                "perfect separation suspected (fitted probabilities saturated); "
                "refit with ridge > 0"
            )
    return PropensityModel(
        feature_map=feature_map,
        gamma=gamma,
        clip=(lo, hi),
        ridge=ridge,
        converged=converged,
        n_iter=n_iter,
        loglik_path=tuple(path),
    )


@dataclass(frozen=True)
class OutcomeModel:
    """Linear Q-function model: Q(x, a) = theta' features(x, a)."""

    feature_map: FeatureMap
    theta: np.ndarray
    ridge_fallback: bool = False

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if theta.shape[0] != self.feature_map.q:
            raise ShapeError(
                f"theta has length {theta.shape[0]}, map has {self.feature_map.q} terms"
            )
        object.__setattr__(self, "theta", theta)

    def predict(self, X, A) -> np.ndarray:
        return self.feature_map.design(X, A) @ self.theta

    def predict_arm(self, X, a: int) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        return self.predict(X, np.full(X.shape[0], a, dtype=float))


def predict_q(model: OutcomeModel, x, a: int) -> float:
    """Fitted Q(x, a) for a single subject."""
    if a not in (-1, 1):
        raise DomainError(f"treatment arm must be -1 or +1, got {a}")
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(model.predict_arm(x[None, :], a)[0])


def fit_outcome(data: Dataset, feature_map: FeatureMap) -> OutcomeModel:
    """Least-squares fit of Y on features(x, a).

    A rank-deficient design triggers an automatic minimal ridge (1e-8 on
    the diagonal) and sets ridge_fallback on the returned model.
    """
    Z = feature_map.design(data.X, data.A)
    theta, _, rank, _ = np.linalg.lstsq(Z, data.Y, rcond=None)
    fallback = rank < Z.shape[1]
    if fallback:
        warnings.warn(
            "outcome design is rank deficient; using a 1e-8 ridge fallback",
            stacklevel=2,
        )
        G = Z.T @ Z
        G[np.diag_indices(G.shape[0])] += 1e-8
        theta = np.linalg.solve(G, Z.T @ data.Y)
    fitted_max = float(np.max(np.abs(Z @ theta))) if data.n else 0.0
    y_max = float(np.max(np.abs(data.Y)))
    if y_max > 0 and fitted_max > 10.0 * y_max:
        warnings.warn(
            f"fitted |Q| up to {fitted_max:.3g} exceeds 10x max |Y| = {10 * y_max:.3g}; "
            "outcome predictions may be poorly bounded",
            stacklevel=2,
        )
    return OutcomeModel(feature_map=feature_map, theta=theta, ridge_fallback=fallback)


@dataclass(frozen=True)
class NuisanceSpec:
    """Recipe for fitting the two nuisance models on a dataset.

    outcome_map None means no outcome model (Q-hat identically zero).
    """

    propensity_map: FeatureMap
    outcome_map: FeatureMap | None
    ridge: float = 0.0
    clip: tuple[float, float] = (0.01, 0.99)

    def fit(self, data: Dataset) -> tuple[PropensityModel, OutcomeModel | None]:
        prop = fit_propensity(data, self.propensity_map, ridge=self.ridge, clip=self.clip)
        out = None if self.outcome_map is None else fit_outcome(data, self.outcome_map)
        return prop, out
