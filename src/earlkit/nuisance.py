"""Nuisance models: logistic propensity scores and least-squares Q-functions.

The propensity score pi(a; x) is fit by iteratively reweighted least squares
(Newton steps with step halving, so the penalized log-likelihood never
decreases). The Q-function is fit by ordinary least squares: the normal
equations Z'Z theta = Z'Y solved by the Cholesky factor L of G = Z'Z. One
rank rule serves every such solve: G counts as singular when its Cholesky
factorization fails or min_j L_jj^2 / G_jj < 1e-10, and a
singular design takes an automatic minimal-ridge fallback,
(G + 1e-8 I) theta = Z'Y. L_jj^2 / G_jj is the share of column j's squared
norm left once the columns before it are projected out, so rescaling a
column leaves the rule unchanged. An _OutcomeGram holds G and Z'Y over
every row of a dataset, so the fit on any subset of its rows is a downdate
of the normal equations (Golub & Van Loan, Matrix Computations, 4th ed.,
section 6.5), with no copy of the subset's design; fit_outcome is its fit
with no row held out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    ConvergenceError,
    Dataset,
    DomainError,
    FeatureMap,
    NumericalError,
    ShapeError,
    _rows,
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
# the rank rule of the outcome normal equations: G is singular when its
# Cholesky factor L fails or min_j L_jj^2 / G_jj falls below this. Over the
# 1080 CV splits of scenarios 1-3, n in {200, 500, 2500}, the linear*a, CC
# and II outcome maps and 4 data seeds, both the direct and the downdated G
# of the full-rank ones had ratios >= 7.4e-5, and the factorization failed
# on every rank-deficient one; with covariate 0 scaled by 1e-6 or 1e6 the
# same held. Two collinear columns give ratios near 1e-15.
RANK_TOL = 1e-10


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


# the real number types a clip bound may have; concrete types, since an
# isinstance check against numbers.Real costs more than the rest of the check
_REAL = (int, float, np.integer, np.floating)


def _check_clip(clip) -> tuple[float, float]:
    """The (lo, hi) of clip: two real numbers with 0 < lo <= hi < 1, else a DomainError."""
    try:
        lo, hi = clip
    except (TypeError, ValueError):
        raise DomainError(f"clip must hold two bounds (lo, hi), got {clip!r}") from None
    if not (isinstance(lo, _REAL) and isinstance(hi, _REAL) and 0.0 < lo <= hi < 1.0):
        raise DomainError(f"clip bounds must satisfy 0 < lo <= hi < 1, got {clip}")
    return float(lo), float(hi)


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
    ll = float(np.sum(y * eta - (np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta))))))
    if ridge > 0.0:
        ll -= 0.5 * ridge * float(np.sum((gamma * pen_mask) ** 2))
    return ll


def fit_propensity(
    data: Dataset,
    feature_map: FeatureMap,
    ridge: float = 0.0,
    clip: tuple[float, float] = (0.01, 0.99),
) -> PropensityModel:
    """Fit pi(1; x) = expit{gamma' features(x)} by penalized IRLS.

    The intercept is never penalized. At ridge 0, the default of every
    caller, no penalty term is formed: the score, Hessian and
    log-likelihood are the unpenalized ones, which a zero penalty would
    leave bit for bit unchanged. The fit converges when the largest
    score component falls below 1e-8; it stops with converged=False after
    100 iterations, or earlier when no step length keeps the penalized
    log-likelihood from decreasing. A Newton step that is not finite or
    whose norm exceeds 1e12 fails the fit.
    Raises ConvergenceError for perfectly separated data with ridge = 0 and
    NumericalError if the weighted normal equations are singular.
    """
    ridge = float(ridge)
    if ridge < 0:
        raise DomainError(f"ridge must be nonnegative, got {ridge}")
    lo, hi = _check_clip(clip)
    if ridge == 0.0 and data.A.min() == data.A.max():
        raise ConvergenceError(
            "all subjects received the same treatment; the unpenalized fit "
            "diverges, refit with ridge > 0"
        )
    Z = feature_map.design(data.X)
    y = (data.A == 1).astype(float)
    q = Z.shape[1]
    pen_mask = None
    if ridge > 0.0:
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
        score = Z.T @ (y - mu)
        if pen_mask is not None:
            score -= ridge * (gamma * pen_mask)
        if np.max(np.abs(score)) < SCORE_TOL:
            converged = True
            n_iter -= 1
            break
        w = mu * (1.0 - mu)
        H = Z.T @ (w[:, None] * Z)
        if pen_mask is not None:
            H[np.diag_indices(q)] += ridge * pen_mask
        try:
            delta = np.linalg.solve(H, score)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular weighted normal equations: {exc}") from exc
        # fails for a NaN or infinite step too, and for |delta| > 1e12
        if not float(delta @ delta) <= 1e24:
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


def _cholesky_solve(G: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """theta solving G theta = r through the Cholesky factor L of G, or None
    where G fails the rank rule: no factor, or min_j L_jj^2 / G_jj below
    RANK_TOL."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    # a factor exists only where every G_jj > 0 (a zero column has no pivot)
    if np.min(np.diagonal(L) ** 2 / np.diagonal(G)) < RANK_TOL:
        return None
    return np.linalg.solve(L.T, np.linalg.solve(L, r))


def fit_outcome(data: Dataset, feature_map: FeatureMap) -> OutcomeModel:
    """Least-squares fit of Y on features(x, a).

    Solves the normal equations G theta = Z'Y, G = Z'Z, by the Cholesky
    factor L of G. A rank-deficient design, one whose factorization fails
    or has min_j L_jj^2 / G_jj < 1e-10 (a rule that rescaling a column
    leaves unchanged), warns, triggers an automatic minimal ridge (1e-8 on
    the diagonal of G) and sets ridge_fallback on the returned model.
    """
    return _OutcomeGram(data, feature_map).fit()


class _OutcomeGram:
    """The outcome design Z of every row of a dataset, with G = Z'Z and
    r = Z'Y, from which the least-squares fit on a subset of the rows is a
    downdate.

    fit(keep) fits on the rows where keep holds: it solves
    (G - Zh'Zh) theta = r - Zh'Y_h, where Zh is one column-major copy of the
    other rows, under the rank rule. A downdated G that fails the rule is
    refit on the kept rows' own G and Z'Y, formed from their rows of Z: the
    1e-8 ridge would amplify the downdate's rounding. fit() fits on every
    row, from G itself, with nothing to downdate or refit. Where the G
    solved fails the rule, the fit warns and solves it with the 1e-8 ridge.
    A warning also flags fitted values on the kept rows beyond 10x their
    max |Y|.
    """

    def __init__(self, data: Dataset, feature_map: FeatureMap):
        self.data = data
        self.feature_map = feature_map
        self.Z = feature_map.design(data.X, data.A)
        self.G = self.Z.T @ self.Z
        self.r = self.Z.T @ data.Y

    def fit(self, keep: np.ndarray | None = None) -> OutcomeModel:
        """The fit on the rows where keep holds (None: every row)."""
        if keep is None:
            G, r, y = self.G, self.r, self.data.Y
        else:
            hold = ~keep
            Zh, y = _rows(self.Z, hold), self.data.Y[keep]
            G, r = self.G - Zh.T @ Zh, self.r - Zh.T @ self.data.Y[hold]
        theta = _cholesky_solve(G, r)
        if theta is None and keep is not None:
            Zk = _rows(self.Z, keep)
            G, r = Zk.T @ Zk, Zk.T @ y
            theta = _cholesky_solve(G, r)
        fallback = theta is None
        if fallback:
            warnings.warn(
                "outcome design is rank deficient; using a 1e-8 ridge fallback",
                stacklevel=3,
            )
            G = G.copy()
            G[np.diag_indices(G.shape[0])] += 1e-8
            theta = np.linalg.solve(G, r)
        fitted = self.Z @ theta
        fitted_max = float(np.max(np.abs(fitted if keep is None else fitted[keep])))
        y_max = float(np.max(np.abs(y)))
        if y_max > 0 and fitted_max > 10.0 * y_max:
            warnings.warn(
                f"fitted |Q| up to {fitted_max:.3g} exceeds 10x max |Y| = {10 * y_max:.3g}; "
                "outcome predictions may be poorly bounded",
                stacklevel=3,
            )
        return OutcomeModel(feature_map=self.feature_map, theta=theta, ridge_fallback=fallback)


@dataclass(frozen=True)
class NuisanceSpec:
    """Recipe for fitting the two nuisance models on a dataset.

    outcome_map None means no outcome model (Q-hat identically zero). A
    ridge that is not finite and nonnegative, or clip bounds outside
    0 < lo <= hi < 1, is a ConfigError.
    """

    propensity_map: FeatureMap
    outcome_map: FeatureMap | None
    ridge: float = 0.0
    clip: tuple[float, float] = (0.01, 0.99)

    def __post_init__(self):
        if not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ConfigError(f"ridge must be finite and nonnegative, got {self.ridge}")
        try:
            _check_clip(self.clip)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None

    def fit_propensity(self, data: Dataset) -> PropensityModel:
        """The propensity model of this spec fit on data."""
        return fit_propensity(data, self.propensity_map, ridge=self.ridge, clip=self.clip)

    def fit(self, data: Dataset) -> tuple[PropensityModel, OutcomeModel | None]:
        prop = self.fit_propensity(data)
        out = None if self.outcome_map is None else fit_outcome(data, self.outcome_map)
        return prop, out
