"""Regularized weighted surrogate-risk minimization with cross-fitting.

The estimator minimizes

    P_n[ |W_1| phi{sgn(W_1) f(X)} + |W_-1| phi{-sgn(W_-1) f(X)} ] + lam ||beta||^2

over linear rules f(x) = beta0 + beta' features(x); the intercept is not
penalized. This is weighted classification with two instances per subject
(Zhang et al. 2012, Stat 1:103), held as one (2, n) array W = (W_1, -W_-1)
of signed instance weights: an instance has the weight |W| and the label
sgn(W). Every loss is solved by the same damped Newton iterations with
backtracking. A hinge problem is built as the Huber-smoothed hinge of
width 1e-5 (Chapelle 2007, Neural Computation 19:1155; Nesterov 2005,
Math. Programming 103:127), which the iterations minimize; the solve then
reports the hinge objective at the point found. A smoothed-hinge
objective is piecewise quadratic along a line, so each of its line
searches starts at the exact 1-D minimizer rather than at the full Newton
step; that first trial point still has to pass the Armijo test, and the
search halves it after a failure.
Cross-fitting partitions the sample into K folds, fits the nuisance models
on fold I_k, runs the weighted minimization on the complement, and
averages the K coefficient vectors.

Lambda is chosen by cross-validated held-out value, the cross-fitted AIPW
score: each CV split fits the nuisance models once on its training folds,
and the held fold is scored with the doubly robust weights under those
models (Chernozhukov et al. 2018, Econometrics J. 21:C1). The rule design
is built once for all rows. Like every design in the package it is stored
column-major, and each split takes its training rows and its held rows as
one column-major copy each, so the solver's products read contiguous
columns (glmnet stores its design by column for the same reason). Each CV
split builds its training problem once, on its rows of that design, and
solves it down the sorted grid, from the largest lambda to the smallest,
each solve warm-started from the previous lambda's coefficients and
restarted from beta = 0 after a failed cell (Friedman, Hastie &
Tibshirani 2010, J. Stat. Softw. 33(1)). A warm solve after a converged
one starts from that solve's evaluated point: the margins, the loss part
of the gradient and the Hessian's row weights at its coefficients, none of
which depends on lambda. Every path solve stops on the same config.tol
gradient test as a cold fit, so only a held-out score within that
tolerance of 0 can flip a decision.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .core import (
    ConfigError,
    DataError,
    Dataset,
    EarlError,
    FeatureMap,
    LinearRule,
    NumericalError,
    _rows,
    stream,
)
from .losses import SurrogateLoss, _phi, _shared, _slopes, get_loss
from .nuisance import NuisanceSpec, OutcomeModel, PropensityModel, _OutcomeGram
from .value import _dr_value
from .weights import WeightPair, dr_weights

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "EarlConfig",
    "EarlFit",
    "FoldArtifact",
    "LambdaSelection",
    "earl_objective",
    "earl_fit",
    "earl_fit_crossfit",
    "select_lambda",
    "fit_earl_pipeline",
]

DEFAULT_LAMBDA_GRID = tuple(2.0 ** k for k in range(-5, 6))

_ARMIJO = 1e-4
# the largest lambda whose ridge term 2 lambda is finite
_MAX_LAMBDA = np.finfo(float).max / 2.0


def _check_lambda(what: str, v: float) -> float:
    v = float(v)
    if not 0.0 <= v <= _MAX_LAMBDA:
        raise ConfigError(
            f"{what} must be finite, nonnegative and at most {_MAX_LAMBDA:.6g} "
            f"(where 2 lambda is finite), got {v}"
        )
    return v


@dataclass(frozen=True)
class EarlConfig:
    """Estimator configuration.

    lam is the ridge weight on the rule coefficients (the JSON/CLI key is
    "lambda"); feature_map is the map for f over x only, without an
    intercept term (None means the raw covariates), and any other map is
    a ConfigError; k_folds is the number of cross-fitting folds K and
    cv_folds the number of lambda-selection folds, each an integer. Two
    solver values are fixed: tol, the sup-norm of the gradient at which a
    solve has converged, and max_iter, the most Newton steps a solve takes.
    """

    tol: ClassVar[float] = 1e-8
    max_iter: ClassVar[int] = 5000

    loss: str = "logistic"
    lam: float = 0.0
    feature_map: FeatureMap | None = None
    k_folds: int = 2
    cv_folds: int = 10
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    seed: int = 0

    def __post_init__(self):
        get_loss(self.loss)
        _check_lambda("lambda", self.lam)
        fm = self.feature_map
        if fm is not None and (fm.uses_treatment or fm.has_intercept):
            raise ConfigError("the rule feature map must be over x only, without an intercept")
        for name in ("k_folds", "cv_folds"):
            k = getattr(self, name)
            if not isinstance(k, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {k!r}")
            if k < 2:
                raise ConfigError(f"{name} must be at least 2, got {k}")
        grid = tuple(_check_lambda("lambda_grid values", v) for v in self.lambda_grid)
        if len(grid) == 0:
            raise ConfigError("lambda_grid must be nonempty")
        object.__setattr__(self, "lambda_grid", grid)

    def rule_map(self, p: int) -> FeatureMap:
        return self.feature_map if self.feature_map is not None else FeatureMap.linear(p, intercept=False)


@dataclass(frozen=True)
class FoldArtifact:
    """Everything fit on one cross-fitting fold."""

    nuisance_index: np.ndarray  # I_k, used to fit the nuisance models
    erm_index: np.ndarray  # complement, used for the weighted minimization
    rule: LinearRule
    propensity: PropensityModel
    outcome: OutcomeModel | None
    objective_value: float


@dataclass(frozen=True)
class EarlFit:
    rule: LinearRule
    objective_value: float
    lambda_used: float
    n_iter: int
    grad_norm: float
    converged: bool
    fold_artifacts: tuple[FoldArtifact, ...] | None = None

    @property
    def per_fold_rules(self) -> tuple[LinearRule, ...] | None:
        """Each cross-fitting fold's rule; None for a fit without folds."""
        return None if self.fold_artifacts is None else tuple(a.rule for a in self.fold_artifacts)


def _as_weight_arrays(weights, n: int) -> np.ndarray:
    if isinstance(weights, tuple) and len(weights) == 2 and not isinstance(weights[0], WeightPair):
        w_pos = np.asarray(weights[0], dtype=float).reshape(-1)
        w_neg = np.asarray(weights[1], dtype=float).reshape(-1)
    else:
        w_pos = np.array([wp.w_pos for wp in weights], dtype=float)
        w_neg = np.array([wp.w_neg for wp in weights], dtype=float)
    if w_pos.shape[0] != n or w_neg.shape[0] != n:
        raise DataError(f"weights must align with the {n} data rows")
    W = np.stack([w_pos, -w_neg])
    if not np.all(np.isfinite(W)):
        raise DataError("weights must be finite")
    return W


class _Problem:
    """Precomputed pieces of the weighted surrogate objective in b = (beta0, beta).

    W holds the signed instance weights, a row per instance and a column per
    subject; an instance has the margin sgn(W) s, with s = Z b. margins()
    evaluates a point b once: the loss pieces a subject's margins share (for
    the logistic loss, every transcendental) and each instance's phi.
    value() gives the objective from them and slopes() the gradient and the
    Hessian's row weights, which the solver asks for only at accepted
    points; hessian() forms the Hessian from those weights. Each sum adds a
    subject's instances first, then the subjects. Of these only value(),
    the gradient's ridge term and hessian() depend on lam. report() turns
    the solver's last point and objective into the ones a solve returns.
    """

    def __init__(self, Z: np.ndarray, W: np.ndarray, loss: SurrogateLoss, lam: float):
        self.Z = Z
        self.n, self.q = Z.shape
        self.aw = np.abs(W)
        # the loss takes -t = -sgn(W) s; a gradient row is |W| phi'(t) sgn(W)
        # = (-|W| sgn(W)) (-phi'(t)), where every sign flip is exact
        self.neg = np.where(W >= 0.0, -1.0, 1.0)
        self.gw = self.aw * self.neg
        self.loss = loss
        self.lam = float(lam)
        self._diag = np.arange(1, self.q)  # the penalized diagonal of hessian()
        # (b, margins(b), loss_slopes at b) from the last solve of this
        # problem if it converged at b, else None; see _solve
        self.carry = None

    # phi, and -phi' with phi'', at the margins t = -mt; the smoothed hinge
    # below overrides both
    def _phi(self, mt: np.ndarray, shared) -> np.ndarray:
        return _phi(self.loss.kind, mt, shared)

    def _slopes(self, mt: np.ndarray, shared, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _slopes(self.loss.kind, mt, shared, phi)

    def margins(self, b: np.ndarray):
        s = self.Z @ b
        shared = _shared(self.loss.kind, s)
        mt = self.neg * s
        return mt, shared, self._phi(mt, shared)

    def value(self, b: np.ndarray, m) -> float:
        # the sum over n is np.mean's arithmetic without its call overhead
        risk = float((self.aw * m[2]).sum(axis=0).sum()) / self.n
        return risk + self.lam * float(b[1:] @ b[1:])

    def loss_slopes(self, m) -> tuple[np.ndarray, np.ndarray]:
        """The loss part of the gradient and the Hessian's row weights at
        the point m was evaluated at; neither depends on lam."""
        p, h = self._slopes(*m)
        return self.Z.T @ ((self.gw * p).sum(axis=0) / self.n), (self.aw * h).sum(axis=0) / self.n

    def ridge(self, gl: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The gradient at b at the current lam from its loss part gl."""
        g = gl.copy()
        g[1:] += 2.0 * self.lam * b[1:]
        return g

    def slopes(self, b: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
        gl, w = self.loss_slopes(m)
        return self.ridge(gl, b), w

    def hessian(self, w: np.ndarray) -> np.ndarray:
        H = self.Z.T @ (w[:, None] * self.Z)
        H[self._diag, self._diag] += 2.0 * self.lam
        return H

    def first_step(self, b: np.ndarray, m, d: np.ndarray, gd: float) -> float:
        """The step length the line search tries first along d from b, with
        m = margins(b) and gd = g d: the full Newton step."""
        return 1.0

    def report(self, b: np.ndarray, f: float) -> tuple[np.ndarray, float]:
        """The point and objective a solve returns, from the minimizer's
        point b and its objective f: these unchanged."""
        return b, f

    def objective(self, b: np.ndarray) -> float:
        return self.value(b, self.margins(b))

    def gradient(self, b: np.ndarray) -> np.ndarray:
        return self.slopes(b, self.margins(b))[0]


class _SmoothedHinge(_Problem):
    """The hinge problem with each kink rounded off over a width delta.

    In r = 1 - t the loss is 0 for r <= 0, r^2 / (2 delta) for
    0 < r <= delta and r - delta/2 beyond, so it lies at most delta/2
    below the hinge. A margin with r = delta counts as curved. The solver
    minimizes this smoothed objective; report() gives the hinge's own.
    """

    delta = 1e-5

    def report(self, b: np.ndarray, f: float) -> tuple[np.ndarray, float]:
        """The hinge objective at b, or beta = 0 where that is lower. The
        hinge is 1 at margin 0, so the objective at beta = 0 is
        mean(|W_1| + |W_-1|) at any lam; a carry at b is dropped where
        beta = 0 wins."""
        mt = self.neg * (self.Z @ b)
        f = self.value(b, (mt, None, _phi(self.loss.kind, mt, None)))
        zero = float(self.aw.sum(axis=0).sum()) / self.n
        if zero < f:
            b, f, self.carry = np.zeros(self.q), zero, None
        return b, f

    def _phi(self, mt: np.ndarray, shared) -> np.ndarray:
        r, d = 1.0 + mt, self.delta
        return np.where(r > d, r - 0.5 * d, np.where(r > 0.0, r * r / (2.0 * d), 0.0))

    def _slopes(self, mt: np.ndarray, shared, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = 1.0 + mt
        return np.clip(r / self.delta, 0.0, 1.0), ((r > 0.0) & (r <= self.delta)) / self.delta

    def first_step(self, b: np.ndarray, m, d: np.ndarray, gd: float) -> float:
        """The exact minimizer t* > 0 of the objective F(b + t d).

        An instance's r(t) = r + t e is curved while 0 < r(t) < delta, so
        F''(t) is the ridge term 2 lam |d_beta|^2 plus w e^2 / (n delta) on
        each instance's t-interval. F' is integrated from F'(0) = gd across
        the sorted interval ends to its first root. Past the last end F'
        is constant; with no ridge term it is the slope of the instances
        whose r grows, which is >= 0, so F is flat there and t* is that
        end. Anything but a finite t* > 0 falls back to 1.
        """
        zd = self.Z @ d
        r = 1.0 + m[0].ravel()
        e = (self.neg * zd).ravel()
        h = self.aw.ravel() * e * e / (self.n * self.delta)
        on = h > 0.0
        r, e, h = r[on], e[on], h[on]
        # where r(t) crosses 0 and delta
        t0, t1 = -r / e, (self.delta - r) / e
        lo, hi = np.maximum(np.minimum(t0, t1), 0.0), np.maximum(t0, t1)
        on = hi > 0.0
        ends = np.concatenate([lo[on], hi[on]])
        order = np.argsort(ends)
        knots = np.concatenate([[0.0], ends[order]])
        ridge = 2.0 * self.lam * float(d[1:] @ d[1:])
        # curv[j] is F'' between knots j and j + 1, slope[j] is F' at knot j
        curv = ridge + np.concatenate([[0.0], np.cumsum(np.concatenate([h[on], -h[on]])[order])])
        slope = gd + np.concatenate([[0.0], np.cumsum(curv[:-1] * np.diff(knots))])
        up = np.flatnonzero(slope >= 0.0)
        if up.size == 0:
            t = knots[-1] - (slope[-1] / ridge if ridge > 0.0 else 0.0)
        else:
            j = up[0] - 1  # F' reaches 0 between knots j and j + 1; j < 0: gd >= 0
            t = knots[j] - slope[j] / curv[j] if j >= 0 else 0.0
        return float(t) if np.isfinite(t) and t > 0.0 else 1.0


def _rule_design(X: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """The rule design [1, fm(X)]: the column-major design of fm with an
    intercept term in front, filled in one pass."""
    return fm._with_intercept.design(X)


def _build_problem(data: Dataset, weights, config: EarlConfig, Z=None) -> tuple[_Problem, FeatureMap]:
    """The weighted problem on data at config.lam, a _SmoothedHinge for the
    hinge loss; Z, if given, is the rule design of data's rows (rows of a
    larger design, since a design row depends only on its data row)."""
    fm = config.rule_map(data.p)
    W = _as_weight_arrays(weights, data.n)
    if Z is None:
        Z = _rule_design(data.X, fm)
    loss = get_loss(config.loss)
    return (_Problem if loss.smooth else _SmoothedHinge)(Z, W, loss, config.lam), fm


def earl_objective(rule: LinearRule, weights, data: Dataset, loss, lam: float) -> float:
    """The penalized weighted surrogate risk of a rule on a dataset.

    weights may be a sequence of WeightPair or a (W_1, W_-1) array pair
    aligned with the data rows. The intercept is excluded from the penalty.
    """
    Z = _rule_design(data.X, rule.feature_map)
    prob = _Problem(Z, _as_weight_arrays(weights, data.n), get_loss(loss), float(lam))
    b = np.concatenate([[rule.beta0], rule.beta])
    return prob.objective(b)


def _descent_directions(H: np.ndarray, g: np.ndarray):
    """Newton directions d under increasing damping, then -g, each with
    its slope g d.

    The line search takes the first direction it can step along. Later
    ones serve where the Hessian is singular along a flat direction (the
    unpenalized intercept, or any direction at lam = 0, when no
    smoothed-hinge margin is curved): the barely damped Newton step there
    is too long for any step length the line search tries.
    """
    q = H.shape[0]
    scale = None
    for damp in (0.0, 1e-12, 1e-8, 1e-4, 1.0):
        if damp > 0.0 and scale is None:
            # needed only once the undamped direction is rejected
            scale = max(float(np.abs(H).max()), 1e-30)
        try:
            d = np.linalg.solve(H if damp == 0.0 else H + damp * scale * np.eye(q), -g)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(d).all() and (gd := float(g @ d)) < 0.0:
            yield d, gd
    d = -g
    yield d, float(g @ d)


def _solve(prob: _Problem, config: EarlConfig, b: np.ndarray | None = None):
    """Minimize prob at its lam by damped Newton iterations from b (None:
    beta = 0), until the gradient's sup-norm drops below config.tol or
    config.max_iter steps are taken. Returns prob.report's point and
    objective, the step count, the sup-norm and whether it passed.

    A solve that converges leaves its last point on prob.carry. The next
    solve on prob started from that same array b, at any lam, takes b's
    margins and loss slopes from it instead of evaluating b again.
    """
    carry, prob.carry = prob.carry, None
    if b is None:
        b = np.zeros(prob.q)
    if carry is not None and carry[0] is b:
        _, m, slopes = carry
    else:
        m, slopes = prob.margins(b), None
    f = prob.value(b, m)
    if not math.isfinite(f):
        raise NumericalError("objective is non-finite at the starting coefficient vector")
    # no iterate is modified in place, so best_b can hold one by reference
    best_f, best_b = f, b
    converged = False
    grad_norm = np.inf
    stall = 0
    steps = 0
    for _ in range(config.max_iter):
        if slopes is None:
            slopes = prob.loss_slopes(m)
        g, w = prob.ridge(slopes[0], b), slopes[1]
        # NaN and inf carry through the max, so one pass tests finiteness too
        grad_norm = float(np.abs(g).max())
        if not grad_norm < np.inf:
            raise NumericalError(f"non-finite gradient after {steps} Newton steps")
        if grad_norm < config.tol:
            converged = True
            break
        for d, gd in _descent_directions(prob.hessian(w), g):
            t = prob.first_step(b, m, d, gd)
            # Armijo with an absolute-noise allowance so steps near machine
            # precision are not rejected spuriously
            while t >= 1e-14:
                bn = b + d if t == 1.0 else b + t * d
                mn = prob.margins(bn)
                fn = prob.value(bn, mn)
                if math.isfinite(fn) and fn <= f + _ARMIJO * t * gd + 1e-14 * (1.0 + abs(f)):
                    break
                t *= 0.5
            if t >= 1e-14:
                break
        else:
            break
        b, m, slopes = bn, mn, None
        steps += 1
        if fn < best_f:
            best_f, best_b = fn, b
        if fn >= f - 1e-14 * (1.0 + abs(f)):
            stall += 1
            if stall >= 10:
                break
        else:
            stall = 0
        f = fn
    if converged:
        prob.carry = (b, m, slopes)
    else:
        b, f = best_b, best_f
        grad_norm = float(np.abs(prob.gradient(b)).max())
        converged = grad_norm < config.tol
    return (*prob.report(b, f), steps, grad_norm, converged)


def earl_fit(data: Dataset, weights, config: EarlConfig) -> EarlFit:
    """Minimize the penalized weighted surrogate risk on one sample.

    Smooth losses run damped Newton iterations until the sup-norm of the
    gradient drops below config.tol or config.max_iter is reached. A hinge
    problem is built as the Huber-smoothed hinge of width delta = 1e-5 and
    runs the same solve, with the same tol and max_iter; each of its line
    searches starts at the exact minimizer along the Newton direction and
    backtracks from there under the same Armijo test, and grad_norm and
    converged describe the smoothed objective. n_iter counts the Newton
    steps taken. Since the smoothed loss lies within delta/2 of the hinge,
    a converged solve certifies that the hinge objective is within
    1e-5/2 * mean(|W_1| + |W_-1|) of its minimum, up to the smoothed
    gradient residual. The returned objective never exceeds the objective
    at beta = 0.
    """
    prob, fm = _build_problem(data, weights, config)
    b, f, it, gn, ok = _solve(prob, config)
    rule = LinearRule(b[0], b[1:], fm)
    return EarlFit(
        rule=rule,
        objective_value=f,
        lambda_used=config.lam,
        n_iter=it,
        grad_norm=gn,
        converged=ok,
    )


def _partition(n: int, k: int, *keys) -> list[np.ndarray]:
    """k sorted folds of range(n) from a permutation drawn by stream(*keys)."""
    perm = stream(*keys).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, k)]


def _merge_single_arm_folds(data: Dataset, folds: list[np.ndarray]) -> list[np.ndarray]:
    folds = [np.asarray(f) for f in folds]
    while True:
        bad = next(
            (i for i, f in enumerate(folds) if len(np.unique(data.A[f])) < 2),
            None,
        )
        if bad is None:
            return folds
        if len(folds) <= 2:
            raise DataError(
                "a fold contains a single treatment arm and K=2 leaves no fold to merge with"
            )
        neighbor = (bad + 1) % len(folds)
        warnings.warn(
            f"fold {bad} contains a single treatment arm; merging it with fold {neighbor}",
            stacklevel=4,
        )
        merged = np.sort(np.concatenate([folds[bad], folds[neighbor]]))
        folds = [f for i, f in enumerate(folds) if i not in (bad, neighbor)] + [merged]


def _crossfit_problems(data: Dataset, nuisance: NuisanceSpec, config: EarlConfig, folds=None, Z=None):
    """Build the weighted problem of every cross-fitting fold.

    Partitions the sample (or takes the given folds), merges single-arm
    folds, fits the nuisance models on each fold I_k and builds the
    problem from the complement's DR weights at config.lam, on the
    complement's rows of the rule design Z (None: built from data).
    Returns a list of (I_k, complement, propensity, outcome, problem) and
    the rule map.
    """
    k = config.k_folds if folds is None else len(folds)
    if data.n < 2 * k:
        raise DataError(f"need n >= 2K rows for cross-fitting, got n={data.n}, K={k}")
    if folds is None:
        folds = _partition(data.n, k, config.seed, 7011)
    folds = _merge_single_arm_folds(data, list(folds))
    if Z is None:
        Z = _rule_design(data.X, config.rule_map(data.p))
    parts = []
    for fold_idx in folds:
        keep = np.ones(data.n, dtype=bool)
        keep[fold_idx] = False
        erm_idx = np.flatnonzero(keep)
        prop, out = nuisance.fit(data.subset(fold_idx))
        erm_data = data.subset(erm_idx)
        prob, fm = _build_problem(erm_data, dr_weights(erm_data, prop, out), config, _rows(Z, keep))
        parts.append((fold_idx, erm_idx, prop, out, prob))
    return parts, fm


def earl_fit_crossfit(
    data: Dataset,
    nuisance: NuisanceSpec,
    config: EarlConfig,
    folds=None,
) -> EarlFit:
    """K-fold sample-splitting estimator.

    For each fold k, the nuisance models are fit on I_k and the weighted
    minimization runs on the complement; the aggregated rule averages the
    per-fold coefficient vectors. A fold holding a single treatment arm is
    merged into its neighbor (with a warning) when K > 2, and is an error
    when K = 2. An explicit list of index arrays may be supplied in place
    of the seeded partition. The solver status aggregates the folds:
    converged when every fold converged, n_iter summed, grad_norm the
    largest.
    """
    parts, fm = _crossfit_problems(data, nuisance, config, folds)
    artifacts, status, bs = [], [], []
    for fold_idx, erm_idx, prop, out, prob in parts:
        b, f, it, gn, ok = _solve(prob, config)
        status.append((it, gn, ok))
        bs.append(b)
        artifacts.append(
            FoldArtifact(
                nuisance_index=fold_idx,
                erm_index=erm_idx,
                rule=LinearRule(b[0], b[1:], fm),
                propensity=prop,
                outcome=out,
                objective_value=f,
            )
        )
    b = np.mean(bs, axis=0)
    return EarlFit(
        rule=LinearRule(b[0], b[1:], fm),
        # cross-fit convention: average of the per-fold objectives; each
        # per-fold objective is recomputable from its FoldArtifact
        objective_value=float(np.mean([a.objective_value for a in artifacts])),
        lambda_used=config.lam,
        n_iter=sum(it for it, _, _ in status),
        grad_norm=max(gn for _, gn, _ in status),
        converged=all(ok for _, _, ok in status),
        fold_artifacts=tuple(artifacts),
    )


@dataclass(frozen=True)
class LambdaSelection:
    lambda_: float
    table: tuple[dict, ...]


def _reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _selection_failure(errors: list[list]) -> EarlError:
    """The error of a selection with no finite mean value, from each cell's
    exception (None where the cell has a value): the nearest class of every
    failed cell's error, quoting the first, or a NumericalError if some cell
    failed numerically or has a value (an infinite one)."""
    cells = [exc for row in errors for exc in row]
    failed = [exc for exc in cells if exc is not None]
    msg = f"every cross-validated value was non-finite; {len(failed)} of {len(cells)} cells failed"
    if failed:
        msg += f", e.g. {_reason(failed[0])}"
    if len(failed) < len(cells) or any(isinstance(e, (NumericalError, np.linalg.LinAlgError)) for e in failed):
        return NumericalError(msg)
    return next(c for c in type(failed[0]).__mro__ if all(isinstance(e, c) for e in failed))(msg)


def _split_fits(data: Dataset, nuisance: NuisanceSpec, gram: _OutcomeGram | None, keep: np.ndarray):
    """A CV split's training rows, the rows of data where keep holds, with
    the DR weights (W_1, W_-1) of those rows and of the held rows, both
    sliced from one dr_weights pass over every row of data under the
    split's nuisance models. These are fit on the training rows; the
    outcome model by downdating gram, the outcome Gram of every row of
    data (None: no outcome model)."""
    train = data.subset(keep)
    prop = nuisance.fit_propensity(train)
    out = None if gram is None else gram.fit(keep)
    w = dr_weights(data, prop, out)
    return train, tuple(x[keep] for x in w), tuple(x[~keep] for x in w)


def select_lambda(
    data: Dataset,
    nuisance: NuisanceSpec,
    config: EarlConfig,
    crossfit: bool = False,
) -> LambdaSelection:
    """Choose lambda by cross-validated held-out value.

    For each of config.cv_folds splits, the nuisance models are fit once
    on the training folds. The estimator is fit there at every lambda in
    the grid, and each rule is scored on the held-out fold by the doubly
    robust value over the held rows' weights under those models, the
    cross-fitted AIPW score. With crossfit=True the training problems are
    the training split's K per-fold problems, and the held fold is still
    scored with the one nuisance fit on the whole training split. The rule
    design is built once for all rows, and so is the outcome design with
    its Gram matrix G = Z'Z and Z'Y: each split's outcome model solves the
    normal equations downdated by its held rows, (G - Zh'Zh) theta =
    Z'Y - Zh'Y_h, under fit_outcome's rank rule, and a split that fails the
    rule is refit on its training rows' own G and Z'Y. The DR weights of a
    split's training rows and of its held rows are sliced from one
    dr_weights pass over every row. Each split's training problem (its
    weights, their checks and its rows of the design) and the held fold's
    weights are built once and shared by every lambda. The grid is walked
    from the largest lambda to the smallest, each solve warm-started from
    the previous lambda's coefficients; after a failed cell the next
    lambda starts again from beta = 0. A warm solve after a converged one
    starts from that solve's evaluated point (its margins, loss gradient
    and Hessian weights), so it evaluates nothing before its first
    gradient test, and its result is bit-identical to a warm start that
    evaluates the point afresh. Every solve stops on the same
    config.tol gradient test as a cold earl_fit (or earl_fit_crossfit), so
    its decisions on the held fold can differ from the cold fit's only
    where a held-out score lies within that tolerance of 0. Every rule of
    a split is scored on the held fold in one matrix product. With
    crossfit=True a single-arm fold merge warns once per split, not once
    per lambda.

    Ties break toward the larger lambda. A cell whose nuisance or rule fit
    fails with an EarlError or LinAlgError, or whose rule has non-finite
    coefficients, contributes NaN (None in the table's fold_values, and
    "<ExceptionClass>: <message>" in its fold_errors) and is ignored; a
    failed nuisance fit fails its whole split. Any other error propagates.
    If every lambda's mean value is non-finite the selection fails with the
    nearest error class the failed cells share (a NumericalError if some
    cell failed numerically), quoting one cell's reason.
    """
    grid = np.sort(np.asarray(config.lambda_grid, dtype=float))
    if data.n < config.cv_folds:
        raise DataError(f"need n >= cv_folds, got n={data.n}, cv_folds={config.cv_folds}")
    Z = _rule_design(data.X, config.rule_map(data.p))
    gram = None if nuisance.outcome_map is None else _OutcomeGram(data, nuisance.outcome_map)
    folds = _partition(data.n, config.cv_folds, config.seed, 4242)
    vals = np.full((len(grid), len(folds)), np.nan)
    errors = [[None] * len(folds) for _ in grid]
    for j, hold in enumerate(folds):
        keep = np.ones(data.n, dtype=bool)
        keep[hold] = False
        try:
            train, w_train, w_h = _split_fits(data, nuisance, gram, keep)
            if crossfit:
                parts, _ = _crossfit_problems(train, nuisance, config, Z=_rows(Z, keep))
                probs = [prob for *_, prob in parts]
            else:
                probs = [_build_problem(train, w_train, config, _rows(Z, keep))[0]]
        except (EarlError, np.linalg.LinAlgError) as exc:
            for row in errors:
                row[j] = exc
            continue
        starts = [None] * len(probs)
        rows, bs = [], []
        for i in reversed(range(len(grid))):
            try:
                for k, prob in enumerate(probs):
                    prob.lam = float(grid[i])
                    starts[k] = _solve(prob, config, starts[k])[0]
                b = starts[0] if len(starts) == 1 else np.mean(starts, axis=0)
                if not np.all(np.isfinite(b)):
                    raise DataError("rule coefficients must be finite")
            except (EarlError, np.linalg.LinAlgError) as exc:
                errors[i][j] = exc
                starts = [None] * len(probs)
                continue
            rows.append(i)
            bs.append(b)
        if rows:
            # every fitted rule's held-out value P_n[W_{d(X)}] from one
            # product with the held rows' rule features; a score's last
            # bits may differ from those of LinearRule.scores, so a
            # decision can differ only where a score rounds across 0
            B = np.array(bs)
            S = B[:, :1] + B[:, 1:] @ _rows(Z[:, 1:], ~keep).T
            vals[rows, j] = _dr_value(S, *w_h)
    # the NaN-ignoring mean, without np.nanmean's warning on an all-NaN row
    missing = np.isnan(vals)
    counts = np.sum(~missing, axis=1)
    means = np.sum(np.where(missing, 0.0, vals), axis=1) / np.where(counts > 0, counts, np.nan)
    if not np.any(np.isfinite(means)):
        raise _selection_failure(errors)
    best_lam, best_val = None, -np.inf
    for lam, m in zip(grid, means):
        if np.isfinite(m) and m >= best_val:
            best_lam, best_val = float(lam), float(m)
    table = tuple(
        {
            "lambda": float(lam),
            "mean_value": (float(m) if np.isfinite(m) else None),
            "fold_values": [float(v) if np.isfinite(v) else None for v in row],
            "fold_errors": [None if exc is None else _reason(exc) for exc in excs],
        }
        for lam, m, row, excs in zip(grid, means, vals, errors)
    )
    return LambdaSelection(lambda_=best_lam, table=table)


@dataclass(frozen=True)
class PipelineResult:
    fit: EarlFit
    selection: LambdaSelection | None
    propensity: PropensityModel
    outcome: OutcomeModel | None


def fit_earl_pipeline(
    data: Dataset,
    nuisance: NuisanceSpec,
    config: EarlConfig,
    select: str = "fixed",
    crossfit: bool = False,
) -> PipelineResult:
    """Full pipeline: optional lambda selection, nuisance fits, final rule.

    select is "fixed" (use config.lam) or "cv"; crossfit switches the final
    fit (and the inner CV fits) to the K-fold sample-splitting estimator.
    """
    if select not in ("fixed", "cv"):
        raise ConfigError(f"select must be 'fixed' or 'cv', got {select!r}")
    selection = None
    cfg = config
    if select == "cv":
        selection = select_lambda(data, nuisance, config, crossfit=crossfit)
        cfg = replace(config, lam=selection.lambda_)
    prop, out = nuisance.fit(data)
    if crossfit:
        fit = earl_fit_crossfit(data, nuisance, cfg)
    else:
        fit = earl_fit(data, dr_weights(data, prop, out), cfg)
    return PipelineResult(fit=fit, selection=selection, propensity=prop, outcome=out)
