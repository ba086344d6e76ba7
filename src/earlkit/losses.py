"""Convex surrogate losses and the transforms tying surrogate risk to value.

Four losses are supported:

    hinge     phi(t) = max(1 - t, 0)
    exp       phi(t) = exp(-t)
    logistic  phi(t) = log(1 + exp(-t))
    sqhinge   phi(t) = max(1 - t, 0)^2

Each loss has a transform psi on [0, 1] that converts an excess surrogate
risk into a bound on the value shortfall; psi is nondecreasing with
psi(0) = 0 and is inverted numerically where no closed form exists.

Note the logistic loss is implemented exactly as log(1 + exp(-t)), so
phi(0) = log 2 rather than 1; the other three satisfy phi(0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .core import ConfigError, DomainError

__all__ = [
    "SurrogateLoss",
    "get_loss",
    "LOSS_NAMES",
    "SMOOTH_LOSSES",
    "phi_eval",
    "phi_grad",
    "phi_hess",
    "psi_eval",
    "psi_inverse",
]

LOSS_NAMES = ("hinge", "exp", "logistic", "sqhinge")
SMOOTH_LOSSES = ("exp", "logistic", "sqhinge")

_ALIASES = {
    "hinge": "hinge",
    "exp": "exp",
    "exponential": "exp",
    "logistic": "logistic",
    "sqhinge": "sqhinge",
    "squared_hinge": "sqhinge",
}

# exp(-t) saturates to a large finite value instead of overflowing
_EXP_CAP = 700.0

_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class SurrogateLoss:
    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_NAMES:
            raise ConfigError(f"unknown surrogate loss {self.kind!r}")

    @property
    def smooth(self) -> bool:
        return self.kind in SMOOTH_LOSSES


def get_loss(loss) -> SurrogateLoss:
    """Resolve a loss name (or pass a SurrogateLoss through)."""
    if isinstance(loss, SurrogateLoss):
        return loss
    key = str(loss).strip().lower()
    if key not in _ALIASES:
        raise ConfigError(
            f"unknown surrogate loss {loss!r}; expected one of {', '.join(LOSS_NAMES)}"
        )
    return SurrogateLoss(_ALIASES[key])


def _capped_exp(t):
    return np.exp(np.minimum(-np.asarray(t, dtype=float), _EXP_CAP))


def phi_eval(loss, t):
    """phi(t), elementwise over arrays."""
    loss = get_loss(loss)
    t = np.asarray(t, dtype=float)
    if loss.kind == "hinge":
        out = np.maximum(1.0 - t, 0.0)
    elif loss.kind == "exp":
        out = _capped_exp(t)
    elif loss.kind == "logistic":
        out = np.logaddexp(0.0, -t)
    else:
        out = np.maximum(1.0 - t, 0.0) ** 2
    return float(out) if out.ndim == 0 else out


def _phi_slopes(kind: str, t: np.ndarray):
    """phi'(t) and phi''(t) of a smooth loss from shared subexpressions."""
    if kind == "exp":
        c = _capped_exp(t)
        return -c, c
    if kind == "logistic":
        e = expit(-t)
        return -e, e * expit(t)
    r = 1.0 - t
    return -2.0 * np.maximum(r, 0.0), np.where(r > 0.0, 2.0, 0.0)


def phi_grad(loss, t):
    """Derivative of phi; the hinge subgradient is fixed to 0 at the kink."""
    loss = get_loss(loss)
    t = np.asarray(t, dtype=float)
    if loss.kind == "hinge":
        out = np.where(t < 1.0, -1.0, 0.0)
    else:
        out = _phi_slopes(loss.kind, t)[0]
    return float(out) if out.ndim == 0 else out


def phi_hess(loss, t):
    """Second derivative (generalized, for sqhinge) of the smooth losses."""
    loss = get_loss(loss)
    if loss.kind == "hinge":
        raise ConfigError("hinge loss has no second derivative")
    out = _phi_slopes(loss.kind, np.asarray(t, dtype=float))[1]
    return float(out) if out.ndim == 0 else out


def _psi_scalar(kind: str, theta: float) -> float:
    if kind == "hinge":
        return abs(theta)
    if kind == "exp":
        return 1.0 - np.sqrt(max(1.0 - theta * theta, 0.0))
    if kind == "logistic":
        return 0.5 * (xlogy(1.0 + theta, 1.0 + theta) + xlogy(1.0 - theta, 1.0 - theta))
    return theta * theta


def psi_eval(loss, theta):
    """psi(theta) for theta in [0, 1]."""
    loss = get_loss(loss)
    arr = np.asarray(theta, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise DomainError(f"psi argument must lie in [0, 1], got {theta}")
    arr = np.clip(arr, 0.0, 1.0)
    out = np.vectorize(lambda v: _psi_scalar(loss.kind, v))(arr)
    return float(out) if out.ndim == 0 else np.asarray(out, dtype=float)


def psi_max(loss) -> float:
    """psi(1), the largest attainable transform value."""
    return _psi_scalar(get_loss(loss).kind, 1.0)


def psi_inverse(loss, r) -> float:
    """Solve psi(theta) = r for theta in [0, 1].

    Closed forms are used for hinge (theta = r) and squared hinge
    (theta = sqrt(r)); the other losses use bisection to |dtheta| < 1e-10.
    """
    loss = get_loss(loss)
    r = float(r)
    top = psi_max(loss)
    if r < -1e-12 or r > top + 1e-12:
        raise DomainError(f"psi inverse argument {r} outside [0, {top}]")
    r = min(max(r, 0.0), top)
    if loss.kind == "hinge":
        return r
    if loss.kind == "sqhinge":
        return float(np.sqrt(r))
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _psi_scalar(loss.kind, mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
