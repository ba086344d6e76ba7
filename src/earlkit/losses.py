"""Convex surrogate losses and the transforms tying surrogate risk to value.

Four losses are supported:

    hinge     phi(t) = max(1 - t, 0)
    exp       phi(t) = exp(-t)
    logistic  phi(t) = log(1 + exp(-t))
    sqhinge   phi(t) = max(1 - t, 0)^2

Each loss has a transform psi on [0, 1] that converts an excess surrogate
risk into a bound on the value shortfall; psi is nondecreasing with
psi(0) = 0 and is inverted numerically where no closed form exists.

The logistic loss is evaluated as max(-t, 0) + log1p(e) with
e = exp(-|t|), so phi(0) = log 2 rather than 1; the other three satisfy
phi(0) = 1. Its slope and curvature come from the same exponential:
with sigma = 1 / (1 + e), phi'(t) = -e sigma for t >= 0 and -sigma for
t < 0, and phi''(t) = e sigma sigma. A subject's two classification
margins are +-f(x), so the solver computes e once per subject and reads
both instances' terms from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _shared(kind: str, s: np.ndarray):
    """Pieces of phi common to the margins +-s, or None where there are none.

    For the logistic loss these are log1p(e), sigma, e sigma and
    e sigma sigma, with e = exp(-|s|) and sigma = 1 / (1 + e).
    """
    if kind != "logistic":
        return None
    e = np.exp(-np.abs(s))
    sig = 1.0 / (1.0 + e)
    es = e * sig
    return np.log1p(e), sig, es, es * sig


def _phi(kind: str, mt: np.ndarray, shared) -> np.ndarray:
    """phi(t) at the margins t = -mt, where shared is _shared(kind, t),
    which is also _shared(kind, -t)."""
    if kind == "logistic":
        return np.maximum(mt, 0.0) + shared[0]
    if kind == "exp":
        return np.exp(np.minimum(mt, _EXP_CAP))
    m = np.maximum(1.0 + mt, 0.0)
    return m if kind == "hinge" else m**2


def _slopes(kind: str, mt: np.ndarray, shared, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-phi'(t) and phi''(t) of a smooth loss at t = -mt, reusing shared and
    phi = _phi(kind, mt, shared)."""
    if kind == "logistic":
        _, sig, es, curv = shared
        return np.where(mt > 0.0, sig, es), curv
    if kind == "exp":
        return phi, phi
    r = 1.0 + mt
    return 2.0 * np.maximum(r, 0.0), np.where(r > 0.0, 2.0, 0.0)


def _slopes_at(kind: str, t) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(t, dtype=float)
    mt, shared = -t, _shared(kind, t)
    return _slopes(kind, mt, shared, _phi(kind, mt, shared))


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def phi_eval(loss, t):
    """phi(t), elementwise over arrays."""
    kind = get_loss(loss).kind
    t = np.asarray(t, dtype=float)
    return _scalar_or_array(_phi(kind, -t, _shared(kind, t)))


def phi_grad(loss, t):
    """Derivative of phi; the hinge subgradient is fixed to 0 at the kink."""
    loss = get_loss(loss)
    if loss.kind == "hinge":
        return _scalar_or_array(np.where(np.asarray(t, dtype=float) < 1.0, -1.0, 0.0))
    return _scalar_or_array(-_slopes_at(loss.kind, t)[0])


def phi_hess(loss, t):
    """Second derivative (generalized, for sqhinge) of the smooth losses."""
    loss = get_loss(loss)
    if loss.kind == "hinge":
        raise ConfigError("hinge loss has no second derivative")
    return _scalar_or_array(_slopes_at(loss.kind, t)[1])


def _xlogx(x: float) -> float:
    """x log x, continued by 0 at x = 0."""
    return x * math.log(x) if x > 0.0 else 0.0


def _psi_scalar(kind: str, theta: float) -> float:
    if kind == "hinge":
        return abs(theta)
    if kind == "exp":
        return 1.0 - np.sqrt(max(1.0 - theta * theta, 0.0))
    if kind == "logistic":
        return 0.5 * (_xlogx(1.0 + theta) + _xlogx(1.0 - theta))
    return theta * theta


def psi_eval(loss, theta):
    """psi(theta) for theta in [0, 1]."""
    loss = get_loss(loss)
    arr = np.asarray(theta, dtype=float)
    if not np.all((-1e-12 <= arr) & (arr <= 1.0 + 1e-12)):
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
    if not -1e-12 <= r <= top + 1e-12:
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
