import math

import numpy as np
import pytest

from earlkit.core import ConfigError, DomainError
from earlkit.losses import (
    LOSS_NAMES,
    SurrogateLoss,
    get_loss,
    phi_eval,
    phi_grad,
    phi_hess,
    psi_eval,
    psi_inverse,
    psi_max,
)


def test_phi_at_zero():
    # hinge, exponential, and squared hinge satisfy phi(0) = 1
    for name in ("hinge", "exp", "sqhinge"):
        assert phi_eval(name, 0.0) == 1.0
    # logistic as printed gives log 2, not 1
    assert phi_eval("logistic", 0.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_phi_formulas():
    assert phi_eval("hinge", 2.0) == 0.0
    assert phi_eval("sqhinge", 2.0) == 0.0
    assert phi_eval("hinge", -1.5) == 2.5
    assert phi_eval("sqhinge", -1.0) == 4.0
    assert phi_eval("exp", 1.0) == pytest.approx(math.exp(-1.0))
    assert phi_eval("logistic", 3.0) == pytest.approx(math.log1p(math.exp(-3.0)))


def test_loss_aliases_and_unknown():
    assert get_loss("exponential").kind == "exp"
    assert get_loss("squared_hinge").kind == "sqhinge"
    with pytest.raises(ConfigError):
        get_loss("0-1")


def test_exponential_saturates_instead_of_overflowing():
    v = phi_eval("exp", -800.0)
    assert np.isfinite(v)
    assert v == phi_eval("exp", -700.0)
    assert np.isfinite(phi_grad("exp", -800.0))


def test_hinge_subgradient_convention():
    assert phi_grad("hinge", 0.5) == -1.0
    assert phi_grad("hinge", 1.0) == 0.0
    assert phi_grad("hinge", 1.5) == 0.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for name in LOSS_NAMES:
        checked = 0
        while checked < 1000:
            t = float(rng.uniform(-5.0, 5.0))
            if name in ("hinge", "sqhinge") and abs(t - 1.0) < 1e-4:
                continue
            fd = (phi_eval(name, t + h) - phi_eval(name, t - h)) / (2 * h)
            g = phi_grad(name, t)
            assert abs(g - fd) <= 1e-6 * max(1.0, abs(g)), (name, t)
            checked += 1


def test_hessians_match_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-5
    for name in ("exp", "logistic", "sqhinge"):
        for _ in range(200):
            t = float(rng.uniform(-5.0, 5.0))
            if name == "sqhinge" and abs(t - 1.0) < 1e-3:
                continue
            fd = (phi_grad(name, t + h) - phi_grad(name, t - h)) / (2 * h)
            assert phi_hess(name, t) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def _grid():
    rng = np.random.default_rng(9)
    return np.concatenate(
        [rng.normal(size=2000) * 10.0 ** rng.integers(-3, 3, 2000), [-800.0, -1.0, -0.0, 0.0, 1.0, 800.0]]
    )


def test_derivatives_equal_their_closed_forms_exactly():
    # pins the rounding of the formulas the Newton solver evaluates
    t = _grid()
    capped = np.exp(np.minimum(-t, 700.0))
    assert np.array_equal(phi_grad("exp", t), -capped) and np.array_equal(phi_hess("exp", t), capped)
    e = np.exp(-np.abs(t))
    sig = 1.0 / (1.0 + e)
    assert np.array_equal(phi_eval("logistic", t), np.maximum(-t, 0.0) + np.log1p(e))
    assert np.array_equal(phi_grad("logistic", t), -np.where(t >= 0.0, e * sig, sig))
    assert np.array_equal(phi_hess("logistic", t), e * sig * sig)
    assert np.array_equal(phi_grad("sqhinge", t), -2.0 * np.maximum(1.0 - t, 0.0))
    assert np.array_equal(phi_hess("sqhinge", t), np.where(t < 1.0, 2.0, 0.0))


def test_logistic_terms_match_logaddexp_and_expit():
    from scipy.special import expit

    t = _grid()

    def close(a, b):
        return np.all(np.abs(a - b) <= 1e-15 * np.abs(b))

    assert close(phi_eval("logistic", t), np.logaddexp(0.0, -t))
    assert close(phi_grad("logistic", t), -expit(-t))
    assert close(phi_hess("logistic", t), expit(-t) * expit(t))


def test_logistic_psi_is_bit_equal_to_the_xlogy_formula():
    from scipy.special import xlogy

    theta = np.linspace(0.0, 1.0, 100_001)
    ref = 0.5 * (xlogy(1.0 + theta, 1.0 + theta) + xlogy(1.0 - theta, 1.0 - theta))
    assert np.array_equal(psi_eval("logistic", theta), ref)
    assert psi_eval("logistic", 1.0) == float(ref[-1])


def test_convexity_of_every_loss():
    rng = np.random.default_rng(31)
    for name in LOSS_NAMES:
        for _ in range(300):
            t1, t2 = rng.uniform(-6.0, 6.0, size=2)
            alpha = float(rng.random())
            mix = alpha * t1 + (1 - alpha) * t2
            lhs = phi_eval(name, mix)
            rhs = alpha * phi_eval(name, t1) + (1 - alpha) * phi_eval(name, t2)
            assert lhs <= rhs + 1e-12


def test_psi_point_values():
    assert psi_eval("hinge", 0.5) == 0.5
    assert psi_eval("sqhinge", 0.5) == 0.25
    for name in LOSS_NAMES:
        assert psi_eval(name, 0.0) == 0.0
    assert psi_eval("exp", 0.6) == pytest.approx(1.0 - math.sqrt(1.0 - 0.36), abs=1e-12)
    theta = 0.3
    expected = 0.5 * ((1 + theta) * math.log(1 + theta) + (1 - theta) * math.log(1 - theta))
    assert psi_eval("logistic", theta) == pytest.approx(expected, abs=1e-12)
    assert psi_eval("logistic", 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_psi_monotone_and_bounded():
    grid = np.linspace(0.0, 1.0, 101)
    for name in LOSS_NAMES:
        vals = psi_eval(name, grid)
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all(vals <= psi_max(name) + 1e-14)


def test_psi_domain_errors():
    with pytest.raises(DomainError):
        psi_eval("hinge", 1.5)
    with pytest.raises(DomainError):
        psi_inverse("hinge", 1.5)
    with pytest.raises(DomainError):
        psi_inverse("exp", -0.2)
    # NaN lies in no interval, so it fails both range tests
    for name in LOSS_NAMES:
        with pytest.raises(DomainError):
            psi_eval(name, float("nan"))
        with pytest.raises(DomainError):
            psi_eval(name, np.array([0.5, np.nan]))
        with pytest.raises(DomainError):
            psi_inverse(name, float("nan"))


def test_loss_names_are_checked():
    with pytest.raises(ConfigError, match="unknown surrogate loss 'bogus'"):
        SurrogateLoss("bogus")
    with pytest.raises(ConfigError, match="hinge loss has no second derivative"):
        phi_hess("hinge", 0.0)


def test_psi_inverse_round_trip():
    for name in LOSS_NAMES:
        for theta in np.arange(0.0, 1.0 + 1e-9, 0.1):
            r = psi_eval(name, float(theta))
            assert abs(psi_inverse(name, r) - theta) < 1e-8, (name, theta)


def test_psi_inverse_closed_forms():
    assert psi_inverse("hinge", 0.37) == 0.37
    assert psi_inverse("sqhinge", 0.25) == 0.5
