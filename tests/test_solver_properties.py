"""Property tests: the solver status a fit reports is true of what it returns."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import earlkit.earl as earl_mod
from earlkit.core import Dataset, EarlError, FeatureMap
from earlkit.earl import EarlConfig, _build_problem, select_lambda
from earlkit.losses import LOSS_NAMES
from earlkit.nuisance import NuisanceSpec


def _data(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    A = np.where(rng.random(n) < 0.5, 1, -1)
    Y = X[:, 0] * A + rng.normal(size=n) * 2.0 ** rng.integers(-2, 3)
    return Dataset(X, A, Y), rng


def _kkt_norm(prob, b):
    """The sup-norm of a fresh gradient at b, the one the solver's
    convergence test reads: for the hinge, that of its smoothing."""
    return float(np.max(np.abs(prob.gradient(b))))


def _check_status(prob, tol, solution):
    """grad_norm is the sup-norm of a fresh gradient at the returned b (for
    the hinge, of its smoothing), and converged means it passed."""
    b, _, _, grad_norm, converged = solution
    if not prob.loss.smooth and not np.any(b):
        return  # the beta = 0 guard replaced the smoothed solution
    assert grad_norm == _kkt_norm(prob, b)
    assert not converged or grad_norm < tol


_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 120),
    p=st.integers(1, 3),
    loss=st.sampled_from(LOSS_NAMES),
    log2_lam=st.integers(-8, 5),
    max_iter=st.sampled_from([1, 2, 5000]),
)


@settings(max_examples=60, deadline=None)
@given(**_cases)
def test_cold_solve_reports_true_status(seed, n, p, loss, log2_lam, max_iter):
    d, rng = _data(seed, n, p)
    w = (rng.normal(size=n) * 3, rng.normal(size=n) * 3)
    cfg = EarlConfig(loss=loss, lam=2.0**log2_lam, max_iter=max_iter)
    prob, _ = _build_problem(d, w, cfg)
    try:
        solution = earl_mod._solve(prob, cfg)
    except EarlError:
        return
    _check_status(prob, cfg.tol, solution)


# a held fold of 13 to 40 rows can hold too few subjects of one arm for the
# linear*a outcome map, whose fit then falls back to a ridge
@pytest.mark.filterwarnings("ignore:outcome design is rank deficient:UserWarning")
@settings(max_examples=20, deadline=None)
@given(**_cases)
def test_cv_path_solves_report_true_status(seed, n, p, loss, log2_lam, max_iter):
    d, _ = _data(seed, n, p)
    spec = NuisanceSpec(FeatureMap.linear(p), FeatureMap.from_name("linear*a", p))
    grid = tuple(2.0 ** (log2_lam + k) for k in (-3, 0, 3))
    cfg = EarlConfig(loss=loss, lambda_grid=grid, cv_folds=3, max_iter=max_iter, seed=seed)
    real_solve = earl_mod._solve

    def checking(prob, config, b=None):
        solution = real_solve(prob, config, b)
        _check_status(prob, config.tol, solution)
        return solution

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(earl_mod, "_solve", checking)
        try:
            select_lambda(d, spec, cfg)
        except EarlError:
            pass


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    p=st.integers(2, 3),
    delta=st.sampled_from([1.0, 1e-3, 1e-5]),
    lam=st.sampled_from([0.0, 2.0**-5, 1.0]),
    flat=st.booleans(),
)
def test_hinge_first_step_is_the_exact_line_minimizer(seed, n, p, delta, lam, flat):
    """first_step's t* minimizes a smoothed-hinge objective along a descent
    direction; where the objective is flat along it, the hook returns 1."""
    d, rng = _data(seed, n, p)
    if flat:
        # a repeated covariate makes (0, 1, 0, .., -1) a null direction of Z
        d = Dataset(np.column_stack([d.X[:, :-1], d.X[:, 0]]), d.A, d.Y)
        lam = 0.0
    w = rng.normal(size=(2, n)) * 3.0
    w[rng.random((2, n)) < 0.3] = 0.0
    prob, _ = _build_problem(d, (w[0], w[1]), EarlConfig(loss="hinge", lam=lam))
    prob.delta = delta
    b = rng.normal(size=p + 1) * 2.0 ** rng.integers(-3, 3)
    if flat:
        direction = np.zeros(p + 1)
        direction[1], direction[-1] = 1.0, -1.0
    else:
        direction = rng.normal(size=p + 1) * 2.0 ** rng.integers(-3, 3)
    m = prob.margins(b)
    gd = float(prob.slopes(b, m)[0] @ direction)
    if gd > 0.0:
        direction, gd = -direction, -gd
    t = prob.first_step(b, m, direction, gd)
    if flat:
        assert t == 1.0
        return
    assume(gd < 0.0)
    ts = np.concatenate([np.linspace(0.0, 2.0 * max(t, 1.0), 401), [t * (1 - 1e-6), t * (1 + 1e-6)]])
    f = prob.objective(b + t * direction)
    assert f <= min(prob.objective(b + s * direction) for s in ts) + 1e-12 * (1.0 + abs(f))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 200),
    p=st.integers(1, 3),
    quadratic=st.booleans(),
    lam=st.sampled_from([0.0, 1e-3, 1.0]),
)
def test_design_layout_moves_a_solution_at_rounding_level(seed, n, p, quadratic, lam):
    """The same problem solved on its column-major design and on a row-major
    copy differs only in BLAS's summation order: both converge, their
    objectives agree within 1e-12 relative, and each solution passes the
    other layout's gradient test."""
    d, rng = _data(seed, n, p)
    w = (rng.normal(size=n) * 3, rng.normal(size=n) * 3)
    fm = FeatureMap.quadratic(p, intercept=False) if quadratic else None
    for loss in LOSS_NAMES:
        cfg = EarlConfig(loss=loss, lam=lam, feature_map=fm)
        by_col, _ = _build_problem(d, w, cfg)
        by_row, _ = _build_problem(d, w, cfg)
        by_row.Z = np.ascontiguousarray(by_row.Z)
        assert by_col.Z.flags.f_contiguous and by_row.Z.flags.c_contiguous
        assert np.array_equal(by_col.Z, by_row.Z)
        solutions = [earl_mod._solve(prob, cfg) for prob in (by_col, by_row)]
        assert all(converged for *_, converged in solutions)
        f_col, f_row = solutions[0][1], solutions[1][1]
        assert abs(f_col - f_row) <= 1e-12 * max(abs(f_col), abs(f_row))
        for prob, (b, *_) in ((by_row, solutions[0]), (by_col, solutions[1])):
            if prob.loss.smooth or np.any(b):  # else the beta = 0 guard won
                assert _kkt_norm(prob, b) < cfg.tol
