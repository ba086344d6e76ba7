import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

import earlkit.earl as earl_mod
from earlkit.baselines import owl_fit
from earlkit.core import (
    ConfigError,
    ConvergenceError,
    DataError,
    Dataset,
    EarlError,
    FeatureMap,
    LinearRule,
    NumericalError,
    sgn,
    stream,
)
from earlkit.earl import (
    DEFAULT_LAMBDA_GRID,
    EarlConfig,
    _build_problem,
    earl_fit,
    earl_fit_crossfit,
    earl_objective,
    fit_earl_pipeline,
    select_lambda,
)
from earlkit.losses import phi_eval, phi_grad, phi_hess
from earlkit.nuisance import NuisanceSpec, _OutcomeGram, fit_propensity
from earlkit.sim import (
    ModelSpec,
    ScenarioSpec,
    generate_scenario,
    optimal_rule,
    true_propensity_model,
    true_value_mc,
)
from earlkit.value import _dr_value, value_aipwe
from earlkit.weights import WeightPair, dr_weights


def _data(n, p, seed=0, treated=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    A = np.where(rng.random(n) < treated, 1, -1)
    Y = rng.normal(size=n)
    return Dataset(X, A, Y), rng


def test_objective_all_zero_weights_is_penalty_only():
    d, _ = _data(10, 2, seed=1)
    rule = LinearRule.raw(0.3, [1.0, -2.0])
    w = (np.zeros(10), np.zeros(10))
    for lam in (0.0, 0.5, 2.0):
        assert earl_objective(rule, w, d, "logistic", lam) == lam * 5.0


def test_objective_at_zero_rule():
    d, rng = _data(50, 3, seed=2)
    w_pos = rng.normal(size=50)
    w_neg = rng.normal(size=50)
    rule = LinearRule.raw(0.0, np.zeros(3))
    for loss in ("hinge", "exp", "logistic", "sqhinge"):
        expected = phi_eval(loss, 0.0) * np.mean(np.abs(w_pos) + np.abs(w_neg))
        got = earl_objective(rule, (w_pos, w_neg), d, loss, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)


def test_objective_single_subject_hinge():
    d = Dataset(np.array([[1.0]]), [1], [2.0])
    rule = LinearRule.raw(2.0, [0.0])  # f(x) = 2
    assert earl_objective(rule, [WeightPair(4.0, 0.0)], d, "hinge", 0.0) == 0.0


def _grid_oracle_1d(objective, lo=-3.0, hi=3.0, step=1e-4):
    grid = np.arange(lo, hi + step, step)
    vals = np.array([objective(b) for b in grid])
    i = int(np.argmin(vals))
    return grid[i], vals[i]


def test_intercept_only_exponential_fit_matches_grid_oracle():
    # aggregate positive-class weight 4, negative-class weight 1
    d = Dataset(np.zeros((2, 1)) + [[0.5], [-0.5]], [1, -1], [0.0, 0.0])
    weights = [WeightPair(4.0, 0.0), WeightPair(0.0, 1.0)]
    cfg = EarlConfig(loss="exp", lam=0.0, feature_map=FeatureMap(1, ()))
    fit = earl_fit(d, weights, cfg)

    def obj(b):
        return 0.5 * (4.0 * math.exp(-b) + 1.0 * math.exp(b))

    b_star, f_star = _grid_oracle_1d(obj)
    assert fit.rule.beta0 == pytest.approx(0.5 * math.log(4.0), abs=1e-6)
    assert fit.rule.beta0 == pytest.approx(b_star, abs=1e-4)
    assert fit.objective_value <= f_star + 1e-8


def test_all_positive_labels_give_positive_intercept():
    d, rng = _data(30, 2, seed=5)
    w_pos = np.abs(rng.normal(size=30)) + 0.5  # labels +1
    w_neg = -(np.abs(rng.normal(size=30)) + 0.5)  # negative weight, label flips to +1
    cfg_fm = FeatureMap(2, ())
    for loss in ("exp", "logistic", "sqhinge"):
        fit = earl_fit(d, (w_pos, w_neg), EarlConfig(loss=loss, lam=0.5, feature_map=cfg_fm))
        assert fit.rule.beta0 > 0.0
        # 1-d oracle: no nonpositive intercept does better
        def obj(b):
            return earl_objective(LinearRule(b, [], cfg_fm), (w_pos, w_neg), d, loss, 0.5)

        neg_grid = np.arange(-3.0, 1e-12, 1e-3)
        assert fit.objective_value <= min(obj(b) for b in neg_grid) + 1e-10


def test_symmetric_weights_leave_zero_stationary():
    d, rng = _data(40, 3, seed=6)
    w = rng.normal(size=40)
    weights = (w.copy(), w.copy())  # W_1 = W_-1 for every subject
    for loss in ("exp", "logistic", "sqhinge", "hinge"):
        cfg = EarlConfig(loss=loss, lam=0.1)
        fit = earl_fit(d, weights, cfg)
        at_zero = earl_objective(LinearRule.raw(0.0, np.zeros(3)), weights, d, loss, 0.1)
        assert abs(fit.objective_value - at_zero) <= 1e-8


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for loss in ("exp", "logistic", "sqhinge"):
        for _ in range(20):
            n, p = int(rng.integers(5, 30)), int(rng.integers(1, 4))
            d = Dataset(rng.normal(size=(n, p)), np.where(rng.random(n) < 0.5, 1, -1), rng.normal(size=n))
            w = (rng.normal(size=n) * 3, rng.normal(size=n) * 3)
            lam = float(rng.uniform(0.0, 1.0))
            prob, _ = _build_problem(d, w, EarlConfig(loss=loss, lam=lam))
            b = rng.normal(size=p + 1)
            if loss == "sqhinge":
                # stay away from the generalized-Hessian kink
                margins = prob.Z @ b
                if np.any(np.abs(np.abs(margins) - 1.0) < 1e-3):
                    continue
            g = prob.gradient(b)
            h = 1e-6
            for j in range(p + 1):
                e = np.zeros(p + 1)
                e[j] = h
                fd = (prob.objective(b + e) - prob.objective(b - e)) / (2 * h)
                assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(g[j])), (loss, j)


def test_objective_never_worse_than_zero_vector():
    rng = np.random.default_rng(13)
    for loss in ("exp", "logistic", "sqhinge", "hinge"):
        for seed in range(3):
            n = 60
            d, _ = _data(n, 3, seed=seed)
            w = (rng.normal(size=n) * 2, rng.normal(size=n) * 2)
            lam = float(rng.uniform(0.0, 0.5))
            cfg = EarlConfig(loss=loss, lam=lam, seed=seed)
            fit = earl_fit(d, w, cfg)
            at_zero = earl_objective(LinearRule.raw(0.0, np.zeros(3)), w, d, loss, lam)
            assert fit.objective_value <= at_zero + 1e-12


def test_objective_value_is_recomputable():
    d, rng = _data(80, 4, seed=3)
    w = (rng.normal(size=80), rng.normal(size=80))
    cfg = EarlConfig(loss="logistic", lam=0.25)
    fit = earl_fit(d, w, cfg)
    assert fit.objective_value == earl_objective(fit.rule, w, d, "logistic", 0.25)


def test_penalized_norm_monotone_in_lambda():
    d, rng = _data(150, 4, seed=8)
    w = (rng.normal(size=150) * 4, rng.normal(size=150) * 4)
    for loss in ("exp", "logistic", "sqhinge"):
        norms = []
        for lam in (0.01, 0.1, 1.0, 10.0):
            fit = earl_fit(d, w, EarlConfig(loss=loss, lam=lam))
            norms.append(np.linalg.norm(fit.rule.beta))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-6


def test_owl_reduction_objective_identity():
    # with a null Q-model the weighted objective equals the outcome-weighted
    # form sum Y/pi(A) phi(A f(X)) at every rule, for nonnegative outcomes
    rng = np.random.default_rng(55)
    n = 120
    d = Dataset(rng.normal(size=(n, 3)), np.where(rng.random(n) < 0.4, 1, -1), np.abs(rng.normal(size=n)))
    from earlkit.nuisance import PropensityModel

    prop = PropensityModel(FeatureMap.linear(3), rng.normal(size=4), clip=(0.05, 0.95))
    w = dr_weights(d, prop, None)
    pi_obs = np.where(d.A == 1, prop.prob(d.X, 1), prop.prob(d.X, -1))
    for _ in range(10):
        rule = LinearRule.raw(rng.normal(), rng.normal(size=3))
        lam = float(rng.uniform(0, 1))
        lhs = earl_objective(rule, w, d, "hinge", lam)
        f = rule.scores(d.X)
        rhs = float(np.mean(d.Y / pi_obs * phi_eval("hinge", d.A * f))) + lam * float(
            rule.beta @ rule.beta
        )
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def _cc_spec():
    return ModelSpec("CC").nuisance_spec(2)


def test_crossfit_aggregate_is_mean_of_folds():
    d = generate_scenario(ScenarioSpec(2, 300), 40)
    fit = earl_fit_crossfit(d, _cc_spec(), EarlConfig(loss="logistic", lam=0.1, k_folds=3, seed=2))
    assert fit.per_fold_rules is not None and len(fit.per_fold_rules) == 3
    b0s = [r.beta0 for r in fit.per_fold_rules]
    betas = np.stack([r.beta for r in fit.per_fold_rules])
    assert fit.rule.beta0 == float(np.mean(b0s))
    assert np.array_equal(fit.rule.beta, np.mean(betas, axis=0))


def test_crossfit_duplicated_symmetric_folds():
    rng = np.random.default_rng(77)
    m = 40
    X = rng.normal(size=(m, 3))
    A = np.where(rng.random(m) < 0.5, 1, -1)
    Y = rng.normal(size=m)
    d = Dataset(np.vstack([X, X]), np.concatenate([A, A]), np.concatenate([Y, Y]))
    folds = [np.arange(m), np.arange(m, 2 * m)]
    spec = NuisanceSpec(FeatureMap.linear(3), FeatureMap.linear(3).with_treatment())
    fit = earl_fit_crossfit(d, spec, EarlConfig(loss="logistic", lam=0.5, k_folds=2), folds=folds)
    r1, r2 = fit.per_fold_rules
    assert r1.beta0 == r2.beta0
    assert np.array_equal(r1.beta, r2.beta)
    assert fit.rule.beta0 == r1.beta0
    assert np.array_equal(fit.rule.beta, r1.beta)


def test_crossfit_reports_fold_solver_status(monkeypatch):
    d = generate_scenario(ScenarioSpec(2, 300), 40)
    cfg = EarlConfig(loss="logistic", lam=0.1, k_folds=3, seed=2)
    fit = earl_fit_crossfit(d, _cc_spec(), cfg)
    assert fit.converged and fit.n_iter > 3 and fit.grad_norm < cfg.tol
    monkeypatch.setattr(EarlConfig, "max_iter", 1)
    short = earl_fit_crossfit(d, _cc_spec(), cfg)
    assert not short.converged
    assert short.n_iter == 3
    assert short.grad_norm >= cfg.tol


def test_crossfit_single_arm_fold_k2_errors():
    X = np.random.default_rng(1).normal(size=(20, 10))
    A = np.concatenate([np.ones(10), -np.ones(10)]).astype(int)
    d = Dataset(X, A, np.zeros(20))
    folds = [np.arange(10), np.arange(10, 20)]
    with pytest.raises(DataError, match="single treatment arm"):
        earl_fit_crossfit(d, ModelSpec("CC").nuisance_spec(2), EarlConfig(k_folds=2), folds=folds)


def test_crossfit_single_arm_fold_merges_when_k3():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 10))
    A = np.concatenate([np.ones(20), np.where(rng.random(40) < 0.5, 1, -1)]).astype(int)
    d = Dataset(X, A, rng.normal(size=60))
    folds = [np.arange(20), np.arange(20, 40), np.arange(40, 60)]
    # the unmerged 20-row fold is fitted with the 24-column CC outcome map
    with pytest.warns(UserWarning, match="merging"), pytest.warns(UserWarning, match="rank deficient"):
        fit = earl_fit_crossfit(d, _cc_spec(), EarlConfig(k_folds=3, lam=0.1), folds=folds)
    assert len(fit.per_fold_rules) == 2


@pytest.mark.parametrize(
    "folds",
    [
        [np.arange(60), np.arange(40, 100)],
        [np.arange(30), np.arange(40, 70)],
        [np.arange(50), np.arange(50, 101)],
        [np.arange(50.0), np.arange(50.0, 100.0)],
    ],
    ids=["overlapping", "missing-rows", "out-of-range", "float-indices"],
)
def test_crossfit_folds_must_partition_the_rows(folds):
    d = generate_scenario(ScenarioSpec(2, 100), 5)
    with pytest.raises(DataError, match="hold each of the 100 rows exactly once"):
        earl_fit_crossfit(d, _cc_spec(), EarlConfig(lam=0.1), folds=folds)


def test_crossfit_needs_enough_rows():
    d, _ = _data(6, 2, seed=0)
    spec = NuisanceSpec(FeatureMap.intercept_only(2), None, ridge=1.0)
    with pytest.raises(DataError, match="2K"):
        earl_fit_crossfit(d, spec, EarlConfig(k_folds=4))


def test_crossfit_value_close_to_optimum():
    d = generate_scenario(ScenarioSpec(2, 2000), 900)
    fit = earl_fit_crossfit(d, _cc_spec(), EarlConfig(loss="logistic", lam=2.0**-5, k_folds=2, seed=3))
    v = true_value_mc(fit.rule, 2, 200000, 7)
    v_star = true_value_mc(optimal_rule(), 2, 200000, 7)
    assert v_star - v < 0.15


def test_select_lambda_single_element_grid():
    d = generate_scenario(ScenarioSpec(2, 200), 4)
    sel = select_lambda(d, _cc_spec(), EarlConfig(lambda_grid=(0.7,), cv_folds=4, seed=1))
    assert sel.lambda_ == 0.7
    assert len(sel.table) == 1


def test_select_lambda_tie_breaks_to_larger():
    # a dominant treatment effect makes every fitted rule recommend +1, so
    # all lambdas share one held-out value and the largest must win
    rng = np.random.default_rng(10)
    n = 120
    X = rng.normal(size=(n, 2))
    A = np.tile([1, -1], n // 2)
    Y = 5.0 * A + 0.01 * rng.normal(size=n)
    d = Dataset(X, A, Y)
    spec = NuisanceSpec(
        FeatureMap.intercept_only(2), FeatureMap.linear(2).with_treatment(), ridge=0.0
    )
    cfg = EarlConfig(loss="logistic", cv_folds=4, seed=9)
    sel = select_lambda(d, spec, cfg)
    values = [row["mean_value"] for row in sel.table]
    assert all(v == values[0] for v in values)
    assert sel.lambda_ == max(DEFAULT_LAMBDA_GRID)


def test_default_lambda_grid_is_powers_of_two():
    assert DEFAULT_LAMBDA_GRID == tuple(2.0**k for k in range(-5, 6))
    assert len(DEFAULT_LAMBDA_GRID) == 11


def test_select_lambda_propagates_unexpected_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a fitting failure")

    monkeypatch.setattr(earl_mod, "_solve", broken)
    d = generate_scenario(ScenarioSpec(2, 200), 4)
    with pytest.raises(TypeError):
        select_lambda(d, _cc_spec(), EarlConfig(lambda_grid=(0.5, 1.0), cv_folds=4, seed=1))


def test_select_lambda_records_numerical_failure_as_none(monkeypatch):
    real_solve = earl_mod._solve

    def fails_at_one(prob, config, b=None):
        if prob.lam == 1.0:
            raise NumericalError("solver blew up")
        return real_solve(prob, config, b)

    monkeypatch.setattr(earl_mod, "_solve", fails_at_one)
    d = generate_scenario(ScenarioSpec(2, 200), 4)
    sel = select_lambda(d, _cc_spec(), EarlConfig(lambda_grid=(0.5, 1.0), cv_folds=4, seed=1))
    rows = {row["lambda"]: row for row in sel.table}
    assert rows[1.0]["mean_value"] is None
    assert rows[1.0]["fold_values"] == [None] * 4
    assert rows[1.0]["fold_errors"] == ["NumericalError: solver blew up"] * 4
    assert all(v is not None for v in rows[0.5]["fold_values"])
    assert rows[0.5]["fold_errors"] == [None] * 4
    assert sel.lambda_ == 0.5


def _cold_table(d, spec, cfg, crossfit=False, public=False):
    """select_lambda's table rebuilt from fits each started at beta = 0 and
    scored on the held fold with the training split's nuisance models.
    Each split's training and held weights come from select_lambda's own
    split helper, so the table pins the warm path against cold solves; with
    public=True they come instead from spec.fit(train) with dr_weights and
    value_aipwe, which checks that helper against the public functions."""
    perm = stream(cfg.seed, 4242).permutation(d.n)
    folds = [np.sort(f) for f in np.array_split(perm, cfg.cv_folds)]
    gram = _OutcomeGram(d, spec.outcome_map)
    table = []
    for lam in sorted(cfg.lambda_grid):
        c = replace(cfg, lam=lam)
        row = []
        for hold in folds:
            keep = np.ones(d.n, dtype=bool)
            keep[hold] = False
            held = d.subset(hold)
            if public:
                train = d.subset(keep)
                models = spec.fit(train)
                w_train = dr_weights(train, *models)
            else:
                train, w_train, w_held, _ = earl_mod._split_fits(d, spec, gram, keep)
            if crossfit:
                fit = earl_fit_crossfit(train, spec, c)
            else:
                fit = earl_fit(train, w_train, c)
            if public:
                row.append(value_aipwe(held, fit.rule, *models).estimate)
            else:
                row.append(_dr_value(fit.rule.decide_many(held.X), *w_held))
        table.append(
            {
                "lambda": lam,
                "mean_value": float(np.sum(row) / len(row)),
                "fold_values": row,
                "fold_errors": [None] * len(row),
            }
        )
    return tuple(table)


@pytest.mark.parametrize(
    "loss,crossfit",
    [(loss, False) for loss in ("hinge", "exp", "logistic", "sqhinge")] + [("logistic", True), ("hinge", True)],
)
def test_select_lambda_path_matches_cold_fits(loss, crossfit):
    grid = (2.0**-5, 2.0**-2, 2.0, 2.0**5)
    for seed in range(3):
        d = generate_scenario(ScenarioSpec(2, 300), seed)
        cfg = EarlConfig(loss=loss, lambda_grid=grid, k_folds=2, seed=seed)
        sel = select_lambda(d, _cc_spec(), cfg, crossfit=crossfit)
        assert sel.table == _cold_table(d, _cc_spec(), cfg, crossfit)


@pytest.mark.parametrize(
    "loss,crossfit",
    [(loss, False) for loss in ("hinge", "exp", "logistic", "sqhinge")] + [("logistic", True), ("hinge", True)],
)
def test_select_lambda_path_matches_public_cold_fits(loss, crossfit):
    # the downdated outcome fits and one-pass weights move a fold value by
    # rounding only, against nuisance fits built from public functions
    grid = (2.0**-5, 2.0**-2, 2.0, 2.0**5)
    for seed in range(3):
        d = generate_scenario(ScenarioSpec(2, 300), seed)
        cfg = EarlConfig(loss=loss, lambda_grid=grid, k_folds=2, seed=seed)
        sel = select_lambda(d, _cc_spec(), cfg, crossfit=crossfit)
        for row, cold in zip(sel.table, _cold_table(d, _cc_spec(), cfg, crossfit, public=True)):
            assert row["lambda"] == cold["lambda"] and row["fold_errors"] == cold["fold_errors"]
            for a, b in zip(row["fold_values"], cold["fold_values"]):
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_select_lambda_restarts_from_zero_after_failed_cell(monkeypatch):
    real_solve = earl_mod._solve
    starts = []

    def fails_at_one(prob, config, b=None):
        starts.append((prob.lam, b))
        if prob.lam == 1.0:
            raise NumericalError("solver blew up")
        return real_solve(prob, config, b)

    monkeypatch.setattr(earl_mod, "_solve", fails_at_one)
    d = generate_scenario(ScenarioSpec(2, 200), 4)
    cfg = EarlConfig(lambda_grid=(0.25, 1.0, 4.0), cv_folds=4, seed=1)
    sel = select_lambda(d, _cc_spec(), cfg)
    assert [lam for lam, _ in starts] == [4.0, 1.0, 0.25] * 4
    assert all(b is None for lam, b in starts if lam != 1.0)
    assert all(b is not None for lam, b in starts if lam == 1.0)
    monkeypatch.undo()
    rows = {row["lambda"]: row for row in sel.table}
    cold = {row["lambda"]: row for row in _cold_table(d, _cc_spec(), cfg)}
    assert rows[1.0]["fold_values"] == [None] * 4
    assert rows[1.0]["fold_errors"] == ["NumericalError: solver blew up"] * 4
    assert rows[0.25] == cold[0.25]
    assert rows[4.0] == cold[4.0]


def _record_evaluations(monkeypatch):
    """A list that records, in order, each solve's start ("cold" or
    "warm"), each margins evaluation ("m") and each objective value ("v")."""
    events = []
    real_margins, real_value = earl_mod._Problem.margins, earl_mod._Problem.value
    real_solve = earl_mod._solve

    def margins(self, b):
        events.append("m")
        return real_margins(self, b)

    def value(self, b, m):
        events.append("v")
        return real_value(self, b, m)

    def solve(prob, config, b=None):
        events.append("cold" if b is None else "warm")
        return real_solve(prob, config, b)

    monkeypatch.setattr(earl_mod._Problem, "margins", margins)
    monkeypatch.setattr(earl_mod._Problem, "value", value)
    monkeypatch.setattr(earl_mod, "_solve", solve)
    return events


@pytest.mark.parametrize("crossfit", [False, True])
def test_select_lambda_carries_each_converged_point_down_the_path(monkeypatch, crossfit):
    d = generate_scenario(ScenarioSpec(2, 300), 5)
    cfg = EarlConfig(loss="logistic", seed=1)
    events = _record_evaluations(monkeypatch)
    sel = select_lambda(d, _cc_spec(), cfg, crossfit=crossfit)
    solves = cfg.cv_folds * len(cfg.lambda_grid) * (cfg.k_folds if crossfit else 1)
    cold = events.count("cold")
    assert cold == cfg.cv_folds * (cfg.k_folds if crossfit else 1)
    assert events.count("warm") == solves - cold
    # a cold solve evaluates its start; a warm one takes the previous solve's
    # evaluated point and goes straight to its objective value
    for i, e in enumerate(events):
        if e == "cold":
            assert events[i + 1 : i + 3] == ["m", "v"]
        elif e == "warm":
            assert events[i + 1] == "v"
    # every other margins evaluation is a line-search trial point, each
    # followed by its value
    trials = events.count("v") - solves
    assert events.count("m") == trials + cold

    # handing each solve a copy of its start defeats the carry: the same
    # table, at one more evaluation per warm solve (10 splits x 10 warm
    # lambdas, per cross-fitting fold)
    real_solve = earl_mod._solve

    def copied(prob, config, b=None):
        return real_solve(prob, config, None if b is None else b.copy())

    monkeypatch.setattr(earl_mod, "_solve", copied)
    carried_margins = events.count("m")
    events.clear()
    assert select_lambda(d, _cc_spec(), cfg, crossfit=crossfit).table == sel.table
    assert events.count("m") - carried_margins == solves - cold == (200 if crossfit else 100)


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
def test_solve_after_a_replaced_point_starts_fresh(monkeypatch, loss):
    # a solve stopped at max_iter returns its best point, not its last one,
    # and a hinge solve from a poor start returns beta = 0 in place of its
    # smoothed point; the next solve from either must equal one from a copy
    d, rng = _data(200, 3, seed=7)
    w = (rng.normal(size=200) * 3, rng.normal(size=200) * 3)
    cfg = EarlConfig(loss=loss, lam=0.1)
    prob, _ = _build_problem(d, w, cfg)
    start = np.full(prob.q, 5.0) if loss == "hinge" else None
    monkeypatch.setattr(EarlConfig, "max_iter", 1)
    b, _, _, _, converged = earl_mod._solve(prob, cfg, start)
    monkeypatch.undo()
    assert not converged
    if loss == "hinge":
        assert not np.any(b)
    prob.lam = 0.05
    carried = earl_mod._solve(prob, cfg, b)
    fresh = earl_mod._solve(prob, cfg, b.copy())
    assert np.array_equal(carried[0], fresh[0]) and carried[1:] == fresh[1:]


@pytest.mark.parametrize("crossfit", [False, True])
def test_select_lambda_fits_nuisances_once_per_split(monkeypatch, crossfit):
    calls = []
    real_fit, real_split_fits = NuisanceSpec.fit, earl_mod._split_fits

    def counted(self, data):
        calls.append(data.n)
        return real_fit(self, data)

    def counted_split(data, nuisance, gram, keep):
        calls.append(int(keep.sum()))
        return real_split_fits(data, nuisance, gram, keep)

    monkeypatch.setattr(NuisanceSpec, "fit", counted)
    monkeypatch.setattr(earl_mod, "_split_fits", counted_split)
    d = generate_scenario(ScenarioSpec(2, 200), 4)
    cfg = EarlConfig(lambda_grid=(0.25, 1.0), cv_folds=4, k_folds=3, seed=1)
    select_lambda(d, _cc_spec(), cfg, crossfit=crossfit)
    # plain: one fit on each training split; cross-fit adds the K folds'
    assert len(calls) == cfg.cv_folds * ((cfg.k_folds + 1) if crossfit else 1)
    assert calls.count(150) == cfg.cv_folds


@pytest.mark.filterwarnings("ignore:outcome design is rank deficient:UserWarning")
@pytest.mark.parametrize("code", ["CC", "II"])
def test_select_lambda_scores_every_cell_with_few_treated(code):
    # scenario 3 treats about 2.5% of subjects, so held folds of 50 rows
    # often hold one arm; scoring them needs no nuisance fit of their own
    for seed in range(5):
        d = generate_scenario(ScenarioSpec(3, 500), seed)
        sel = select_lambda(d, ModelSpec(code).nuisance_spec(3), EarlConfig(seed=seed))
        for row in sel.table:
            assert None not in row["fold_values"]
            assert row["fold_errors"] == [None] * 10


@pytest.mark.filterwarnings("ignore:outcome design is rank deficient:UserWarning")
@pytest.mark.parametrize(
    "scenario,code,n,crossfit,listed,failed",
    [
        (3, "II", 500, False, 3, 0),
        # every cross-fitting fold of 225 rows falls back, whatever its split's own fit did
        (3, "II", 500, True, 30, 0),
        (2, "CC", 500, False, 0, 0),
        (2, "CC", 500, True, 0, 0),
        # one split's cross-fitting folds hold a single arm, so its setup fails
        (3, "II", 400, True, 29, 1),
    ],
)
def test_selection_records_each_split_whose_outcome_fit_fell_back(scenario, code, n, crossfit, listed, failed):
    spec = ModelSpec(code).nuisance_spec(scenario)
    n_listed = n_failed = 0
    for seed in range(3):
        d = generate_scenario(ScenarioSpec(scenario, n), seed)
        cfg = EarlConfig(seed=seed)
        gram = _OutcomeGram(d, spec.outcome_map)
        expected = []
        for j, hold in enumerate(earl_mod._partition(d.n, cfg.cv_folds, cfg.seed, 4242)):
            keep = np.ones(d.n, dtype=bool)
            keep[hold] = False
            fell_back = gram.fit(keep).ridge_fallback
            if crossfit:
                try:
                    fit = earl_fit_crossfit(d.subset(keep), spec, replace(cfg, lam=1.0))
                except DataError:
                    n_failed += 1  # a split whose setup fails is not listed
                    continue
                fell_back |= any(a.outcome.ridge_fallback for a in fit.fold_artifacts)
            if fell_back:
                expected.append(j)
        sel = select_lambda(d, spec, cfg, crossfit=crossfit)
        assert sel.ridge_fallback_splits == tuple(expected)
        n_listed += len(expected)
    assert (n_listed, n_failed) == (listed, failed)


@pytest.mark.parametrize("quadratic", [False, True])
def test_rule_design_rows_match_the_subset_design(quadratic):
    d, rng = _data(97, 4, seed=5)
    fm = FeatureMap.quadratic(4, intercept=False) if quadratic else FeatureMap.linear(4, intercept=False)
    mask = rng.random(d.n) < 0.7
    full = earl_mod._rule_design(d.X, fm)[mask]
    sub = earl_mod._rule_design(d.subset(np.flatnonzero(mask)).X, fm)
    assert full.shape == sub.shape and full.tobytes() == sub.tobytes()


def test_every_problem_design_is_column_major(monkeypatch):
    # each problem's rule design must stay column-major, and equal to the
    # matching rows of the row-major column stack [1, X]: a row-major
    # design gives the same fits at rounding level, so only this test
    # sees a fall back to it
    designs = []
    real_init = earl_mod._Problem.__init__

    def recorded(self, Z, *args):
        designs.append(Z)
        real_init(self, Z, *args)

    monkeypatch.setattr(earl_mod._Problem, "__init__", recorded)
    d = generate_scenario(ScenarioSpec(2, 200), 3)
    spec = _cc_spec()
    cfg = EarlConfig(lambda_grid=(0.25, 1.0), cv_folds=4, k_folds=2, seed=1)
    by_row = np.column_stack([np.ones(d.n), d.X])
    every = np.arange(d.n)
    splits = [np.setdiff1d(every, hold) for hold in earl_mod._partition(d.n, cfg.cv_folds, cfg.seed, 4242)]

    def crossfit_rows(rows):
        # each cross-fitting problem holds its rows' complement of a fold
        folds = earl_mod._partition(len(rows), cfg.k_folds, cfg.seed, 7011)
        return [rows[np.setdiff1d(np.arange(len(rows)), f)] for f in folds]

    earl_fit(d, dr_weights(d, *spec.fit(d)), cfg)
    earl_fit_crossfit(d, spec, cfg)
    select_lambda(d, spec, cfg)
    select_lambda(d, spec, cfg, crossfit=True)
    expected = [every] + crossfit_rows(every) + splits + [r for rows in splits for r in crossfit_rows(rows)]
    assert len(designs) == len(expected) == 1 + 2 + 4 + 8
    for Z, rows in zip(designs, expected):
        assert Z.flags.f_contiguous and np.array_equal(Z, by_row[rows])


@pytest.mark.parametrize("crossfit", [False, True])
def test_hinge_guard_evaluates_no_margins_at_beta_zero(monkeypatch, crossfit):
    # the hinge objective at beta = 0 is mean(|W_1| + |W_-1|) at any
    # lambda, so the guard reads it from the weights without evaluating
    # the margins there: while a solve reports its point b (never beta = 0
    # here), nothing is evaluated at beta = 0
    at_zero, reported, reporting = [], [], []
    real_report = earl_mod._SmoothedHinge.report
    real_margins, real_value, real_phi = earl_mod._Problem.margins, earl_mod._Problem.value, earl_mod._phi

    def report(self, b, f):
        reported.append(np.any(b))
        reporting.append(self)
        try:
            return real_report(self, b, f)
        finally:
            reporting.pop()

    def margins(self, b):
        if reporting and not np.any(b):
            at_zero.append("margins")
        return real_margins(self, b)

    def value(self, b, m):
        if reporting and not np.any(b):
            at_zero.append("value")
        return real_value(self, b, m)

    def phi(kind, mt, shared):
        if reporting and not np.any(mt):
            at_zero.append("phi")
        return real_phi(kind, mt, shared)

    monkeypatch.setattr(earl_mod._SmoothedHinge, "report", report)
    monkeypatch.setattr(earl_mod._Problem, "margins", margins)
    monkeypatch.setattr(earl_mod._Problem, "value", value)
    monkeypatch.setattr(earl_mod, "_phi", phi)
    d = generate_scenario(ScenarioSpec(2, 200), 3)
    cfg = EarlConfig(loss="hinge", lambda_grid=(0.25, 1.0, 4.0), cv_folds=4, k_folds=2, seed=2)
    sel = select_lambda(d, _cc_spec(), cfg, crossfit=crossfit)
    assert len(reported) > 0 and all(reported)
    assert at_zero == []
    monkeypatch.undo()
    assert sel.table == _cold_table(d, _cc_spec(), cfg, crossfit)


def test_n_iter_counts_newton_steps(monkeypatch):
    calls = []
    real_hessian = earl_mod._Problem.hessian

    def counted(self, b):
        calls.append(1)
        return real_hessian(self, b)

    monkeypatch.setattr(earl_mod._Problem, "hessian", counted)
    d = generate_scenario(ScenarioSpec(2, 300), 41)
    w = dr_weights(d, *_cc_spec().fit(d))
    for loss in ("logistic", "hinge"):
        calls.clear()
        fit = earl_fit(d, w, EarlConfig(loss=loss, lam=0.1))
        assert fit.converged
        assert fit.n_iter == len(calls) > 0


def test_smooth_solve_from_a_far_start_backtracks_and_converges(monkeypatch):
    # from beta = (5, .., 5) the full logistic Newton step overshoots, so
    # the line search halves some trial steps: it evaluates more trial
    # points than the steps it takes
    trials = []
    real_margins = earl_mod._Problem.margins

    def margins(self, b):
        trials.append(1)
        return real_margins(self, b)

    d, rng = _data(60, 2, seed=3)
    w = (rng.normal(size=60) * 3, rng.normal(size=60) * 3)
    cfg = EarlConfig(loss="logistic", lam=0.01)
    prob, _ = _build_problem(d, w, cfg)
    monkeypatch.setattr(earl_mod._Problem, "margins", margins)
    b, f, steps, grad_norm, converged = earl_mod._solve(prob, cfg, np.full(prob.q, 5.0))
    monkeypatch.undo()
    assert len(trials) - 1 > steps > 0  # the first evaluation is the start
    assert converged and grad_norm < cfg.tol
    assert float(np.max(np.abs(prob.gradient(b)))) < cfg.tol
    assert f == prob.objective(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("loss", ["logistic", "hinge"])
def test_non_finite_gradient_is_a_numerical_error(monkeypatch, bad, loss):
    real = earl_mod._Problem.loss_slopes

    def poisoned(self, m):
        g, w = real(self, m)
        g = g.copy()
        g[-1] = bad
        return g, w

    monkeypatch.setattr(earl_mod._Problem, "loss_slopes", poisoned)
    d, rng = _data(40, 2, seed=5)
    w = (rng.normal(size=40), rng.normal(size=40))
    with pytest.raises(NumericalError, match="non-finite gradient after 0 Newton steps"):
        earl_fit(d, w, EarlConfig(loss=loss, lam=0.1))


def test_hinge_line_search_starts_at_the_exact_step(monkeypatch):
    # each Newton step forms one Hessian; every other objective evaluation
    # is a line-search trial point (plus a few per fit)
    calls = {"margins": 0, "hessian": 0}
    real_margins, real_hessian = earl_mod._Problem.margins, earl_mod._Problem.hessian

    def margins(self, b):
        calls["margins"] += 1
        return real_margins(self, b)

    def hessian(self, w):
        calls["hessian"] += 1
        return real_hessian(self, w)

    monkeypatch.setattr(earl_mod._Problem, "margins", margins)
    monkeypatch.setattr(earl_mod._Problem, "hessian", hessian)
    spec = _cc_spec()
    for seed in range(3):
        d = generate_scenario(ScenarioSpec(2, 500), seed)
        prop = fit_propensity(d, spec.propensity_map, ridge=spec.ridge, clip=spec.clip)
        assert owl_fit(d, prop, EarlConfig(loss="hinge", lam=2.0**-5)).diagnostics["converged"]
    assert calls["margins"] <= 2 * calls["hessian"]


@pytest.mark.filterwarnings("ignore:outcome design is rank deficient:UserWarning")
def test_select_lambda_failure_of_mixed_classes_is_their_common_class(monkeypatch):
    # 4 of these 200 subjects are treated: in 2 of the 10 CV splits a K = 2
    # cross-fitting fold holds a single arm, and in the other 8 a fold's
    # propensity fit separates its one treated subject
    seen = []
    real_failure = earl_mod._selection_failure
    monkeypatch.setattr(earl_mod, "_selection_failure", lambda errors: seen.append(errors) or real_failure(errors))
    d = generate_scenario(ScenarioSpec(3, 200), 0)
    spec = NuisanceSpec(FeatureMap.linear(d.p), FeatureMap.from_name("linear*a", d.p))
    with pytest.raises(EarlError) as info:
        select_lambda(d, spec, EarlConfig(), crossfit=True)
    assert type(info.value) is EarlError
    assert "110 of 110 cells failed, e.g. ConvergenceError: perfect separation" in str(info.value)
    classes = [type(exc).__name__ for row in seen[0] for exc in row]
    assert (classes.count("ConvergenceError"), classes.count("DataError")) == (88, 22)


@pytest.mark.parametrize(
    "raised,expected",
    [
        ((ConvergenceError, ConvergenceError), ConvergenceError),
        ((DataError, ConvergenceError), EarlError),
        ((DataError, NumericalError), NumericalError),
        ((DataError, np.linalg.LinAlgError), NumericalError),
    ],
)
def test_select_lambda_failure_takes_the_cells_common_class(monkeypatch, raised, expected):
    # the cells at lambda = 1 raise raised[1], the others raised[0]
    def fails(prob, config, b=None):
        raise raised[prob.lam == 1.0]("cell failed")

    monkeypatch.setattr(earl_mod, "_solve", fails)
    d = generate_scenario(ScenarioSpec(2, 200), 4)
    cfg = EarlConfig(lambda_grid=(0.25, 1.0), cv_folds=4, seed=1)
    with pytest.raises(expected) as info:
        select_lambda(d, _cc_spec(), cfg)
    assert type(info.value) is expected
    assert f"e.g. {raised[0].__name__}: cell failed" in str(info.value)


def test_select_lambda_rejects_negative_lambda():
    d = generate_scenario(ScenarioSpec(2, 200), 4)
    with pytest.raises(ConfigError, match="nonnegative"):
        select_lambda(d, _cc_spec(), EarlConfig(lambda_grid=(0.5, -1.0), cv_folds=4, seed=1))


@pytest.mark.parametrize("kwargs", [{"lam": 1e308}, {"lambda_grid": (1.0, 1e308)}])
def test_config_rejects_a_lambda_whose_ridge_term_overflows(kwargs):
    # 2 lambda must be finite; the largest such lambda is accepted
    with pytest.raises(ConfigError, match="at most 8.98847e"):
        EarlConfig(**kwargs)
    top = np.finfo(float).max / 2.0
    assert np.isfinite(2.0 * top)
    EarlConfig(lam=top, lambda_grid=(1.0, top))


@pytest.mark.parametrize(
    "call,error,fragment",
    [
        (lambda d: EarlConfig(cv_folds=1), ConfigError, "cv_folds must be at least 2, got 1"),
        # np.array_split would silently run 2 and 3 folds
        (lambda d: EarlConfig(k_folds=2.5), ConfigError, "k_folds must be an integer, got 2.5"),
        (lambda d: EarlConfig(cv_folds=3.5), ConfigError, "cv_folds must be an integer, got 3.5"),
        (lambda d: EarlConfig(cv_folds=3.0), ConfigError, "cv_folds must be an integer, got 3.0"),
        (lambda d: EarlConfig(lambda_grid=()), ConfigError, "lambda_grid must be nonempty"),
        (lambda d: earl_fit(d, (np.ones(3), np.ones(3)), EarlConfig()), DataError, "align with the 40 data rows"),
        (lambda d: earl_fit(d, (np.full(40, np.nan), np.ones(40)), EarlConfig()), DataError, "must be finite"),
        (
            lambda d: fit_earl_pipeline(d, _cc_spec(), EarlConfig(), select="bogus"),
            ConfigError,
            "select must be 'fixed' or 'cv', got 'bogus'",
        ),
    ],
    ids=["cv-folds", "fractional-k-folds", "fractional-cv-folds", "float-cv-folds", "empty-grid", "misaligned-weights", "nan-weights", "select"],
)
def test_estimator_inputs_are_checked(call, error, fragment):
    d, _ = _data(40, 2)
    with pytest.raises(error) as exc:
        call(d)
    assert fragment in str(exc.value)


def test_select_lambda_needs_enough_rows():
    d, _ = _data(5, 2, seed=0)
    with pytest.raises(DataError):
        select_lambda(d, _cc_spec(), EarlConfig(cv_folds=10))


def test_hinge_desk_fit_reaches_oracle(monkeypatch):
    d = Dataset(np.array([[0.2], [-0.1]]), [1, -1], [0.0, 0.0])
    weights = [WeightPair(4.0, 0.0), WeightPair(0.0, 1.0)]
    monkeypatch.setattr(EarlConfig, "max_iter", 2000)
    cfg = EarlConfig(loss="hinge", lam=0.0, feature_map=FeatureMap(1, ()))
    fit = earl_fit(d, weights, cfg)

    def obj(b):
        return 0.5 * (4.0 * max(1 - b, 0.0) + max(1 + b, 0.0))

    _, f_star = _grid_oracle_1d(obj)
    assert fit.objective_value <= f_star + 1e-4


def test_hinge_fit_reports_nonconvergence(monkeypatch):
    d, rng = _data(80, 3, seed=4)
    w = (rng.normal(size=80) * 2, rng.normal(size=80) * 2)
    cfg = EarlConfig(loss="hinge", lam=0.1)
    fit = earl_fit(d, w, cfg)
    assert fit.converged and fit.grad_norm < cfg.tol
    monkeypatch.setattr(EarlConfig, "max_iter", 1)
    short = earl_fit(d, w, cfg)
    assert not short.converged
    assert short.grad_norm >= cfg.tol


def test_hinge_matches_linear_program_at_lambda_zero():
    # at lam = 0 the hinge problem is the LP: minimize the weighted slacks
    # xi >= 0 with xi >= 1 - label * (beta0 + beta'x) for each instance
    for seed in range(3):
        d = generate_scenario(ScenarioSpec(2, 300), seed)
        w_pos, w_neg = dr_weights(d, true_propensity_model(2), None)
        n = d.n
        Z = np.column_stack([np.ones(n), d.X])
        q = Z.shape[1]
        u = np.where(w_pos >= 0, 1.0, -1.0)
        v = np.where(w_neg >= 0, -1.0, 1.0)
        c = np.concatenate([np.zeros(q), np.abs(w_pos) / n, np.abs(w_neg) / n])
        eye, zero = np.eye(n), np.zeros((n, n))
        A = np.block([[-u[:, None] * Z, -eye, zero], [-v[:, None] * Z, zero, -eye]])
        bounds = [(None, None)] * q + [(0.0, None)] * (2 * n)
        lp = linprog(c, A_ub=A, b_ub=-np.ones(2 * n), bounds=bounds, method="highs")
        assert lp.status == 0
        fit = earl_fit(d, (w_pos, w_neg), EarlConfig(loss="hinge", lam=0.0))
        assert fit.converged
        assert fit.objective_value - lp.fun <= 1e-5 * (1.0 + abs(lp.fun))
        assert fit.objective_value >= lp.fun - 1e-7 * (1.0 + abs(lp.fun))


def _reference_terms(loss, delta):
    """phi, phi' and phi'' written out separately: from phi_eval/phi_grad/
    phi_hess for a smooth loss, from its definition for a smoothed hinge."""
    if delta is None:
        return (lambda t: phi_eval(loss, t)), (lambda t: phi_grad(loss, t)), (lambda t: phi_hess(loss, t))

    def phi(t):
        r = 1.0 - t
        return np.where(r > delta, r - 0.5 * delta, np.where(r > 0.0, r * r / (2.0 * delta), 0.0))

    def dphi(t):
        return -np.clip((1.0 - t) / delta, 0.0, 1.0)

    def d2phi(t):
        r = 1.0 - t
        return ((r > 0.0) & (r <= delta)) / delta

    return phi, dphi, d2phi


@pytest.mark.parametrize(
    "loss,delta",
    [("exp", None), ("logistic", None), ("sqhinge", None), ("hinge", 1.0), ("hinge", 1e-2), ("hinge", 1e-5)],
)
def test_evaluator_equals_separate_formulas(loss, delta):
    rng = np.random.default_rng(5)
    for trial in range(20):
        n, p = int(rng.integers(3, 40)), int(rng.integers(1, 4))
        d = Dataset(rng.normal(size=(n, p)), np.where(rng.random(n) < 0.5, 1, -1), rng.normal(size=n))
        w_pos, w_neg = rng.normal(size=n) * 3, rng.normal(size=n) * 3
        w_neg[: n // 4] = 0.0
        lam = float(rng.uniform(0.0, 1.0))
        prob, _ = _build_problem(d, (w_pos, w_neg), EarlConfig(loss=loss, lam=lam))
        if delta is not None:
            prob.delta = delta
        # the last trials put every margin on a kink: t = +-1 (sqhinge), r = delta
        b = rng.normal(size=p + 1) * 2.0 ** rng.integers(-3, 4)
        if trial >= 18:
            b = np.zeros(p + 1)
            b[0] = 1.0 if trial == 18 or delta is None else 1.0 - delta
        phi, dphi, d2phi = _reference_terms(loss, delta)
        s = prob.Z @ b
        # each instance's label is the sign its weight takes in the objective
        aw, bw = np.abs(w_pos), np.abs(w_neg)
        u, v = np.asarray(sgn(w_pos), dtype=float), -np.asarray(sgn(w_neg), dtype=float)
        f = float(np.mean(aw * phi(u * s) + bw * phi(v * s))) + lam * float(b[1:] @ b[1:])
        g = prob.Z.T @ ((aw * dphi(u * s) * u + bw * dphi(v * s) * v) / n)
        g[1:] += 2.0 * lam * b[1:]
        H = prob.Z.T @ (((aw * d2phi(u * s) + bw * d2phi(v * s)) / n)[:, None] * prob.Z)
        H[np.arange(1, p + 1), np.arange(1, p + 1)] += 2.0 * lam
        m = prob.margins(b)
        g_new, w = prob.slopes(b, m)
        assert prob.value(b, m) == f == prob.objective(b)
        assert np.array_equal(g_new, g) and np.array_equal(prob.gradient(b), g)
        assert np.array_equal(prob.hessian(w), H)


def test_warm_hinge_solve_starts_at_narrow_smoothing(monkeypatch):
    real_solve = earl_mod._solve
    stages = []

    def recorded(prob, config, b=None):
        stages.append((prob.delta, b is None))
        return real_solve(prob, config, b)

    monkeypatch.setattr(earl_mod, "_solve", recorded)
    d = generate_scenario(ScenarioSpec(2, 200), 3)
    cfg = EarlConfig(loss="hinge", lambda_grid=(0.25, 1.0, 4.0), cv_folds=4, seed=2)
    sel = select_lambda(d, _cc_spec(), cfg)
    cold, warm = (earl_mod._SmoothedHinge.delta, True), (earl_mod._SmoothedHinge.delta, False)
    # each of the 4 splits: one cold solve at lambda = 4, then two warm ones
    assert stages == [cold, warm, warm] * 4
    monkeypatch.undo()
    assert sel.table == _cold_table(d, _cc_spec(), cfg)
