import warnings

import numpy as np
import pytest
from scipy.special import expit, logit

import earlkit.nuisance as nuisance_mod
from earlkit.core import ConfigError, ConvergenceError, Dataset, DomainError, FeatureMap, NumericalError, ShapeError
from earlkit.earl import _partition
from earlkit.nuisance import (
    NuisanceSpec,
    OutcomeModel,
    PropensityModel,
    _expit,
    _OutcomeGram,
    fit_outcome,
    fit_propensity,
    predict_propensity,
    predict_q,
)
from earlkit.sim import ModelSpec, ScenarioSpec, generate_scenario, true_propensity_model


def _balanced_data(n=40, p=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    A = np.tile([1, -1], n // 2)
    Y = rng.normal(size=n)
    return Dataset(X, A, Y)


def test_intercept_only_balanced_gives_half():
    d = _balanced_data()
    m = fit_propensity(d, FeatureMap.intercept_only(d.p))
    assert m.gamma == pytest.approx([0.0], abs=1e-12)
    assert predict_propensity(m, d.X[3], 1) == 0.5
    assert m.converged


def test_expit_matches_scipy_within_rounding():
    x = np.concatenate([np.linspace(-745.0, 745.0, 200_001),
                        np.random.default_rng(3).normal(scale=8.0, size=100_000)])
    ref = expit(x)
    got = _expit(x)
    keep = ref >= 1e-300
    assert np.all(np.abs(got[keep] - ref[keep]) <= 1e-15 * ref[keep])
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert _expit(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
    grid = np.linspace(-800.0, 800.0, 100_001)
    assert np.all(np.diff(_expit(grid)) >= 0.0)


def test_expit_raises_no_floating_point_warning_at_extremes():
    x = np.array([-np.inf, -1000.0, -745.0, 745.0, 1000.0, np.inf])
    with np.errstate(all="raise"):
        got = _expit(x)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert got[-1] == 1.0 and got[-2] == 1.0 and got[0] < 1e-300


def test_scenario2_truth_at_x1_equal_one_is_half():
    m = true_propensity_model(2)
    x = np.zeros(10)
    x[0] = 1.0
    assert predict_propensity(m, x, 1) == 0.5


def test_propensity_monte_carlo_consistency():
    d = generate_scenario(ScenarioSpec(2, 50000), 123)
    fm = FeatureMap(10, (("1",), ("x", 0)))
    m = fit_propensity(d, fm)
    assert m.converged
    assert abs(m.gamma[0] - (-0.5)) < 0.1
    assert abs(m.gamma[1] - 0.5) < 0.1


def test_predict_propensity_clipping():
    fm = FeatureMap.intercept_only(3)
    m = PropensityModel(fm, np.array([0.0]), clip=(0.01, 0.99))
    assert predict_propensity(m, np.zeros(3), 1) == 0.5
    assert predict_propensity(m, np.zeros(3), -1) == 0.5
    low = PropensityModel(fm, np.array([float(logit(0.005))]), clip=(0.01, 0.99))
    assert predict_propensity(low, np.zeros(3), 1) == 0.01
    # interior points pass through any clip window containing them
    mid = PropensityModel(fm, np.array([0.0]), clip=(0.4, 0.6))
    assert predict_propensity(mid, np.zeros(3), 1) == 0.5


def test_raw_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    fm = FeatureMap.linear(3)
    m = PropensityModel(fm, rng.normal(size=fm.q), clip=(0.2, 0.8))
    X = rng.normal(size=(50, 3))
    assert np.all(m.raw_prob(X, 1) + m.raw_prob(X, -1) == 1.0)


def test_clip_bounds_always_hold():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = int(rng.integers(1, 5))
        fm = FeatureMap.linear(p)
        gamma = rng.normal(scale=5.0, size=fm.q)
        lo = float(rng.uniform(0.001, 0.4))
        hi = float(rng.uniform(lo, 0.999))
        m = PropensityModel(fm, gamma, clip=(lo, hi))
        X = rng.normal(scale=3.0, size=(20, p))
        for a in (1, -1):
            pr = m.prob(X, a)
            assert np.all(pr >= lo) and np.all(pr <= hi)


def test_bad_clip_rejected():
    with pytest.raises(DomainError):
        PropensityModel(FeatureMap.intercept_only(1), [0.0], clip=(0.0, 0.5))
    with pytest.raises(DomainError):
        PropensityModel(FeatureMap.intercept_only(1), [0.0], clip=(0.5, 1.0))


_FM3 = FeatureMap.linear(3)


@pytest.mark.parametrize(
    "call,error,fragment",
    [
        (lambda: PropensityModel(_FM3.with_treatment(), np.zeros(8)), ShapeError, "must be over x only"),
        (lambda: PropensityModel(_FM3, np.zeros(2)), ShapeError, "gamma has length 2, map has 4 terms"),
        (lambda: PropensityModel(_FM3, np.zeros(4)).prob(np.zeros((1, 3)), 0), DomainError, "arm must be -1 or +1, got 0"),
        (lambda: fit_propensity(_balanced_data(p=3), _FM3, ridge=-1), DomainError, "ridge must be nonnegative"),
        (lambda: OutcomeModel(_FM3, np.zeros(2)), ShapeError, "theta has length 2, map has 4 terms"),
        (lambda: predict_q(OutcomeModel(_FM3, np.zeros(4)), np.zeros(3), 0), DomainError, "arm must be -1 or +1, got 0"),
        (lambda: PropensityModel(_FM3, np.zeros(4), clip=[0.1]), DomainError, "clip must hold two bounds"),
        (lambda: PropensityModel(_FM3, np.zeros(4), clip=0.1), DomainError, "clip must hold two bounds"),
        (lambda: PropensityModel(_FM3, np.zeros(4), clip=("0.1", "0.9")), DomainError, "0 < lo <= hi < 1"),
        (lambda: NuisanceSpec(_FM3, None, clip=(0.1, 0.2, 0.3)), ConfigError, "clip must hold two bounds"),
    ],
    ids=["propensity-treatment", "gamma-length", "prob-arm", "negative-ridge", "theta-length", "predict-q-arm",
         "one-clip-bound", "scalar-clip", "text-clip", "spec-three-clip-bounds"],
)
def test_model_inputs_are_checked(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)


def test_irls_loglik_nondecreasing():
    for seed in range(5):
        d = generate_scenario(ScenarioSpec(2, 400), seed)
        m = fit_propensity(d, FeatureMap(10, (("1",), ("x", 0))))
        path = np.array(m.loglik_path)
        assert np.all(np.diff(path) >= -1e-9 * (1.0 + np.abs(path[:-1])))


def test_perfect_separation_raises_and_ridge_fixes():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    A = np.array([-1, -1, 1, 1])
    d = Dataset(X, A, np.zeros(4))
    fm = FeatureMap.linear(1)
    with pytest.raises(ConvergenceError, match="ridge"):
        fit_propensity(d, fm, ridge=0.0)
    m = fit_propensity(d, fm, ridge=1.0)
    assert np.all(np.isfinite(m.gamma))


def test_single_arm_requires_ridge():
    d = Dataset(np.ones((5, 1)), np.ones(5), np.zeros(5))
    with pytest.raises(ConvergenceError, match="ridge"):
        fit_propensity(d, FeatureMap.intercept_only(1), ridge=0.0)
    m = fit_propensity(d, FeatureMap.intercept_only(1), ridge=0.5)
    assert np.isfinite(m.gamma[0])


# gamma pinned from the fits at the parent of the ridge-0 fast path, where
# every IRLS iteration formed the penalty terms; ridge > 0 still forms them
@pytest.mark.parametrize("name,ridge,gamma", [
    ("linear", 0.5, [-0.509847169585633, 0.3782239537022071, -0.1956563007285959, -0.1831900517032705]),
    ("quadratic", 2.0, [-0.019684550488339156, 0.3299327024333872, -0.28696341537179615,
                        -0.2139652995619193, -0.21019994891189808, -0.28759590947243185,
                        -0.1392327198402677]),
    ("linear", 0.0, [-0.5097739015547188, 0.38316255217499245, -0.19914588509945372, -0.1869246213414301]),
])
def test_propensity_fit_matches_pinned_coefficients(name, ridge, gamma):
    d = generate_scenario(ScenarioSpec(2, 200, p=3), 7)
    m = fit_propensity(d, FeatureMap.from_name(name, d.p), ridge=ridge)
    assert m.converged
    assert m.gamma.tolist() == pytest.approx(gamma, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 1e12])
def test_non_finite_or_huge_newton_step_is_a_numerical_error(monkeypatch, step):
    # a step of 1e12 in each of the 3 coefficients has norm 1.7e12 > 1e12
    d = generate_scenario(ScenarioSpec(2, 100, p=2), 3)
    monkeypatch.setattr(nuisance_mod.np.linalg, "solve", lambda H, score: np.full(score.shape, step))
    with pytest.raises(NumericalError, match="numerically singular"):
        fit_propensity(d, FeatureMap.linear(d.p))


def test_irls_halves_a_step_that_lowers_the_loglik(monkeypatch):
    # a first Newton step 3x too long overshoots; halving it must recover
    d = generate_scenario(ScenarioSpec(2, 200), 3)
    fm = FeatureMap.linear(d.p)
    ref = fit_propensity(d, fm)
    solve, loglik = np.linalg.solve, nuisance_mod._penalized_loglik
    calls = {"solve": 0, "loglik": 0}

    def long_first_step(H, score):
        calls["solve"] += 1
        step = solve(H, score)
        return 3.0 * step if calls["solve"] == 1 else step

    def counted_loglik(*args):
        calls["loglik"] += 1
        return loglik(*args)

    monkeypatch.setattr(nuisance_mod.np.linalg, "solve", long_first_step)
    monkeypatch.setattr(nuisance_mod, "_penalized_loglik", counted_loglik)
    m = fit_propensity(d, fm)
    # one evaluation per accepted point, and more only where a step was halved
    assert calls["loglik"] > len(m.loglik_path)
    assert m.converged
    assert np.all(np.diff(m.loglik_path) >= 0.0)
    assert np.max(np.abs(m.gamma - ref.gamma)) < 1e-10


def test_outcome_constant_fit():
    d = Dataset(np.random.default_rng(3).normal(size=(30, 2)), np.tile([1, -1], 15), np.full(30, 4.5))
    fm = FeatureMap.linear(2).with_treatment()
    m = fit_outcome(d, fm)
    assert m.theta == pytest.approx([4.5, 0, 0, 0, 0, 0], abs=1e-9)
    assert predict_q(m, [0.3, -0.2], 1) == pytest.approx(4.5)


def test_outcome_interpolates_square_system():
    rng = np.random.default_rng(9)
    # q = 1 + 2 + 1 + 2 = 6 features, n = 6 distinct rows
    fm = FeatureMap.linear(2).with_treatment()
    X = rng.normal(size=(6, 2))
    A = np.array([1, -1, 1, -1, 1, -1])
    Y = rng.normal(size=6)
    d = Dataset(X, A, Y)
    m = fit_outcome(d, fm)
    resid = Y - m.predict(X, A)
    assert np.max(np.abs(resid)) < 1e-8


def test_outcome_monte_carlo_consistency():
    d = generate_scenario(ScenarioSpec(2, 50000), 321)
    fm = FeatureMap.quadratic(10).with_treatment(coords=(0, 1))
    m = fit_outcome(d, fm)
    i_ax1 = fm.terms.index(("ax", 0))
    assert abs(m.theta[i_ax1] - 1.0) < 0.05


def test_outcome_treatment_contrast():
    fm = FeatureMap(2, (("1",), ("ax", 0)))
    m = OutcomeModel(fm, np.array([0.0, 1.0]))
    x = np.array([3.0, 0.0])
    assert predict_q(m, x, 1) - predict_q(m, x, -1) == pytest.approx(6.0)


def test_outcome_rank_deficiency_triggers_ridge_fallback():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 3))
    d = Dataset(X, np.array([1, -1, 1, -1, 1]), rng.normal(size=5))
    fm = FeatureMap.quadratic(3).with_treatment()  # q = 11 > n = 5
    with pytest.warns(UserWarning, match="rank deficient"):
        m = fit_outcome(d, fm)
    assert m.ridge_fallback


def test_rank_deficient_full_fit_factors_g_once(monkeypatch):
    # with one arm, linear*a's a*x columns repeat its x columns; a fit with
    # no row held out solves G itself, so it has nothing to downdate or
    # refit, and equals the fit that keeps every row of a downdate
    d = _balanced_data()
    d = Dataset(d.X, np.ones(d.n, dtype=int), d.Y)
    fm = FeatureMap.from_name("linear*a", d.p)
    calls = []
    real = nuisance_mod._cholesky_solve

    def counted(G, r):
        calls.append(G)
        return real(G, r)

    monkeypatch.setattr(nuisance_mod, "_cholesky_solve", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = fit_outcome(d, fm)
    assert len(calls) == 1
    assert [str(w.message) for w in caught] == ["outcome design is rank deficient; using a 1e-8 ridge fallback"]
    assert m.ridge_fallback
    with pytest.warns(UserWarning, match="rank deficient"):
        kept = _OutcomeGram(d, fm).fit(np.ones(d.n, dtype=bool))
    assert np.array_equal(m.theta, kept.theta)


def test_outcome_residual_orthogonality():
    rng = np.random.default_rng(8)
    d = Dataset(rng.normal(size=(200, 3)), np.where(rng.random(200) < 0.5, 1, -1), rng.normal(size=200))
    fm = FeatureMap.linear(3).with_treatment()
    m = fit_outcome(d, fm)
    assert not m.ridge_fallback
    Z = fm.design(d.X, d.A)
    resid = d.Y - Z @ m.theta
    for j in range(Z.shape[1]):
        col = Z[:, j]
        assert abs(col @ resid) < 1e-6 * d.n * np.linalg.norm(col)


def test_predict_q_zero_and_intercept_models():
    fm = FeatureMap.intercept_only(2)
    zero = OutcomeModel(fm, np.array([0.0]))
    two = OutcomeModel(fm, np.array([2.0]))
    for a in (1, -1):
        assert predict_q(zero, [0.1, 0.2], a) == 0.0
        assert predict_q(two, [0.1, 0.2], a) == 2.0


def _outcome_map(name, scenario, p):
    if name == "linear*a":
        return FeatureMap.from_name(name, p)
    return ModelSpec(name).nuisance_spec(scenario).outcome_map


def _split_outcome_fits(scenario, n, name):
    """Per CV split of select_lambda's default partition: the downdated fit,
    the direct fit on the training rows, the training rows' design and the
    messages of the warnings the downdated fit raised."""
    d = generate_scenario(ScenarioSpec(scenario, n), 0)
    fm = _outcome_map(name, scenario, d.p)
    gram = _OutcomeGram(d, fm)
    for hold in _partition(d.n, 10, 0, 4242):
        keep = np.ones(d.n, dtype=bool)
        keep[hold] = False
        train = d.subset(keep)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            down = gram.fit(keep)
        messages = [str(w.message) for w in caught]
        yield down, fit_outcome(train, fm), fm.design(train.X, train.A), messages


_SPLIT_CASES = [
    (scenario, n, name) for scenario in (1, 2, 3) for n in (200, 500) for name in ("linear*a", "CC", "II")
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scenario,n,name", _SPLIT_CASES)
def test_downdated_split_fit_matches_the_direct_fit(scenario, n, name):
    for down, direct, *_ in _split_outcome_fits(scenario, n, name):
        assert down.ridge_fallback == direct.ridge_fallback
        err = np.max(np.abs(down.theta - direct.theta))
        assert err <= 1e-10 * (1.0 + np.max(np.abs(direct.theta)))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_rank_deficient_split_refits_on_its_own_rows():
    # a split whose training rows cannot resolve the map is refit on their
    # own G, exactly as fit_outcome fits them, and warns once
    fell_back = {}
    for case in _SPLIT_CASES:
        for down, direct, _, caught in _split_outcome_fits(*case):
            rank_warnings = sum("rank deficient" in m for m in caught)
            assert rank_warnings == down.ridge_fallback
            if down.ridge_fallback or direct.ridge_fallback:
                assert down.ridge_fallback and direct.ridge_fallback
                assert np.array_equal(down.theta, direct.theta)
                fell_back[case] = fell_back.get(case, 0) + 1
    # scenario 3 treats about 2.5% of subjects: at n=200 no training split
    # can resolve the ten a*x terms of the linear*a map
    assert fell_back == {
        (3, 200, "linear*a"): 10, (3, 200, "II"): 10, (3, 500, "linear*a"): 2, (3, 500, "II"): 2
    }


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("scenario,n,name", _SPLIT_CASES)
def test_outcome_fallback_flags_exactly_the_rank_deficient_designs(scenario, n, name):
    for _, direct, Z, _ in _split_outcome_fits(scenario, n, name):
        assert direct.ridge_fallback == (np.linalg.matrix_rank(Z) < Z.shape[1])


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_outcome_rank_rule_ignores_covariate_scale(scale):
    # a covariate in other units (a concentration near 1e-6, an income near
    # 1e6) rescales its columns of the design and their coefficients only
    d = generate_scenario(ScenarioSpec(2, 200), 0)
    X = d.X.copy()
    X[:, 0] *= scale
    scaled = Dataset(X, d.A, d.Y)
    fm = FeatureMap.from_name("linear*a", d.p)
    Z, Zs = fm.design(d.X, d.A), fm.design(X, d.A)
    col = np.linalg.norm(Zs, axis=0) / np.linalg.norm(Z, axis=0)
    gram, gram_s = _OutcomeGram(d, fm), _OutcomeGram(scaled, fm)
    fits = [(fit_outcome(d, fm), fit_outcome(scaled, fm))]
    for hold in _partition(d.n, 10, 0, 4242):
        keep = np.ones(d.n, dtype=bool)
        keep[hold] = False
        fits.append((gram.fit(keep), gram_s.fit(keep)))
    for unit, other in fits:
        assert not unit.ridge_fallback and not other.ridge_fallback
        err = np.max(np.abs(other.theta * col - unit.theta))
        assert err <= 1e-10 * (1.0 + np.max(np.abs(unit.theta)))
