import numpy as np
import pytest

from earlkit.core import DataError, Dataset, FeatureMap, LinearRule, NumericalError
from earlkit.earl import EarlConfig, earl_fit
from earlkit.inference import (
    DEFAULT_PERMUTATIONS,
    permutation_report,
    permutation_test,
)
from earlkit.nuisance import NuisanceSpec
from earlkit.weights import dr_weights


def test_default_permutation_count_is_2000():
    assert DEFAULT_PERMUTATIONS == 2000


def _dataset(n=80, p=3, seed=0, signal=True):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    A = np.where(rng.random(n) < 0.5, 1, -1)
    Y = rng.normal(size=n) + (A * (1.5 * X[:, 0]) if signal else 0.0)
    return Dataset(X, A, Y)


def _earl_pipeline(lam=1.0):
    def pipeline(d):
        spec = NuisanceSpec(
            FeatureMap.intercept_only(d.p), FeatureMap.linear(d.p).with_treatment()
        )
        prop, out = spec.fit(d)
        cfg = EarlConfig(loss="logistic", lam=lam)
        return earl_fit(d, dr_weights(d, prop, out), cfg).rule

    return pipeline


def test_constant_pipeline_gives_p_one():
    d = _dataset()

    def constant(_):
        return LinearRule.raw(0.5, [0.3, 0.2, -0.1])

    entry = permutation_test(d, constant, covariate=1, b=25, seed=3)
    assert entry.p_value == 1.0
    assert entry.coefficient == 0.2


def test_p_value_bounds():
    d = _dataset(n=60)
    entry = permutation_test(d, _earl_pipeline(), covariate=0, b=20, seed=1)
    assert entry.p_value >= 1 / 21
    assert entry.p_value <= 1.0
    assert entry.p_value > 0.0


def test_signal_covariate_is_small_noise_large():
    d = _dataset(n=150, seed=5)
    signal = permutation_test(d, _earl_pipeline(), covariate=0, b=50, seed=2)
    noise = permutation_test(d, _earl_pipeline(), covariate=2, b=50, seed=2)
    assert signal.p_value < 0.1
    assert noise.p_value > 0.1


def test_determinism_given_seed():
    d = _dataset(n=70, seed=9)
    a = permutation_test(d, _earl_pipeline(), covariate=0, b=30, seed=11)
    b = permutation_test(d, _earl_pipeline(), covariate=0, b=30, seed=11)
    assert a == b
    c = permutation_test(d, _earl_pipeline(), covariate=0, b=30, seed=12)
    assert c.coefficient == a.coefficient  # observed fit does not depend on the seed


def test_report_runs_all_covariates():
    d = _dataset(n=60, p=3)
    report = permutation_report(d, _earl_pipeline(), b=10, seed=4)
    assert [e.covariate for e in report.entries] == [0, 1, 2]
    report2 = permutation_report(d, _earl_pipeline(), b=10, seed=4, covariates=[2])
    assert [e.covariate for e in report2.entries] == [2]


def test_too_many_refit_failures_error():
    d = _dataset(n=40)
    baseline_col = d.X[:, 1].copy()

    def fragile(data):
        if not np.array_equal(data.X[:, 1], baseline_col):
            raise DataError("refusing permuted data")
        return LinearRule.raw(0.0, np.zeros(data.p))

    with pytest.raises(NumericalError, match="refits failed"):
        permutation_test(d, fragile, covariate=1, b=20, seed=0)


def _singular_refits(failing):
    """A pipeline whose first `failing` permutation refits raise LinAlgError."""
    calls = []

    def pipeline(data):
        calls.append(None)
        if 1 < len(calls) <= 1 + failing:
            raise np.linalg.LinAlgError("Singular matrix")
        return LinearRule.raw(0.0, np.zeros(data.p))

    return pipeline


def test_linalg_error_refit_is_dropped():
    entry = permutation_test(_dataset(n=40), _singular_refits(1), covariate=1, b=30, seed=0)
    assert entry.permutations == 29
    assert entry.p_value == 1.0


def test_too_many_linalg_error_refits_error():
    # 5% of 30 permutations tolerates one failed refit, not two
    with pytest.raises(NumericalError, match="2 of 30 permutation refits failed"):
        permutation_test(_dataset(n=40), _singular_refits(2), covariate=1, b=30, seed=0)


def test_invalid_arguments():
    from earlkit.core import ConfigError

    d = _dataset(n=30)
    with pytest.raises(ConfigError):
        permutation_test(d, _earl_pipeline(), covariate=0, b=0)
    with pytest.raises(ConfigError):
        permutation_test(d, _earl_pipeline(), covariate=5, b=10)


def test_report_fits_the_observed_data_once():
    d = _dataset(n=60, p=3, seed=2)
    fit = _earl_pipeline()
    calls = []

    def counting(data):
        calls.append(data)
        return fit(data)

    b = 6
    report = permutation_report(d, counting, b=b, seed=5, covariates=[0, 2])
    assert len(calls) == 1 + 2 * b
    assert sum(data is d for data in calls) == 1
    separate = [permutation_test(d, fit, j, b=b, seed=5) for j in (0, 2)]
    assert list(report.entries) == separate
