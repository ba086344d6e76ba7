import numpy as np
import pytest
from scipy.special import logit

from earlkit.core import DataError, Dataset, FeatureMap, LinearRule
from earlkit.nuisance import OutcomeModel, PropensityModel
from earlkit.sim import ModelSpec, ScenarioSpec, generate_scenario
from earlkit.value import (
    value_aipwe,
    value_crossfit_aggregate,
    value_ipwe,
    value_ipwe_normalized,
)
from earlkit.weights import dr_weights

NEAR_ONE = np.nextafter(1.0, 0.0)


def _const_propensity(p, prob, clip=(0.01, 0.99)):
    return PropensityModel(FeatureMap.intercept_only(p), np.array([float(logit(prob))]), clip=clip)


def _rule_const(p, sign):
    return LinearRule.raw(float(sign), np.zeros(p))


def test_ipwe_matching_rule_unit_weights():
    rng = np.random.default_rng(1)
    n = 50
    d = Dataset(rng.normal(size=(n, 2)), np.ones(n), rng.normal(size=n))
    # propensity saturated at 1 up to the widest representable clip
    prop = PropensityModel(FeatureMap.intercept_only(2), np.array([40.0]), clip=(0.01, NEAR_ONE))
    v = value_ipwe(d, _rule_const(2, 1.0), prop)
    assert v.estimate == pytest.approx(float(np.mean(d.Y)), rel=1e-12)
    assert v.n_effective == n


def test_ipwe_no_matches_is_zero():
    rng = np.random.default_rng(2)
    n = 30
    d = Dataset(rng.normal(size=(n, 2)), np.ones(n), rng.normal(size=n))
    v = value_ipwe(d, _rule_const(2, -1.0), _const_propensity(2, 0.5))
    assert v.estimate == 0.0
    assert v.n_effective == 0


def test_ipwe_single_subject():
    d = Dataset(np.array([[0.3]]), [1], [3.0])
    v = value_ipwe(d, _rule_const(1, 1.0), _const_propensity(1, 0.5))
    assert v.estimate == 6.0


def test_aipwe_saturated_propensity_returns_outcome():
    d = Dataset(np.array([[0.2, -0.1]]), [1], [2.7])
    prop = PropensityModel(FeatureMap.intercept_only(2), np.array([40.0]), clip=(0.01, NEAR_ONE))
    fm = FeatureMap.intercept_only(2)
    out = OutcomeModel(fm, np.array([123.0]))  # wild Q-model must not matter
    v = value_aipwe(d, _rule_const(2, 1.0), prop, out)
    assert v.estimate == pytest.approx(2.7, rel=1e-12)


def test_aipwe_no_matches_averages_q():
    rng = np.random.default_rng(3)
    n = 40
    d = Dataset(rng.normal(size=(n, 3)), np.ones(n), rng.normal(size=n))
    fm = FeatureMap.linear(3).with_treatment()
    out = OutcomeModel(fm, rng.normal(size=fm.q))
    rule = _rule_const(3, -1.0)
    v = value_aipwe(d, rule, _const_propensity(3, 0.5), out)
    expected = float(np.mean(out.predict_arm(d.X, -1)))
    assert v.estimate == expected


def test_aipwe_equals_ipwe_with_null_q():
    rng = np.random.default_rng(4)
    n = 200
    d = Dataset(rng.normal(size=(n, 3)), np.where(rng.random(n) < 0.4, 1, -1), rng.normal(size=n))
    prop = PropensityModel(FeatureMap.linear(3), rng.normal(size=4), clip=(0.05, 0.95))
    for _ in range(10):
        rule = LinearRule.raw(rng.normal(), rng.normal(size=3))
        assert value_aipwe(d, rule, prop, None).estimate == value_ipwe(d, rule, prop).estimate


def test_normalized_single_match_returns_its_outcome():
    d = Dataset(np.array([[0.1], [0.2]]), [1, -1], [3.0, 9.0])
    v = value_ipwe_normalized(d, _rule_const(1, 1.0), _const_propensity(1, 0.3))
    assert v.estimate == pytest.approx(3.0, rel=1e-12)
    assert v.n_effective == 1


def test_normalized_constant_propensity_gives_mean_outcome():
    rng = np.random.default_rng(5)
    n = 60
    d = Dataset(rng.normal(size=(n, 2)), np.ones(n), rng.normal(size=n))
    v = value_ipwe_normalized(d, _rule_const(2, 1.0), _const_propensity(2, 0.37))
    assert v.estimate == pytest.approx(float(np.mean(d.Y)), rel=1e-12)


def test_normalized_location_equivariance():
    rng = np.random.default_rng(6)
    n = 50
    A = np.where(rng.random(n) < 0.5, 1, -1)
    d = Dataset(rng.normal(size=(n, 2)), A, np.full(n, 2.5))
    prop = PropensityModel(FeatureMap.linear(2), rng.normal(size=3), clip=(0.1, 0.9))
    v = value_ipwe_normalized(d, _rule_const(2, 1.0), prop)
    assert v.estimate == pytest.approx(2.5, rel=1e-12)


def test_normalized_zero_denominator_errors():
    d = Dataset(np.zeros((5, 1)), np.ones(5), np.ones(5))
    with pytest.raises(DataError, match="unsupported"):
        value_ipwe_normalized(d, _rule_const(1, -1.0), _const_propensity(1, 0.5))


def test_normalized_invariant_to_power_of_two_rescaling():
    rng = np.random.default_rng(7)
    n = 80
    d = Dataset(rng.normal(size=(n, 2)), np.where(rng.random(n) < 0.5, 1, -1), rng.normal(size=n))
    rule = LinearRule.raw(0.1, rng.normal(size=2))
    base = rng.uniform(0.1, 0.4, size=n)

    class _Scaled:
        def __init__(self, c):
            self.c = c

        def prob(self, X, a):
            pi = base if a == 1 else 1.0 - base
            return self.c * pi

        def probs(self, X):
            return self.prob(X, 1), self.prob(X, -1)

    v1 = value_ipwe_normalized(d, rule, _Scaled(1.0))
    for c in (0.5, 0.25, 2.0):
        vc = value_ipwe_normalized(d, rule, _Scaled(c))
        assert vc.estimate == v1.estimate  # exact: power-of-two scaling
    v_odd = value_ipwe_normalized(d, rule, _Scaled(1.0 / 3.0))
    assert v_odd.estimate == pytest.approx(v1.estimate, rel=1e-12)


class _Fold:
    def __init__(self, erm_index, rule, propensity, outcome=None):
        self.erm_index = erm_index
        self.rule = rule
        self.propensity = propensity
        self.outcome = outcome


def _const_outcome(p, c):
    return OutcomeModel(FeatureMap.intercept_only(p), np.array([float(c)]))


def test_crossfit_aggregate_mean_of_fold_values():
    rng = np.random.default_rng(8)
    n = 20
    d = Dataset(rng.normal(size=(n, 2)), np.ones(n), rng.normal(size=n))
    prop = _const_propensity(2, 0.5)
    rule = _rule_const(2, -1.0)  # matches nobody, so AIPWE = mean of the Q-model
    folds = [
        _Fold(np.arange(10), rule, prop, _const_outcome(2, 1.0)),
        _Fold(np.arange(10, 20), rule, prop, _const_outcome(2, 3.0)),
    ]
    v = value_crossfit_aggregate(d, folds, loss="logistic")
    assert v.estimate == 2.0
    assert v.estimator_kind == "crossfit_aggregate"

    same = [
        _Fold(np.arange(10), rule, prop, _const_outcome(2, 5.0)),
        _Fold(np.arange(10, 20), rule, prop, _const_outcome(2, 5.0)),
    ]
    assert value_crossfit_aggregate(d, same).estimate == 5.0


def test_crossfit_aggregate_symmetric_duplicated_folds():
    rng = np.random.default_rng(9)
    m = 15
    X = rng.normal(size=(m, 2))
    A = np.where(rng.random(m) < 0.5, 1, -1)
    Y = rng.normal(size=m)
    d = Dataset(np.vstack([X, X]), np.concatenate([A, A]), np.concatenate([Y, Y]))
    prop = _const_propensity(2, 0.5)
    rule = LinearRule.raw(0.2, rng.normal(size=2))
    folds = [
        _Fold(np.arange(m, 2 * m), rule, prop),
        _Fold(np.arange(m), rule, prop),
    ]
    v = value_crossfit_aggregate(d, folds)
    fold_v = value_aipwe(d.subset(np.arange(m)), rule, prop, None).estimate
    assert v.estimate == fold_v


def test_crossfit_aggregate_missing_artifacts():
    d = Dataset(np.zeros((4, 1)), [1, -1, 1, -1], np.zeros(4))
    with pytest.raises(DataError):
        value_crossfit_aggregate(d, [])
    with pytest.raises(DataError):
        value_crossfit_aggregate(d, [object(), object()])


def test_value_estimate_json_record():
    d = Dataset(np.array([[0.3]]), [1], [3.0])
    v = value_ipwe(d, _rule_const(1, 1.0), _const_propensity(1, 0.5))
    assert v.to_json() == {"estimator": "ipwe", "value": 6.0, "n_effective": 1}


def test_n_effective_counts_matches():
    rng = np.random.default_rng(10)
    n = 100
    d = Dataset(rng.normal(size=(n, 2)), np.where(rng.random(n) < 0.5, 1, -1), rng.normal(size=n))
    rule = LinearRule.raw(0.0, np.array([1.0, 0.0]))
    prop = _const_propensity(2, 0.5)
    expected = int(np.sum(d.A == rule.decide_many(d.X)))
    assert value_ipwe(d, rule, prop).n_effective == expected
    assert value_aipwe(d, rule, prop).n_effective == expected


@pytest.mark.parametrize("with_outcome", [True, False])
def test_aipwe_is_mean_weight_of_recommended_arm(with_outcome):
    d = generate_scenario(ScenarioSpec(2, 400), 12)
    prop, out = ModelSpec("CC").nuisance_spec(2).fit(d)
    out = out if with_outcome else None
    rng = np.random.default_rng(13)
    w_pos, w_neg = dr_weights(d, prop, out)
    for _ in range(5):
        rule = LinearRule.raw(rng.normal(), rng.normal(size=d.p))
        dec = rule.decide_many(d.X)
        assert value_aipwe(d, rule, prop, out).estimate == np.mean(np.where(dec == 1, w_pos, w_neg))
