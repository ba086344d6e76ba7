from dataclasses import replace

import numpy as np
import pytest

from earlkit.core import Dataset, DomainError, FeatureMap
from earlkit.nuisance import OutcomeModel, PropensityModel
from earlkit.sim import (
    ScenarioSpec,
    generate_scenario,
    true_outcome_model,
    true_propensity_model,
)
from earlkit.weights import (
    classification_view,
    compute_weights,
    dr_weights,
    weight_pairs,
    WeightPair,
)


def test_hand_evaluation_of_weight_display():
    wp = compute_weights(2.0, 1, pi_hat=(0.5, 0.5), q_hat=(1.0, 0.5))
    # W_1 = 2/0.5 - (0.5/0.5) * 1 = 3; unobserved arm reduces to Q
    assert wp.w_pos == pytest.approx(3.0, abs=1e-12)
    assert wp.w_neg == 0.5


def test_null_q_model_reduces_to_ipw():
    wp = compute_weights(2.0, 1, pi_hat=(0.5, 0.5), q_hat=(0.0, 0.0))
    assert wp.w_pos == 4.0
    assert wp.w_neg == 0.0


def test_zero_residual_collapses_to_q():
    q = (1.7, -0.3)
    wp = compute_weights(1.7, 1, pi_hat=(0.4, 0.6), q_hat=q)
    assert wp.w_pos == pytest.approx(1.7, rel=1e-12)
    assert wp.w_neg == pytest.approx(-0.3, rel=1e-12)


def test_propensity_domain_check():
    with pytest.raises(DomainError):
        compute_weights(1.0, 1, pi_hat=(0.0, 0.5))
    with pytest.raises(DomainError):
        compute_weights(1.0, 1, pi_hat=(0.5, 1.0))
    with pytest.raises(DomainError):
        compute_weights(1.0, 2, pi_hat=(0.5, 0.5))


def test_classification_view_cases():
    pos, neg = classification_view(WeightPair(3.0, 0.5), subject=7)
    assert (pos.label, pos.weight) == (1, 3.0)
    assert (neg.label, neg.weight) == (-1, 0.5)
    assert pos.subject == neg.subject == 7

    pos, neg = classification_view(WeightPair(3.0, -0.5))
    assert (pos.label, pos.weight) == (1, 3.0)
    assert (neg.label, neg.weight) == (1, 0.5)  # negative weight flips the label

    pos, neg = classification_view(WeightPair(0.0, 0.0))
    assert (pos.label, pos.weight) == (1, 0.0)
    assert (neg.label, neg.weight) == (-1, 0.0)


def _random_fitted_models(rng, p=3):
    prop = PropensityModel(
        feature_map=FeatureMap.linear(p),
        gamma=rng.normal(size=p + 1),
        clip=(0.05, 0.95),
    )
    fm = FeatureMap.linear(p).with_treatment()
    out = OutcomeModel(feature_map=fm, theta=rng.normal(size=fm.q))
    return prop, out


def test_unobserved_arm_identity_is_exact():
    rng = np.random.default_rng(21)
    d = Dataset(rng.normal(size=(200, 3)), np.where(rng.random(200) < 0.3, 1, -1), rng.normal(size=200))
    prop, out = _random_fitted_models(rng)
    w_pos, w_neg = dr_weights(d, prop, out)
    q_pos = out.predict_arm(d.X, 1)
    q_neg = out.predict_arm(d.X, -1)
    treated = d.A == 1
    # the arm the subject did not receive equals the Q prediction exactly
    assert np.array_equal(w_neg[treated], q_neg[treated])
    assert np.array_equal(w_pos[~treated], q_pos[~treated])


def test_scalar_and_vector_paths_agree():
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(size=(40, 3)), np.where(rng.random(40) < 0.5, 1, -1), rng.normal(size=40))
    prop, out = _random_fitted_models(rng)
    pairs = weight_pairs(d, prop, out)
    for i in range(d.n):
        wp = compute_weights(
            d.Y[i],
            int(d.A[i]),
            pi_hat=(prop.prob(d.X[i], 1)[0], prop.prob(d.X[i], -1)[0]),
            q_hat=(out.predict_arm(d.X[i], 1)[0], out.predict_arm(d.X[i], -1)[0]),
        )
        assert wp.w_pos == pytest.approx(pairs[i].w_pos, rel=1e-12, abs=1e-12)
        assert wp.w_neg == pytest.approx(pairs[i].w_neg, rel=1e-12, abs=1e-12)


def test_null_q_gives_one_nonzero_weight_per_subject():
    rng = np.random.default_rng(9)
    n = 100
    d = Dataset(rng.normal(size=(n, 2)), np.where(rng.random(n) < 0.5, 1, -1), rng.normal(size=n) + 5.0)
    prop = PropensityModel(FeatureMap.linear(2), rng.normal(size=3), clip=(0.05, 0.95))
    w_pos, w_neg = dr_weights(d, prop, None)
    on_arm = np.where(d.A == 1, w_pos, w_neg)
    off_arm = np.where(d.A == 1, w_neg, w_pos)
    assert np.all(off_arm == 0.0)
    pi_obs = np.where(d.A == 1, prop.prob(d.X, 1), prop.prob(d.X, -1))
    assert np.allclose(on_arm, d.Y / pi_obs, rtol=1e-12)
    assert np.all(on_arm != 0.0)


def test_population_mean_weight_matches_q_expectation():
    # with the true propensity and true Q plugged in, E[W_1] = E[Q(X, 1)] = 9.9
    n = 10**6
    d = generate_scenario(ScenarioSpec(2, n), 2024)
    prop = replace(true_propensity_model(2), clip=(1e-6, 1 - 1e-6))
    out = true_outcome_model()
    w_pos, w_neg = dr_weights(d, prop, out)
    se_pos = w_pos.std() / np.sqrt(n)
    se_neg = w_neg.std() / np.sqrt(n)
    assert abs(w_pos.mean() - 9.9) < 3 * se_pos
    assert abs(w_neg.mean() - 10.1) < 3 * se_neg
