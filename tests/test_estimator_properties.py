"""Property tests of the value estimator and the cross-fit estimator."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from earlkit.core import Dataset, FeatureMap, LinearRule
from earlkit.earl import EarlConfig, earl_fit_crossfit
from earlkit.losses import LOSS_NAMES
from earlkit.nuisance import NuisanceSpec, predict_q
from earlkit.value import value_aipwe
from earlkit.weights import compute_weights


def _data(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    A = np.where(rng.random(n) < 0.5, 1, -1)
    Y = X[:, 0] * A + X.sum(axis=1) + rng.normal(size=n)
    return Dataset(X, A, Y), rng


def _spec(p):
    # the ridge keeps a small sample's propensity fit off separation
    return NuisanceSpec(FeatureMap.linear(p), FeatureMap.from_name("linear*a", p), ridge=1e-2)


_cases = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 90), p=st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(**_cases)
def test_aipwe_is_the_mean_weight_of_the_recommended_arm(seed, n, p):
    d, rng = _data(seed, n, p)
    prop, out = _spec(p).fit(d)
    rule = LinearRule.raw(float(rng.normal()), rng.normal(size=p))
    # subject by subject, from the scalar weight formula
    w = []
    for x, a, y in zip(d.X, d.A, d.Y):
        wp = compute_weights(
            y,
            int(a),
            (float(prop.prob(x[None, :], 1)[0]), float(prop.prob(x[None, :], -1)[0])),
            (predict_q(out, x, 1), predict_q(out, x, -1)),
        )
        w.append(wp.w_pos if rule.decide(x) == 1 else wp.w_neg)
    est = value_aipwe(d, rule, prop, out)
    assert abs(est.estimate - sum(w) / n) <= 1e-12 * (1.0 + max(abs(v) for v in w))
    assert est.n_effective == int(np.sum(d.A == rule.decide_many(d.X)))


@settings(max_examples=40, deadline=None)
@given(**_cases, shift=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
def test_value_differences_ignore_a_treatment_free_shift(seed, n, p, shift):
    # g(x) = c0 + c'x lies in the span of the outcome map, so the fitted Q
    # moves by g for both arms and so do W_1 and W_-1
    d, rng = _data(seed, n, p)
    g = shift[0] + d.X @ np.asarray(shift[1 : p + 1])
    shifted = Dataset(d.X, d.A, d.Y + g)
    rules = [LinearRule.raw(float(rng.normal()), rng.normal(size=p)) for _ in range(2)]
    spec = _spec(p)
    gaps = []
    for data in (d, shifted):
        prop, out = spec.fit(data)
        v1, v2 = (value_aipwe(data, r, prop, out).estimate for r in rules)
        gaps.append(v1 - v2)
    scale = 1.0 + float(np.max(np.abs(d.Y))) + float(np.max(np.abs(g)))
    assert abs(gaps[0] - gaps[1]) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(
    **_cases,
    k=st.integers(2, 4),
    loss=st.sampled_from(LOSS_NAMES),
    order=st.randoms(use_true_random=False),
)
def test_crossfit_rule_does_not_depend_on_fold_order(seed, n, p, k, loss, order):
    d, rng = _data(seed, n, p)
    folds = [np.sort(f) for f in np.array_split(rng.permutation(n), k)]
    # a single-arm fold is merged with its neighbour, which does depend on
    # the order
    assume(all(len(np.unique(d.A[f])) == 2 for f in folds))
    permuted = list(folds)
    order.shuffle(permuted)
    spec, cfg = _spec(p), EarlConfig(loss=loss, lam=0.1)
    a = earl_fit_crossfit(d, spec, cfg, folds=folds).rule
    b = earl_fit_crossfit(d, spec, cfg, folds=permuted).rule
    coef_a, coef_b = np.r_[a.beta0, a.beta], np.r_[b.beta0, b.beta]
    assert np.all(np.abs(coef_a - coef_b) <= 1e-12 * (1.0 + np.abs(coef_a)))
