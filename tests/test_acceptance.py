"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo experiments are shared across criteria through
module-scoped fixtures. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they complete.
"""

import time
import warnings

import numpy as np
import pytest

import earlkit as ek
from earlkit.core import Dataset, FeatureMap, LinearRule, stream
from earlkit.earl import EarlConfig, _build_problem, earl_fit, earl_fit_crossfit, earl_objective
from earlkit.inference import permutation_test
from earlkit.losses import LOSS_NAMES, phi_eval, psi_eval, psi_inverse
from earlkit.nuisance import NuisanceSpec, PropensityModel
from earlkit.sim import (
    ModelSpec,
    ScenarioSpec,
    contrast,
    generate_scenario,
    optimal_rule,
    outcome_mean,
    run_experiment,
    true_outcome_model,
    true_propensity_model,
)
from earlkit.value import value_aipwe, value_ipwe
from earlkit.weights import classification_view, compute_weights, dr_weights

SEED = 11
N_GRID = (200, 500, 1000, 2500)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def v_star():
    return ek.true_value_mc(optimal_rule(), 2, 10**6, 777)


@pytest.fixture(scope="module")
def exp_cc():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(
            scenarios=[2], specs=["CC"], methods=["earl-logistic"],
            n_grid=list(N_GRID), replicates=100, seed=SEED, select="cv",
        )


@pytest.fixture(scope="module")
def exp_ii():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(
            scenarios=[2], specs=["II"], methods=["earl-logistic"],
            n_grid=[2500], replicates=100, seed=SEED, select="cv",
        )


@pytest.fixture(scope="module")
def exp_ql():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(
            scenarios=[2], specs=["CC", "II"], methods=["qlearning"],
            n_grid=[2500], replicates=100, seed=SEED, select="fixed",
        )


@pytest.fixture(scope="module")
def exp_ga():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(
            scenarios=[2, 3], specs=["II"], methods=["aipwe"],
            n_grid=[2500], replicates=40, seed=SEED, select="fixed",
        )


def test_criterion_01_gradient_correctness():
    """Analytic gradient of the penalized weighted surrogate objective
    matches central finite differences for the smooth losses."""
    rng = np.random.default_rng(101)
    losses = ("logistic", "exp", "sqhinge")
    t0 = time.time()
    worst = 0.0
    checked = 0
    while checked < 1000:
        loss = losses[checked % 3]
        n, p = int(rng.integers(4, 25)), int(rng.integers(1, 4))
        d = Dataset(rng.normal(size=(n, p)), np.where(rng.random(n) < 0.5, 1, -1), rng.normal(size=n))
        w = (rng.normal(size=n) * 3, rng.normal(size=n) * 3)
        lam = float(rng.uniform(0.0, 2.0))
        prob, _ = _build_problem(d, w, EarlConfig(loss=loss, lam=lam))
        b = rng.normal(size=p + 1)
        if loss == "sqhinge" and np.any(np.abs(np.abs(prob.Z @ b) - 1.0) < 1e-3):
            continue  # finite differences are invalid at the generalized kink
        g = prob.gradient(b)
        h = 1e-6
        for j in range(p + 1):
            e = np.zeros(p + 1)
            e[j] = h
            fd = (prob.objective(b + e) - prob.objective(b - e)) / (2 * h)
            worst = max(worst, abs(g[j] - fd) / max(1.0, abs(g[j])))
        checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert _report(1, ok, f"gradient rel err {worst:.2e} over 1000 points in {elapsed:.1f}s")


def test_criterion_02_weighted_classification_oracle_equivalence():
    """The AIPWE of the per-subject-optimal rule equals the AIPWE implied
    by the minimal weighted 0-1 objective, to 1e-12."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        pairs = []
        for i in range(n):
            pi_pos = float(rng.uniform(0.15, 0.85))
            pairs.append(
                compute_weights(
                    float(rng.normal(scale=2.0)),
                    1 if rng.random() < 0.5 else -1,
                    pi_hat=(pi_pos, 1.0 - pi_pos),
                    q_hat=(float(rng.normal()), float(rng.normal())),
                )
            )
        w1 = np.array([wp.w_pos for wp in pairs])
        wm1 = np.array([wp.w_neg for wp in pairs])
        # brute force: each subject picks the arm with the larger weight
        best_aipwe = float(np.mean(np.where(w1 >= wm1, w1, wm1)))
        # weighted 0-1 route via the classification view
        per_subject = []
        for i, wp in enumerate(pairs):
            pos, neg = classification_view(wp, subject=i)
            cost = {}
            for s in (1, -1):
                cost[s] = (pos.weight if pos.label * s < 0 else 0.0) + (
                    neg.weight if neg.label * s < 0 else 0.0
                )
            pos_part = max(w1[i], 0.0) + max(wm1[i], 0.0)
            per_subject.append(pos_part - min(cost[1], cost[-1]))
        implied_aipwe = float(np.mean(per_subject))
        worst = max(worst, abs(best_aipwe - implied_aipwe))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    assert _report(2, ok, f"max |brute force - implied| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_algebraic_identities():
    rng = np.random.default_rng(303)
    n = 300
    d = Dataset(rng.normal(size=(n, 4)), np.where(rng.random(n) < 0.4, 1, -1), np.abs(rng.normal(size=n)))
    prop = PropensityModel(FeatureMap.linear(4), rng.normal(size=5), clip=(0.05, 0.95))
    out_fm = FeatureMap.quadratic(4).with_treatment()
    out = ek.OutcomeModel(out_fm, rng.normal(size=out_fm.q))

    # identity 1: the unobserved arm's weight equals its Q prediction
    w_pos, w_neg = dr_weights(d, prop, out)
    q_pos, q_neg = out.predict_arm(d.X, 1), out.predict_arm(d.X, -1)
    off_dev = max(
        float(np.max(np.abs(w_neg[d.A == 1] - q_neg[d.A == 1]))),
        float(np.max(np.abs(w_pos[d.A == -1] - q_pos[d.A == -1]))),
    )

    # identity 2: AIPWE equals IPWE under a null Q-model
    aipwe_dev = 0.0
    for _ in range(20):
        rule = LinearRule.raw(rng.normal(), rng.normal(size=4))
        aipwe_dev = max(
            aipwe_dev,
            abs(value_aipwe(d, rule, prop, None).estimate - value_ipwe(d, rule, prop).estimate),
        )

    # identity 3: null-Q hinge objective equals the outcome-weighted form
    w_null = dr_weights(d, prop, None)
    pi_obs = np.where(d.A == 1, prop.prob(d.X, 1), prop.prob(d.X, -1))
    owl_dev = 0.0
    for _ in range(20):
        rule = LinearRule.raw(rng.normal(), rng.normal(size=4))
        lam = float(rng.uniform(0, 1))
        lhs = earl_objective(rule, w_null, d, "hinge", lam)
        f = rule.scores(d.X)
        rhs = float(np.mean(d.Y / pi_obs * phi_eval("hinge", d.A * f))) + lam * float(
            rule.beta @ rule.beta
        )
        owl_dev = max(owl_dev, abs(lhs - rhs))

    ok = off_dev <= 1e-12 and aipwe_dev <= 1e-12 and owl_dev <= 1e-12
    assert _report(
        3, ok, f"unobserved-arm dev {off_dev:.1e}, AIPWE=IPWE dev {aipwe_dev:.1e}, OWL dev {owl_dev:.1e}"
    )


def test_criterion_04_double_robustness():
    """AIPWE with one correct nuisance stays within 3 Monte Carlo standard
    errors of the oracle value of a fixed rule."""
    t0 = time.time()
    rule = LinearRule.raw(0.0, [1.0] + [0.0] * 9)  # d(x) = sgn(x1)
    draws = stream(555).standard_normal((10**6, 10))
    oracle_vals = outcome_mean(draws, rule.decide_many(draws))
    oracle = float(np.mean(oracle_vals))
    oracle_se = float(np.std(oracle_vals) / np.sqrt(len(oracle_vals)))
    devs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for code in ("CI", "IC"):  # (correct pi, wrong Q) and (wrong pi, correct Q)
            vals = []
            for rep in range(50):
                d = generate_scenario(ScenarioSpec(2, 20000), stream(404, code, rep))
                prop, out = ModelSpec(code).nuisance_spec(2).fit(d)
                vals.append(value_aipwe(d, rule, prop, out).estimate)
            vals = np.array(vals)
            se = float(np.hypot(vals.std(ddof=1) / np.sqrt(len(vals)), oracle_se))
            devs[code] = (abs(float(vals.mean()) - oracle), se)
    elapsed = time.time() - t0
    ok = all(dev < 3 * se for dev, se in devs.values()) and elapsed < 300.0
    detail = ", ".join(f"{c}: dev {d:.4f} vs 3se {3 * s:.4f}" for c, (d, s) in devs.items())
    assert _report(4, ok, f"{detail} in {elapsed:.0f}s")


def _median_gap(results, n, v_star):
    vals = [r.value for r in results if r.n == n]
    return float(v_star - np.median(vals))


def test_criterion_05_earl_consistency(exp_cc, v_star):
    gap = _median_gap(exp_cc, 2500, v_star)
    ok = gap < 0.15
    assert _report(5, ok, f"median value gap at n=2500 is {gap:.4f} (< 0.15)")


def test_criterion_06_convergence_trend(exp_cc, v_star):
    gaps = [_median_gap(exp_cc, n, v_star) for n in N_GRID]
    inversions = [b - a for a, b in zip(gaps, gaps[1:]) if b > a]
    ok = len(inversions) <= 1 and all(v <= 0.02 for v in inversions)
    detail = {n: round(g, 4) for n, g in zip(N_GRID, gaps)}
    assert _report(6, ok, f"median gaps over n {detail}")


def test_criterion_07_misspecification_ordering(exp_cc, exp_ii, exp_ql, exp_ga):
    cc = float(np.median([r.value for r in exp_cc if r.n == 2500]))
    ii = float(np.median([r.value for r in exp_ii]))
    ql_c = float(np.median([r.value for r in exp_ql if r.spec == "CC"]))
    ql_i = float(np.median([r.value for r in exp_ql if r.spec == "II"]))
    ga2 = float(np.median([r.value for r in exp_ga if r.scenario == 2]))
    ga3 = float(np.median([r.value for r in exp_ga if r.scenario == 3]))
    ok = (cc >= ii - 0.02) and (ql_c >= ql_i) and (ga2 - ga3 > 0.1)
    assert _report(
        7,
        ok,
        f"EARL CC {cc:.3f} vs II {ii:.3f}; QL .C {ql_c:.3f} vs .I {ql_i:.3f}; "
        f"search scen2 {ga2:.3f} vs scen3 {ga3:.3f}",
    )


def test_sim_example_median_value_near_optimum(exp_cc, v_star):
    """Desk-scale stand-in for the benchmark boxplots: the cross-validated
    logistic fit at n=2500 under the correct specification lands within
    0.1 of the optimal value in the median."""
    median = float(np.median([r.value for r in exp_cc if r.n == 2500]))
    assert abs(median - v_star) < 0.1


def test_criterion_08_fisher_consistency_desk_check():
    """With the true nuisance models supplied, every surrogate should
    recover the optimal rule's sign on at least 95% of fresh draws.

    Known shortfall: under the benchmark generative model the weighted
    surrogate projection onto the quadratic class sits near 93-94%
    agreement regardless of sample size, lambda, or extra product
    features; see the table in ROADMAP.md open item 4 for the measurements.
    """
    d = generate_scenario(ScenarioSpec(2, 5000), stream(777, "fisher"))
    w = dr_weights(d, true_propensity_model(2), true_outcome_model())
    grid = stream(777, "fisher-grid").standard_normal((10000, 10))
    truth = np.where(contrast(grid) >= 0, 1, -1)
    fm = FeatureMap.quadratic(10, intercept=False)
    agreements = {}
    for loss in LOSS_NAMES:
        fit = earl_fit(d, w, EarlConfig(loss=loss, lam=1e-3, feature_map=fm, seed=0))
        agreements[loss] = float(np.mean(fit.rule.decide_many(grid) == truth))
    ok = all(a >= 0.95 for a in agreements.values())
    detail = ", ".join(f"{k} {v:.3f}" for k, v in agreements.items())
    assert _report(8, ok, f"sign agreement {detail} (threshold 0.95 each)")


def test_criterion_09_psi_transform_suite():
    ok = True
    for name in LOSS_NAMES:
        ok &= psi_eval(name, 0.0) == 0.0
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        vals = psi_eval(name, grid)
        ok &= bool(np.all(np.diff(vals) >= -1e-14))
        for theta in np.arange(0.0, 1.0 + 1e-9, 0.1):
            r = psi_eval(name, float(theta))
            ok &= abs(psi_inverse(name, r) - theta) < 1e-8
    ok &= psi_eval("hinge", 0.5) == 0.5
    ok &= psi_eval("sqhinge", 0.5) == 0.25
    assert _report(9, ok, "psi(0)=0, monotone at 1e-3 grid, round trip < 1e-8, point values")


def _null_calibration_data(rep):
    base = generate_scenario(ScenarioSpec(2, 120), stream(42, "permnull", rep))
    noise = stream(43, "noisecol", rep).standard_normal(base.n)
    return Dataset(np.column_stack([base.X, noise]), base.A, base.Y)


def _null_pipeline(d):
    spec = NuisanceSpec(
        FeatureMap(d.p, (("1",), ("x", 0))),
        FeatureMap.quadratic(d.p).with_treatment(coords=(0, 1)),
    )
    prop, out = spec.fit(d)
    return earl_fit(d, dr_weights(d, prop, out), EarlConfig(loss="logistic", lam=1.0)).rule


def test_criterion_10_permutation_null_calibration():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ps = []
        for rep in range(50):
            entry = permutation_test(_null_calibration_data(rep), _null_pipeline, 10, b=200, seed=rep)
            ps.append(entry.p_value)
        mean_p = float(np.mean(ps))
        # determinism: the same seed reproduces the entry byte for byte
        e1 = permutation_test(_null_calibration_data(3), _null_pipeline, 10, b=50, seed=7)
        e2 = permutation_test(_null_calibration_data(3), _null_pipeline, 10, b=50, seed=7)
    deterministic = e1 == e2 and repr(e1) == repr(e2)
    ok = 0.35 <= mean_p <= 0.65 and deterministic
    assert _report(10, ok, f"mean null p = {mean_p:.3f} over 50 reps; deterministic = {deterministic}")


def test_criterion_11_crossfit_construction():
    spec = ModelSpec("CC").nuisance_spec(2)
    d = generate_scenario(ScenarioSpec(2, 400), 3030)
    fit = earl_fit_crossfit(d, spec, EarlConfig(loss="logistic", lam=0.1, k_folds=4, seed=5))
    betas = np.stack([r.beta for r in fit.per_fold_rules])
    b0s = [r.beta0 for r in fit.per_fold_rules]
    exact = np.array_equal(fit.rule.beta, np.mean(betas, axis=0)) and fit.rule.beta0 == float(
        np.mean(b0s)
    )

    rng = np.random.default_rng(31)
    m = 50
    X = rng.normal(size=(m, 10))
    A = np.where(rng.random(m) < 0.5, 1, -1)
    Y = rng.normal(size=m) + A * contrast(X)
    dup = Dataset(np.vstack([X, X]), np.concatenate([A, A]), np.concatenate([Y, Y]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sym = earl_fit_crossfit(
            dup, spec, EarlConfig(loss="logistic", lam=0.5, k_folds=2),
            folds=[np.arange(m), np.arange(m, 2 * m)],
        )
    r1, r2 = sym.per_fold_rules
    symmetric = r1.beta0 == r2.beta0 and np.array_equal(r1.beta, r2.beta)
    ok = exact and symmetric
    assert _report(11, ok, f"aggregate equals fold mean: {exact}; duplicated folds equal: {symmetric}")
