import math

import numpy as np
import pytest

import earlkit.sim as sim_mod
from earlkit.core import ConfigError, LinearRule
from earlkit.earl import EarlConfig
from earlkit.nuisance import predict_propensity
from earlkit.sim import (
    ExperimentResult,
    ModelSpec,
    ScenarioSpec,
    contrast,
    generate_scenario,
    optimal_rule,
    outcome_mean,
    propensity_true,
    run_experiment,
    true_outcome_model,
    true_propensity_model,
    true_value_mc,
    write_results_csv,
)


def test_default_dimension_is_ten():
    d = generate_scenario(ScenarioSpec(2, 25), 0)
    assert d.p == 10


def test_same_seed_same_dataset():
    a = generate_scenario(ScenarioSpec(1, 200), 99)
    b = generate_scenario(ScenarioSpec(1, 200), 99)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.Y, b.Y)


def test_scenario1_link_at_origin_is_half():
    X = np.zeros((1, 10))
    assert propensity_true(1, X)[0] == 0.5


def test_scenario3_treated_fraction():
    n = 100000
    d = generate_scenario(ScenarioSpec(3, n), 12)
    frac = float(np.mean(d.A == 1))
    se = np.sqrt(0.025 * 0.975 / n)
    assert abs(frac - 0.025) < 3 * se


def test_outcome_equation():
    d = generate_scenario(ScenarioSpec(2, 5000), 3)
    resid = d.Y - outcome_mean(d.X, d.A)
    assert abs(float(np.mean(resid))) < 0.05
    assert abs(float(np.std(resid)) - 1.0) < 0.05


def test_outcome_mean_and_true_value_share_one_formula():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((500, 10))
    A = np.where(rng.random(500) < 0.5, 1, -1)
    assert np.array_equal(outcome_mean(X, A), np.sum(X**2, axis=1) + np.sum(X, axis=1) + A * contrast(X))
    for seed in (1, 2, 3):
        rule = LinearRule.raw(rng.normal(), rng.normal(size=10))
        draws = np.random.default_rng(seed).standard_normal((2000, 10))
        expected = float(np.mean(outcome_mean(draws, rule.decide_many(draws))))
        assert true_value_mc(rule, 2, 2000, seed) == expected


def test_true_value_constant_rules():
    v_plus = true_value_mc(lambda X: np.ones(len(X)), 2, 10**6, 101)
    v_minus = true_value_mc(lambda X: -np.ones(len(X)), 2, 10**6, 101)
    # E[sum X_j^2] = 10, E[sum X_j] = 0, E[c(X)] = -0.1
    assert abs(v_plus - 9.9) < 0.02
    assert abs(v_minus - 10.1) < 0.02


def test_optimal_value_bracket():
    v_star = true_value_mc(optimal_rule(), 2, 10**6, 102)
    assert 1.0 < v_star - 10.0 < 1.3


def test_true_models_match_generator():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 10))
    prop = true_propensity_model(2)
    assert np.allclose(prop.raw_prob(X, 1), propensity_true(2, X))
    x = np.zeros(10)
    x[0] = 1.0
    assert predict_propensity(prop, x, 1) == 0.5
    out = true_outcome_model()
    for a in (1, -1):
        A = np.full(200, a)
        assert np.allclose(out.predict_arm(X, a), outcome_mean(X, A))
    prop3 = true_propensity_model(3)
    assert np.allclose(prop3.prob(X, 1), 0.025)


def test_scenario3_intercept_is_bit_equal_to_scipy_logit():
    from scipy.special import logit

    assert true_propensity_model(3).gamma.tolist() == [float(logit(0.025))]


def test_model_spec_grid():
    cc = ModelSpec("CC").nuisance_spec(2)
    assert cc.propensity_map.terms == (("1",), ("x", 0))
    assert ("x2", 3) in cc.outcome_map.terms
    assert ("ax", 0) in cc.outcome_map.terms and ("ax", 2) not in cc.outcome_map.terms

    ci = ModelSpec("CI").nuisance_spec(2)
    assert ci.propensity_map.terms == (("1",), ("x", 0))
    assert all(t[0] != "x2" for t in ci.outcome_map.terms)
    assert ("ax", 9) in ci.outcome_map.terms

    ic1 = ModelSpec("IC").nuisance_spec(1)
    assert ic1.propensity_map.terms == tuple([("1",)] + [("x", j) for j in range(10)])
    ic2 = ModelSpec("IC").nuisance_spec(2)
    assert ic2.propensity_map.terms == (("1",),)

    cc1 = ModelSpec("CC").nuisance_spec(1)
    assert ("xx", 0, 1) in cc1.propensity_map.terms

    with pytest.raises(ConfigError):
        ModelSpec("XX")


def test_run_experiment_cardinality_and_determinism():
    kwargs = dict(
        scenarios=[2],
        specs=["CC"],
        methods=["qlearning"],
        n_grid=[150],
        replicates=2,
        seed=77,
        validation_draws=2000,
        select="fixed",
    )
    res1 = run_experiment(**kwargs)
    res2 = run_experiment(**kwargs)
    assert len(res1) == 2
    assert [r.value for r in res1] == [r.value for r in res2]
    assert all(r.error is None for r in res1)
    assert {r.replicate for r in res1} == {0, 1}


def test_run_experiment_threads_do_not_change_results():
    kwargs = dict(
        scenarios=[2],
        specs=["CC", "II"],
        methods=["qlearning"],
        n_grid=[100, 150],
        replicates=2,
        seed=5,
        validation_draws=1000,
        select="fixed",
    )
    serial = run_experiment(**kwargs, threads=1)
    parallel = run_experiment(**kwargs, threads=4)
    assert [(r.method, r.scenario, r.spec, r.n, r.replicate, r.value) for r in serial] == [
        (r.method, r.scenario, r.spec, r.n, r.replicate, r.value) for r in parallel
    ]


def test_run_experiment_earl_smoke():
    res = run_experiment(
        scenarios=[2],
        specs=["CC"],
        methods=["earl-logistic"],
        n_grid=[200],
        replicates=2,
        seed=3,
        validation_draws=2000,
        select="fixed",
        earl_config=EarlConfig(loss="logistic", lam=2.0**-5),
    )
    assert len(res) == 2
    for r in res:
        assert r.error is None
        assert 9.0 < r.value < 11.5


def test_run_experiment_owl_keeps_its_lambda_under_cv(monkeypatch):
    lams = []
    real_owl_fit = sim_mod.owl_fit

    def recorded(data, prop, cfg):
        lams.append((cfg.loss, cfg.lam))
        return real_owl_fit(data, prop, cfg)

    monkeypatch.setattr(sim_mod, "owl_fit", recorded)
    kwargs = dict(
        scenarios=[2], specs=["CC", "II"], methods=["owl", "aipwe"], n_grid=[120],
        replicates=1, seed=4, validation_draws=500, select="cv",
        earl_config=EarlConfig(lam=0.25),
    )
    res = run_experiment(**kwargs)
    assert sorted((r.method, r.spec) for r in res) == [("aipwe", "CC"), ("aipwe", "II"), ("owl", "CC"), ("owl", "II")]
    assert all(r.error is None and np.isfinite(r.value) for r in res)
    assert lams == [("hinge", 0.25)] * 2
    again = run_experiment(**kwargs)
    assert [(r.method, r.spec, r.value) for r in again] == [(r.method, r.spec, r.value) for r in res]


def test_run_experiment_records_a_failed_fit():
    # select="cv" needs n >= cv_folds rows
    res = run_experiment(
        scenarios=[2], specs=["CC"], methods=["earl-logistic", "qlearning"], n_grid=[8],
        replicates=1, seed=2, validation_draws=100, select="cv",
        earl_config=EarlConfig(cv_folds=10),
    )
    failed, ok = res
    assert failed.method == "earl-logistic" and math.isnan(failed.value)
    assert failed.error == "need n >= cv_folds, got n=8, cv_folds=10"
    assert ok.method == "qlearning" and ok.error is None and np.isfinite(ok.value)


def test_run_experiment_rejects_unknown_method():
    with pytest.raises(ConfigError, match="unknown method"):
        run_experiment([2], ["CC"], ["mystery"], [100], 1)


def test_run_experiment_rejects_unknown_select():
    with pytest.raises(ConfigError, match="select"):
        run_experiment([2], ["CC"], ["qlearning"], [100], 1, select="CV")


@pytest.mark.parametrize("kwargs", [
    {"validation_draws": 0},
    {"validation_draws": -5},
    {"threads": 0},
    {"threads": -3},
])
def test_run_experiment_rejects_fewer_than_one_draw_or_thread(kwargs):
    with pytest.raises(ConfigError, match="at least 1"):
        run_experiment([2], ["CC"], ["qlearning"], [100], 1, select="fixed", **kwargs)


def test_numpy_integer_counts_are_accepted():
    kwargs = dict(specs=["CC"], methods=["qlearning"], seed=1, select="fixed")
    ints = run_experiment(scenarios=[2], n_grid=[100], replicates=1, validation_draws=200, **kwargs)
    nps = run_experiment(
        scenarios=[np.int64(2)], n_grid=[np.int32(100)], replicates=np.int64(1),
        validation_draws=np.int64(200), threads=np.int8(1), **kwargs,
    )
    assert [(r.scenario, r.n, r.value) for r in nps] == [(r.scenario, r.n, r.value) for r in ints]
    assert ScenarioSpec(2, np.int64(10), p=np.int16(3)).n == 10
    assert true_value_mc(optimal_rule(), 2, np.int64(50), 0) == true_value_mc(optimal_rule(), 2, 50, 0)


def test_results_csv_schema(tmp_path):
    res = run_experiment(
        scenarios=[2], specs=["CC"], methods=["qlearning"], n_grid=[100],
        replicates=1, seed=1, validation_draws=500, select="fixed",
    )
    import io

    buf = io.StringIO()
    write_results_csv(res, buf, timings=False)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "method,scenario,spec,n,replicate,value,seconds,error"
    fields = lines[1].split(",")
    assert fields[0] == "qlearning" and fields[1] == "2" and fields[2] == "CC"
    assert fields[6] == "0.000000" and fields[7] == ""


def test_results_csv_keeps_the_error():
    import csv
    import io

    err = 'fold 3, "arm" -1:\nsingle arm'
    res = [
        ExperimentResult("owl", 3, "II", 500, 0, float("nan"), 0.5, err),
        ExperimentResult("owl", 3, "II", 500, 1, 10.25, 0.5),
    ]
    bufs = [io.StringIO(), io.StringIO()]
    for buf in bufs:
        write_results_csv(res, buf, timings=False)
    assert bufs[0].getvalue() == bufs[1].getvalue()
    rows = list(csv.reader(io.StringIO(bufs[0].getvalue(), newline="")))
    assert rows[1] == ["owl", "3", "II", "500", "0", "nan", "0.000000", err]
    assert rows[2] == ["owl", "3", "II", "500", "1", "10.25", "0.000000", ""]


def test_contrast_definition():
    X = np.array([[1.0, 2.0, 9.0], [0.0, 0.0, 5.0]])
    assert np.allclose(contrast(X), [2.9, -0.1])


def test_scenario_spec_validation():
    with pytest.raises(ConfigError):
        ScenarioSpec(4, 100)
    with pytest.raises(ConfigError):
        ScenarioSpec(1, 0)
    with pytest.raises(ConfigError, match="need p >= 2 for the contrast"):
        ScenarioSpec(2, 10, p=1)


@pytest.mark.parametrize(
    "call,fragment",
    [
        (lambda: true_value_mc(optimal_rule(), 4, 10, 0), "scenario must be 1, 2, or 3, got 4"),
        (lambda: true_value_mc(optimal_rule(), 2, 0, 0), "draws must be positive, got 0"),
        (
            lambda: run_experiment(scenarios=[], specs=["CC"], methods=["qlearning"], n_grid=[100], replicates=1),
            "must be nonempty",
        ),
        # a repeated entry would return every one of its records twice
        (
            lambda: run_experiment(scenarios=[2, 2], specs=["CC"], methods=["qlearning"], n_grid=[100], replicates=1),
            "scenarios lists 2 more than once",
        ),
        (
            lambda: run_experiment(scenarios=[2], specs=["CC", "II", "CC"], methods=["qlearning"], n_grid=[100], replicates=1),
            "specs lists 'CC' more than once",
        ),
        (
            lambda: run_experiment(scenarios=[2], specs=["CC"], methods=["owl", "owl"], n_grid=[100], replicates=1),
            "methods lists 'owl' more than once",
        ),
        (
            lambda: run_experiment(scenarios=[2], specs=["CC"], methods=["qlearning"], n_grid=[100, 200, 100], replicates=1),
            "n_grid lists 100 more than once",
        ),
        # a count that int() would truncate, or range() refuse later
        (lambda: true_value_mc(optimal_rule(), 2, 10.5, 0), "draws must be an integer, got 10.5"),
        (lambda: ScenarioSpec(2, 10.5), "n must be an integer, got 10.5"),
        (lambda: ScenarioSpec(2, 10, p=3.5), "p must be an integer, got 3.5"),
        (
            lambda: run_experiment(scenarios=[2], specs=["CC"], methods=["qlearning"], n_grid=[100], replicates=1.5),
            "replicates must be an integer, got 1.5",
        ),
        (
            lambda: run_experiment(scenarios=[2], specs=["CC"], methods=["qlearning"], n_grid=[100.7], replicates=1),
            "each n_grid entry must be an integer, got 100.7",
        ),
        (
            lambda: run_experiment(scenarios=[2.5], specs=["CC"], methods=["qlearning"], n_grid=[100], replicates=1),
            "each scenarios entry must be an integer, got 2.5",
        ),
        (
            lambda: run_experiment(
                scenarios=[2], specs=["CC"], methods=["qlearning"], n_grid=[100], replicates=1, validation_draws=100.5
            ),
            "validation_draws must be an integer, got 100.5",
        ),
        (
            lambda: run_experiment(scenarios=[2], specs=["CC"], methods=["qlearning"], n_grid=[100], replicates=1, threads=1.5),
            "threads must be an integer, got 1.5",
        ),
    ],
    ids=[
        "scenario", "draws", "no-scenarios", "repeated-scenario", "repeated-spec", "repeated-method", "repeated-n",
        "fractional-draws", "fractional-n", "fractional-p", "fractional-replicates", "fractional-n-grid",
        "fractional-scenario", "fractional-validation-draws", "fractional-threads",
    ],
)
def test_oracle_and_runner_inputs_are_checked(call, fragment):
    with pytest.raises(ConfigError) as exc:
        call()
    assert fragment in str(exc.value)
