import json

import numpy as np
import pytest

from earlkit import cli
from earlkit.core import Dataset, save_csv
from earlkit.sim import ScenarioSpec, generate_scenario


@pytest.fixture()
def train_csv(tmp_path):
    d = generate_scenario(ScenarioSpec(2, 150, p=4), 5)
    path = tmp_path / "train.csv"
    save_csv(d, path)
    return str(path)


def test_fit_then_evaluate_reproduces_insample_aipwe(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    report_path = str(tmp_path / "report.json")
    rc = cli.main(
        ["fit", "--input", train_csv, "--output", rule_path, "--loss", "logistic",
         "--lambda", "0.5", "--seed", "3"]
    )
    assert rc == 0
    artifact = json.loads(open(rule_path).read())
    rc = cli.main(["evaluate", "--input", train_csv, "--rule", rule_path, "--output", report_path])
    assert rc == 0
    report = json.loads(open(report_path).read())
    assert abs(report["aipwe"] - artifact["aipwe_insample"]) < 1e-10
    assert set(report) >= {"ipwe", "aipwe", "ipwe_normalized", "n_effective"}


def test_fit_is_byte_deterministic(tmp_path, train_csv):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["fit", "--input", train_csv, "--loss", "logistic", "--lambda", "1", "--seed", "4"]
    assert cli.main(args + ["--output", p1]) == 0
    assert cli.main(args + ["--output", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_fit_with_cv_records_table(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    rc = cli.main(
        ["fit", "--input", train_csv, "--output", rule_path, "--lambda", "cv",
         "--lambda-grid", "0.25,4.0", "--cv-folds", "4", "--seed", "1"]
    )
    assert rc == 0
    artifact = json.loads(open(rule_path).read())
    assert artifact["lambda"] in (0.25, 4.0)
    assert [row["lambda"] for row in artifact["cv_table"]] == [0.25, 4.0]


def test_fit_crossfit_records_folds(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    rc = cli.main(
        ["fit", "--input", train_csv, "--output", rule_path, "--lambda", "0.5",
         "--crossfit", "2", "--seed", "2"]
    )
    assert rc == 0
    artifact = json.loads(open(rule_path).read())
    assert len(artifact["per_fold"]) == 2
    agg = np.mean([f["beta0"] for f in artifact["per_fold"]])
    assert artifact["beta0"] == pytest.approx(agg, abs=1e-15)


def test_missing_treatment_column_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1\n1.0,0.5\n")
    rc = cli.main(["fit", "--input", str(bad), "--output", str(tmp_path / "o.json")])
    assert rc == 3
    assert "'a'" in capsys.readouterr().err


def test_owl_artifact_aipwe_equals_ipwe(tmp_path, train_csv):
    rule_path = str(tmp_path / "owl.json")
    rc = cli.main(
        ["fit", "--input", train_csv, "--output", rule_path, "--method", "owl",
         "--loss", "hinge", "--lambda", "0.1", "--seed", "1"]
    )
    assert rc == 0
    artifact = json.loads(open(rule_path).read())
    assert artifact["outcome"] is None
    rc = cli.main(["evaluate", "--input", train_csv, "--rule", rule_path,
                   "--output", str(tmp_path / "r.json")])
    assert rc == 0
    report = json.loads(open(tmp_path / "r.json").read())
    assert report["aipwe"] == report["ipwe"]


def test_evaluate_unsupported_rule_reports_error_field(tmp_path):
    d = Dataset(np.random.default_rng(0).normal(size=(20, 2)), np.ones(20), np.ones(20))
    data_path = tmp_path / "d.csv"
    save_csv(d, data_path)
    artifact = {
        "rule": {"beta0": -1e9, "beta": [0.0, 0.0],
                 "feature_map": {"p": 2, "terms": [["x", 0], ["x", 1]]}},
        "propensity": {"feature_map": {"p": 2, "terms": [["1"]]}, "gamma": [0.0],
                       "clip": [0.01, 0.99], "ridge": 0.0},
        "outcome": None,
    }
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps(artifact))
    out_path = tmp_path / "report.json"
    rc = cli.main(["evaluate", "--input", str(data_path), "--rule", str(rule_path),
                   "--output", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["ipwe"] == 0.0
    assert report["ipwe_normalized"] is None
    assert "unsupported" in report["ipwe_normalized_error"]


def test_simulate_smoke_and_byte_determinism(tmp_path):
    out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    args = ["simulate", "--scenarios", "2", "--specs", "CC", "--methods", "qlearning",
            "--n-grid", "120", "--replicates", "2", "--seed", "9",
            "--validation-draws", "1000", "--select", "fixed"]
    assert cli.main(args + ["--output", out1]) == 0
    assert cli.main(args + ["--output", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    lines = open(out1).read().strip().split("\n")
    assert lines[0] == "method,scenario,spec,n,replicate,value,seconds"
    assert len(lines) == 3


def test_permtest_smoke(tmp_path, train_csv):
    out = str(tmp_path / "perm.csv")
    rc = cli.main(["permtest", "--input", train_csv, "--output", out, "--b", "20",
                   "--seed", "3", "--lambda", "1", "--covariates", "1,3"])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "covariate,coefficient,p_value"
    assert len(lines) == 3
    assert lines[1].startswith("x1,")
    p = float(lines[1].split(",")[2])
    assert p >= 1 / 21


def test_config_file_and_flag_override(tmp_path, train_csv):
    cfg = {"input": train_csv, "loss": "exp", "lambda": 0.25, "seed": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rule_path = str(tmp_path / "rule.json")
    rc = cli.main(["fit", "--config", str(cfg_path), "--output", rule_path, "--loss", "logistic"])
    assert rc == 0
    artifact = json.loads(open(rule_path).read())
    assert artifact["loss"] == "logistic"  # flag wins
    assert artifact["lambda"] == 0.25  # config file value survives
    assert artifact["seed"] == 8


def test_unknown_config_key_rejected(tmp_path, train_csv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"input": train_csv, "mystery": 1}))
    rc = cli.main(["fit", "--config", str(cfg_path), "--output", str(tmp_path / "o.json")])
    assert rc == 2


def test_env_seed_is_default(tmp_path, train_csv, monkeypatch):
    monkeypatch.setenv("EARL_SEED", "31")
    rule_path = str(tmp_path / "rule.json")
    rc = cli.main(["fit", "--input", train_csv, "--output", rule_path, "--lambda", "1"])
    assert rc == 0
    assert json.loads(open(rule_path).read())["seed"] == 31


def test_qlearning_fit_artifact(tmp_path, train_csv):
    rule_path = str(tmp_path / "ql.json")
    rc = cli.main(["fit", "--input", train_csv, "--output", rule_path,
                   "--method", "qlearning", "--outcome-features", "quadratic*a"])
    assert rc == 0
    artifact = json.loads(open(rule_path).read())
    assert artifact["method"] == "qlearning"
    assert artifact["loss"] is None


def test_artifact_round_trips_through_schema(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    assert cli.main(["fit", "--input", train_csv, "--output", rule_path, "--lambda", "1"]) == 0
    artifact = json.loads(open(rule_path).read())
    rule = cli._rule_from_json(artifact["rule"])
    prop = cli._propensity_from_json(artifact["propensity"])
    out = cli._outcome_from_json(artifact["outcome"])
    assert rule.beta0 == artifact["beta0"]
    assert prop.gamma.shape[0] == len(artifact["propensity"]["gamma"])
    assert out is not None


_MODEL_FLAGS = (
    "--loss", "--lambda", "--rule-features", "--propensity-features",
    "--outcome-features", "--ridge", "--clip-lo", "--clip-hi",
)


def test_fit_and_permtest_share_model_flags():
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command").choices

    def flags(name):
        return {
            opt: (a.dest, a.type, a.help)
            for a in subparsers[name]._actions
            for opt in a.option_strings
            if opt in _MODEL_FLAGS
        }

    assert set(flags("fit")) == set(_MODEL_FLAGS)
    assert flags("fit") == flags("permtest")
    assert all(h for _, _, h in flags("fit").values())


def test_permtest_rejects_cv_lambda(tmp_path, train_csv, capsys):
    rc = cli.main(["permtest", "--input", train_csv, "--output", str(tmp_path / "p.csv"),
                   "--b", "5", "--lambda", "cv"])
    assert rc == cli.EXIT_CONFIG
    assert "--lambda" in capsys.readouterr().err
