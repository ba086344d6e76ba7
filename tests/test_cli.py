import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import earlkit
from earlkit import cli
from earlkit.core import Dataset, save_csv
from earlkit.sim import ScenarioSpec, generate_scenario


def _exit_code(argv) -> int:
    """main's return code, or the status of the SystemExit argparse raises."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


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
    artifact = json.loads(Path(rule_path).read_text())
    rc = cli.main(["evaluate", "--input", train_csv, "--rule", rule_path, "--output", report_path])
    assert rc == 0
    report = json.loads(Path(report_path).read_text())
    assert abs(report["aipwe"] - artifact["aipwe_insample"]) < 1e-10
    assert set(report) >= {"ipwe", "aipwe", "ipwe_normalized", "n_effective"}


def test_fit_is_byte_deterministic(tmp_path, train_csv):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["fit", "--input", train_csv, "--loss", "logistic", "--lambda", "1", "--seed", "4"]
    assert cli.main(args + ["--output", p1]) == 0
    assert cli.main(args + ["--output", p2]) == 0
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_fit_with_cv_records_table(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    rc = cli.main(
        ["fit", "--input", train_csv, "--output", rule_path, "--lambda", "cv",
         "--lambda-grid", "0.25,4.0", "--cv-folds", "4", "--seed", "1"]
    )
    assert rc == 0
    artifact = json.loads(Path(rule_path).read_text())
    assert artifact["lambda"] in (0.25, 4.0)
    assert [row["lambda"] for row in artifact["cv_table"]] == [0.25, 4.0]


def test_fit_crossfit_records_folds(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    rc = cli.main(
        ["fit", "--input", train_csv, "--output", rule_path, "--lambda", "0.5",
         "--crossfit", "2", "--seed", "2"]
    )
    assert rc == 0
    artifact = json.loads(Path(rule_path).read_text())
    assert len(artifact["per_fold"]) == 2
    agg = np.mean([f["beta0"] for f in artifact["per_fold"]])
    assert artifact["beta0"] == pytest.approx(agg, abs=1e-15)


def test_missing_treatment_column_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1\n1.0,0.5\n")
    rc = cli.main(["fit", "--input", str(bad), "--output", str(tmp_path / "o.json")])
    assert rc == 3
    assert "'a'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fit", "--output"], ["evaluate", "--rule"], ["permtest", "--output"]])
def test_missing_input_file_is_a_data_error(tmp_path, capsys, command):
    missing = str(tmp_path / "nope.csv")
    rc = cli.main([*command, str(tmp_path / "out"), "--input", missing])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {missing}")
    assert not (tmp_path / "out").exists()


def _fast_run(command, train_csv, rule) -> list[str]:
    """A quick run of command without its --output flag."""
    return {
        "fit": ["fit", "--input", train_csv],
        "evaluate": ["evaluate", "--input", train_csv, "--rule", rule],
        "simulate": ["simulate", "--methods", "qlearning", "--n-grid", "120", "--replicates", "1",
                     "--validation-draws", "100", "--select", "fixed"],
        "permtest": ["permtest", "--input", train_csv, "--b", "5"],
    }[command]


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["fit", "evaluate", "simulate", "permtest"])
def test_unwritable_output_is_a_data_error(tmp_path, train_csv, capsys, monkeypatch, command, target):
    rule = str(tmp_path / "rule.json")
    assert cli.main(["fit", "--input", train_csv, "--output", rule]) == 0

    def no_work(*args, **kwargs):
        pytest.fail("the command ran before it checked --output")

    # the output is checked before any input is read or anything is fitted
    for name in ("load_csv", "fit_earl_pipeline", "run_experiment", "permutation_report"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "nowhere" / "out" if target == "missing-directory" else tmp_path / "outdir"
    if target == "directory":
        out.mkdir()
    assert cli.main([*_fast_run(command, train_csv, rule), "--output", str(out)]) == cli.EXIT_DATA
    assert _one_error_line(capsys, f"error: {out}: ")
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", [["fit", "--output"], ["evaluate", "--rule"], ["permtest", "--output"]])
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfey,a,x1\n1.0,1,0.5\n")
    rc = cli.main([*command, str(tmp_path / "out"), "--input", str(bad)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: not UTF-8 text")
    assert not (tmp_path / "out").exists()


def _json_path(tmp_path, content):
    """A path holding content: None leaves it missing, "dir" makes it a
    directory, bytes are written as they are and anything else as JSON."""
    path = tmp_path / "file.json"
    if content == "dir":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(json.dumps(content))
    return path


_UNREADABLE = {"missing": None, "directory": "dir", "non-utf8": b"\xff\xfe{}", "not-json": b"{x"}


def _one_error_line(capsys, *fragments) -> bool:
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error: ") and all(f in err[0] for f in fragments)


@pytest.mark.parametrize("content", [*_UNREADABLE.values(), [1, 2]], ids=[*_UNREADABLE, "array"])
def test_unreadable_config_file_is_a_config_error(tmp_path, train_csv, capsys, content):
    cfg = _json_path(tmp_path, content)
    out = tmp_path / "o.json"
    rc = _exit_code(["fit", "--input", train_csv, "--output", str(out), "--config", str(cfg)])
    assert rc == cli.EXIT_CONFIG
    assert _one_error_line(capsys, str(cfg))
    assert not out.exists()


def _maps_artifact(rule_p, prop_p, out_p, rule_term=("x", 0), clip=(0.01, 0.99)):
    """A rule artifact whose rule, propensity and outcome maps are over the
    given covariate dimensions; the rule has the one term rule_term."""
    return {
        "rule": {"beta0": 0.5, "beta": [1.0], "feature_map": {"p": rule_p, "terms": [list(rule_term)]}},
        "propensity": {"feature_map": {"p": prop_p, "terms": [["1"]]}, "gamma": [0.0],
                       "clip": list(clip), "ridge": 0.0},
        "outcome": {"feature_map": {"p": out_p, "terms": [["1"]]}, "theta": [0.0]},
    }


@pytest.mark.parametrize(
    "content, fragment",
    [*((c, "") for c in _UNREADABLE.values()), ({}, "'rule'"), ([1, 2], "JSON object"),
     ({"rule": {"beta0": 0.0, "beta": [0.0]}}, "'feature_map'"), ({"rule": 5}, "malformed"),
     (_maps_artifact(4, 4, 4, clip=[0.1]), "clip must hold two bounds"),
     (_maps_artifact(4, 4, 4, rule_term=[]), "a feature term may not be empty")],
    ids=[*_UNREADABLE, "empty-object", "array", "no-feature-map", "rule-not-object", "one-clip-bound",
         "empty-term"],
)
def test_bad_rule_artifact_is_a_data_error(tmp_path, train_csv, capsys, content, fragment):
    rule = _json_path(tmp_path, content)
    out = tmp_path / "report.json"
    rc = _exit_code(["evaluate", "--input", train_csv, "--rule", str(rule), "--output", str(out)])
    assert rc == cli.EXIT_DATA
    assert _one_error_line(capsys, str(rule), fragment)
    assert not out.exists()


@pytest.mark.parametrize(
    "artifact, fragment",
    [(None, "the rule has covariate dimension 4"),
     (_maps_artifact(3, 4, 3), "the propensity model has covariate dimension 4"),
     (_maps_artifact(3, 3, 4), "the outcome model has covariate dimension 4")],
    ids=["fitted-rule", "propensity", "outcome"],
)
def test_rule_data_dimension_mismatch_is_a_data_error(tmp_path, train_csv, capsys, artifact, fragment):
    rule = tmp_path / "rule.json"
    if artifact is None:
        assert cli.main(["fit", "--input", train_csv, "--output", str(rule), "--lambda", "1"]) == 0
    else:
        rule.write_text(json.dumps(artifact))
    d = generate_scenario(ScenarioSpec(2, 150, p=3), 5)
    data = tmp_path / "p3.csv"
    save_csv(d, data)
    out = tmp_path / "report.json"
    capsys.readouterr()
    rc = _exit_code(["evaluate", "--input", str(data), "--rule", str(rule), "--output", str(out)])
    assert rc == cli.EXIT_DATA
    assert _one_error_line(capsys, str(rule), fragment, "have 3")
    assert not out.exists()


def test_owl_artifact_aipwe_equals_ipwe(tmp_path, train_csv):
    rule_path = str(tmp_path / "owl.json")
    rc = cli.main(
        ["fit", "--input", train_csv, "--output", rule_path, "--method", "owl",
         "--loss", "hinge", "--lambda", "0.1", "--seed", "1"]
    )
    assert rc == 0
    artifact = json.loads(Path(rule_path).read_text())
    assert artifact["outcome"] is None
    rc = cli.main(["evaluate", "--input", train_csv, "--rule", rule_path,
                   "--output", str(tmp_path / "r.json")])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
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
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    lines = Path(out1).read_text().strip().split("\n")
    assert lines[0] == "method,scenario,spec,n,replicate,value,seconds,error"
    assert len(lines) == 3


def test_permtest_smoke(tmp_path, train_csv):
    out = str(tmp_path / "perm.csv")
    rc = cli.main(["permtest", "--input", train_csv, "--output", out, "--b", "20",
                   "--seed", "3", "--lambda", "1", "--covariates", "1,3"])
    assert rc == 0
    lines = Path(out).read_text().strip().split("\n")
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
    artifact = json.loads(Path(rule_path).read_text())
    assert artifact["loss"] == "logistic"  # flag wins
    assert artifact["lambda"] == 0.25  # config file value survives
    assert artifact["seed"] == 8


def test_unknown_config_key_rejected(tmp_path, train_csv):
    # "func", "command" and "help" are parser internals, not settings: a file
    # must not be able to replace the dispatch function through them
    cfg_path = tmp_path / "cfg.json"
    for key in ("mystery", "func", "command", "help"):
        cfg_path.write_text(json.dumps({"input": train_csv, key: 1}))
        rc = cli.main(["fit", "--config", str(cfg_path), "--output", str(tmp_path / "o.json")])
        assert rc == 2, key
        assert not (tmp_path / "o.json").exists()


def test_config_value_is_type_checked_like_its_flag(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for bad in ("abc", 2.5):  # --replicates 2.5 is an error too
        cfg_path.write_text(json.dumps({"replicates": bad}))
        rc = _exit_code(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "s.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "--replicates" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


def test_commands_reject_flags_they_do_not_read(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    assert cli.main(["fit", "--input", train_csv, "--output", rule_path, "--lambda", "1"]) == 0
    assert _exit_code(["evaluate", "--input", train_csv, "--rule", rule_path, "--seed", "5"]) == 2
    sim = ["simulate", "--output", str(tmp_path / "s.csv"), "--methods", "qlearning", "--n-grid", "120",
           "--replicates", "1", "--validation-draws", "100", "--select", "fixed"]
    assert _exit_code(sim + ["--loss", "exp"]) == 2
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("k", ["1", "-3"])
def test_fit_rejects_crossfit_below_two(tmp_path, train_csv, capsys, k):
    out = tmp_path / "rule.json"
    rc = cli.main(["fit", "--input", train_csv, "--output", str(out), "--lambda", "0.5", "--crossfit", k])
    assert rc == cli.EXIT_CONFIG
    assert f"k_folds must be at least 2, got {k}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:outcome design is rank deficient:UserWarning")
def test_fit_cv_whose_every_cell_fails_on_the_data_is_a_data_error(tmp_path, capsys):
    # one treated subject: a K = 2 cross-fitting fold of every CV split
    # holds a single arm, and the propensity ridge keeps the split fits
    # with no treated subject from failing first
    d = generate_scenario(ScenarioSpec(2, 200, p=4), 5)
    train, out = tmp_path / "train.csv", tmp_path / "rule.json"
    save_csv(Dataset(d.X, np.where(np.arange(d.n) == 0, 1, -1), d.Y), train)
    rc = cli.main(["fit", "--input", str(train), "--output", str(out), "--lambda", "cv", "--crossfit", "2",
                   "--ridge", "1"])
    assert rc == cli.EXIT_DATA
    assert "110 of 110 cells failed, e.g. DataError: a fold contains a single treatment arm" in capsys.readouterr().err
    assert not out.exists()


def test_fit_cv_lambda_needs_earl(tmp_path, train_csv, capsys):
    out = tmp_path / "rule.json"
    for method in ("owl", "qlearning"):
        rc = cli.main(["fit", "--input", train_csv, "--output", str(out), "--method", method,
                       "--loss", "hinge", "--lambda", "cv"])
        assert rc == cli.EXIT_CONFIG
        assert "--method earl" in capsys.readouterr().err
        assert not out.exists()


def test_fit_crossfit_needs_earl(tmp_path, train_csv, capsys):
    out = tmp_path / "rule.json"
    for method in ("owl", "qlearning"):
        rc = cli.main(["fit", "--input", train_csv, "--output", str(out), "--method", method,
                       "--loss", "hinge", "--crossfit", "2"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--crossfit" in err and "--method earl" in err
        assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--lambda", "nan"],
    ["--lambda", "inf"],
    ["--lambda", "cv", "--lambda-grid", "0.5,nan"],
    ["--lambda", "cv", "--lambda-grid", "inf,0.5"],
])
def test_fit_rejects_a_lambda_that_is_not_finite_and_nonnegative(tmp_path, train_csv, capsys, flags):
    out = tmp_path / "rule.json"
    rc = cli.main(["fit", "--input", train_csv, "--output", str(out), "--cv-folds", "4"] + flags)
    assert rc == cli.EXIT_CONFIG
    assert "nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--lambda", "1e308"], ["--lambda", "cv", "--lambda-grid", "1,1e308"]])
def test_fit_rejects_a_lambda_whose_ridge_term_overflows(tmp_path, train_csv, capsys, flags):
    out = tmp_path / "rule.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["fit", "--input", train_csv, "--output", str(out), "--cv-folds", "4"] + flags)
    assert rc == cli.EXIT_CONFIG
    assert _one_error_line(capsys, "at most 8.98847e+307", "got 1e+308")
    assert not out.exists()


@pytest.mark.parametrize("flags,fragment", [
    (["--ridge", "-1"], "ridge"),
    (["--ridge", "nan"], "ridge"),
    (["--clip-lo", "0.7", "--clip-hi", "0.2"], "clip"),
    (["--clip-lo", "0"], "clip"),
    (["--clip-hi", "1"], "clip"),
])
def test_fit_rejects_an_out_of_range_propensity_setting(tmp_path, train_csv, capsys, flags, fragment):
    out = tmp_path / "rule.json"
    rc = cli.main(["fit", "--input", train_csv, "--output", str(out), "--lambda", "0.5"] + flags)
    assert rc == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--validation-draws", "0"],
    ["--validation-draws", "-5"],
    ["--threads", "0"],
    ["--threads", "-3"],
])
def test_simulate_rejects_fewer_than_one_draw_or_thread(tmp_path, capsys, flags):
    out = tmp_path / "s.csv"
    rc = cli.main(["simulate", "--output", str(out), "--methods", "qlearning", "--n-grid", "120",
                   "--replicates", "1", "--validation-draws", "100", "--select", "fixed"] + flags)
    assert rc == cli.EXIT_CONFIG
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    for name in ("fit", "evaluate", "simulate", "permtest"):
        assert _exit_code([name, "--help"]) == 0
        assert f"usage: earlkit {name}" in capsys.readouterr().out


def test_env_seed_is_default(tmp_path, train_csv, monkeypatch):
    runs = {
        "fit": ["fit", "--input", train_csv, "--lambda", "1"],
        # at this B the p-value differs between seeds 0 and 31
        "permtest": ["permtest", "--input", train_csv, "--b", "20", "--covariates", "2"],
        "simulate": ["simulate", "--methods", "qlearning", "--n-grid", "120",
                     "--replicates", "2", "--validation-draws", "500"],
    }
    for name, args in runs.items():
        assert cli.main(args + ["--seed", "31", "--output", str(tmp_path / f"{name}.seed")]) == 0
    monkeypatch.setenv("EARL_SEED", "31")
    for name, args in runs.items():
        assert cli.main(args + ["--output", str(tmp_path / f"{name}.env")]) == 0
        assert (tmp_path / f"{name}.env").read_bytes() == (tmp_path / f"{name}.seed").read_bytes()
    assert json.loads((tmp_path / "fit.env").read_text())["seed"] == 31


def test_qlearning_fit_artifact(tmp_path, train_csv):
    rule_path = str(tmp_path / "ql.json")
    rc = cli.main(["fit", "--input", train_csv, "--output", rule_path,
                   "--method", "qlearning", "--outcome-features", "quadratic*a"])
    assert rc == 0
    artifact = json.loads(Path(rule_path).read_text())
    assert artifact["method"] == "qlearning"
    assert artifact["loss"] is None


def test_artifact_round_trips_through_schema(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    assert cli.main(["fit", "--input", train_csv, "--output", rule_path, "--lambda", "1"]) == 0
    artifact = json.loads(Path(rule_path).read_text())
    rule = cli._rule_from_json(artifact["rule"])
    prop = cli._propensity_from_json(artifact["propensity"])
    out = cli._outcome_from_json(artifact["outcome"])
    assert rule.beta0 == artifact["beta0"]
    assert prop.gamma.shape[0] == len(artifact["propensity"]["gamma"])
    assert out is not None


_MODEL_FLAGS = (
    "--input", "--output", "--seed", "--loss", "--lambda", "--rule-features",
    "--propensity-features", "--outcome-features", "--ridge", "--clip-lo", "--clip-hi",
)


def test_fit_and_permtest_share_model_flags():
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command").choices

    def flags(name):
        return {
            opt: (a.dest, a.type, a.default, a.help)
            for a in subparsers[name]._actions
            for opt in a.option_strings
            if opt in _MODEL_FLAGS
        }

    assert set(flags("fit")) == set(_MODEL_FLAGS)
    assert flags("fit") == flags("permtest")
    assert all(h for _, _, _, h in flags("fit").values())


def test_permtest_rejects_cv_lambda(tmp_path, train_csv, capsys):
    rc = cli.main(["permtest", "--input", train_csv, "--output", str(tmp_path / "p.csv"),
                   "--b", "5", "--lambda", "cv"])
    assert rc == cli.EXIT_CONFIG
    assert "--lambda" in capsys.readouterr().err


def test_simulate_rejects_cv_lambda(tmp_path, capsys):
    rc = cli.main(["simulate", "--output", str(tmp_path / "s.csv"), "--methods", "owl",
                   "--n-grid", "120", "--replicates", "1", "--select", "fixed", "--lambda", "cv"])
    assert rc == cli.EXIT_CONFIG
    assert "--select cv" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("value,fragments", [
    ("1,x", ["'x'", "1..4"]),
    ("", ["no integers", "1..4"]),
    (" , ", ["no integers", "1..4"]),
    ("0", ["'0'", "1..4"]),
    ("5", ["'5'", "1..4"]),
    ("2,1.5", ["'1.5'", "1..4"]),
])
def test_permtest_rejects_a_bad_covariate_list(tmp_path, train_csv, capsys, value, fragments):
    out = tmp_path / "p.csv"
    rc = cli.main(["permtest", "--input", train_csv, "--output", str(out), "--b", "2",
                   "--covariates", value])
    assert rc == cli.EXIT_CONFIG
    assert _one_error_line(capsys, "--covariates", *fragments)
    assert not out.exists()


@pytest.mark.parametrize("flags,fragments", [
    (["--scenarios", "2,x"], ["--scenarios", "'x'"]),
    (["--scenarios", ""], ["--scenarios", "no integers"]),
    (["--n-grid", "50,abc"], ["--n-grid", "'abc'"]),
    (["--n-grid", ","], ["--n-grid", "no integers"]),
])
def test_simulate_rejects_a_bad_integer_list(tmp_path, capsys, flags, fragments):
    out = tmp_path / "s.csv"
    rc = cli.main(["simulate", "--output", str(out), "--methods", "qlearning", "--n-grid", "120",
                   "--replicates", "1", "--validation-draws", "100", "--select", "fixed"] + flags)
    assert rc == cli.EXIT_CONFIG
    assert _one_error_line(capsys, *fragments)
    assert not out.exists()


def test_simulate_config_rejects_unknown_select(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"select": "CV", "methods": "qlearning", "n_grid": "120",
                                    "replicates": 1, "validation_draws": 100}))
    rc = _exit_code(["simulate", "--config", str(cfg_path), "--output", str(tmp_path / "s.csv")])
    assert rc == cli.EXIT_CONFIG
    assert "--select" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_fit_config_value_obeys_its_flag_choices(tmp_path, train_csv, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"input": train_csv, "method": "OWL"}))
    rc = _exit_code(["fit", "--config", str(cfg_path), "--output", str(tmp_path / "o.json")])
    assert rc == cli.EXIT_CONFIG
    assert "--method" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_permtest_reports_the_fit_coefficients(tmp_path, train_csv):
    rule_path = str(tmp_path / "rule.json")
    perm_path = str(tmp_path / "perm.csv")
    model = ["--input", train_csv, "--lambda", "1", "--seed", "2"]
    assert cli.main(["fit", "--output", rule_path, *model]) == 0
    assert cli.main(["permtest", "--output", perm_path, "--b", "3", "--covariates", "1,3", *model]) == 0
    beta = json.loads(Path(rule_path).read_text())["beta"]
    rows = [line.split(",") for line in Path(perm_path).read_text().splitlines()[1:]]
    assert [(name, coef) for name, coef, _ in rows] == [("x1", repr(beta[0])), ("x3", repr(beta[2]))]


def test_fit_cv_imports_no_scipy(tmp_path, train_csv):
    # numpy is earlkit's only runtime dependency; a fresh interpreter shows
    # what the package itself imports
    script = (
        "import sys, earlkit, earlkit.cli, earlkit.sim\n"
        f"rc = earlkit.cli.main(['fit', '--input', {train_csv!r}, '--output', {str(tmp_path / 'o.json')!r},"
        " '--lambda', 'cv', '--lambda-grid', '0.5,2', '--cv-folds', '3'])\n"
        "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(earlkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"


def test_feature_map_names_ignore_case(tmp_path, train_csv, capsys):
    def fit(name, *maps):
        flags = [f for flag, m in zip(("--rule-features", "--propensity-features", "--outcome-features"), maps)
                 for f in (flag, m)]
        return _exit_code(["fit", "--input", train_csv, "--output", str(tmp_path / name), "--lambda", "1", *flags])

    assert fit("lower.json", "linear", "linear", "linear*a") == cli.EXIT_OK
    assert fit("upper.json", "LINEAR", "Linear", "LINEAR*A") == cli.EXIT_OK
    assert (tmp_path / "lower.json").read_bytes() == (tmp_path / "upper.json").read_bytes()
    for maps in (("cubic",), ("linear", "cubic"), ("linear", "linear", "cubic*a")):
        assert fit("bad.json", *maps) == cli.EXIT_CONFIG
        assert _one_error_line(capsys, "unknown feature map name", "cubic")
    assert not (tmp_path / "bad.json").exists()


def test_unknown_feature_map_names_are_quoted_as_typed(tmp_path, train_csv, capsys):
    out = tmp_path / "rule.json"
    for flag, name in (("--rule-features", "CUBIC"), ("--propensity-features", "Cubic"),
                       ("--outcome-features", "CUBIC*A")):
        rc = _exit_code(["fit", "--input", train_csv, "--output", str(out), "--lambda", "1", flag, name])
        assert rc == cli.EXIT_CONFIG
        assert _one_error_line(capsys, f"unknown feature map name {name!r}")
    assert not out.exists()


def test_qlearning_rejects_a_rule_map_with_treatment(tmp_path, train_csv, capsys):
    out = tmp_path / "rule.json"
    rc = _exit_code(["fit", "--input", train_csv, "--output", str(out), "--method", "qlearning",
                     "--rule-features", "linear*a"])
    assert rc == cli.EXIT_CONFIG
    assert _one_error_line(capsys, "rule feature map must be over x only")
    assert not out.exists()


def test_permtest_all_covariates_equals_listing_each(tmp_path):
    d = generate_scenario(ScenarioSpec(2, 120, p=4), 8)
    save_csv(d, tmp_path / "d.csv")
    args = ["permtest", "--input", str(tmp_path / "d.csv"), "--b", "5", "--seed", "2", "--lambda", "1"]
    assert cli.main([*args, "--output", str(tmp_path / "all.csv"), "--covariates", "all"]) == 0
    assert cli.main([*args, "--output", str(tmp_path / "each.csv"), "--covariates", "1,2,3,4"]) == 0
    assert (tmp_path / "all.csv").read_bytes() == (tmp_path / "each.csv").read_bytes()


def test_evaluate_without_output_prints_the_report(tmp_path, train_csv, capsys):
    rule_path = str(tmp_path / "rule.json")
    assert cli.main(["fit", "--input", train_csv, "--output", rule_path, "--lambda", "1"]) == 0
    args = ["evaluate", "--input", train_csv, "--rule", rule_path]
    assert cli.main([*args, "--output", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (tmp_path / "report.json").read_text()


def test_fit_on_a_single_arm_is_a_numerical_failure(tmp_path, capsys):
    d = generate_scenario(ScenarioSpec(2, 60, p=3), 1)
    save_csv(Dataset(d.X, np.ones(d.n), d.Y), tmp_path / "one_arm.csv")
    out = tmp_path / "rule.json"
    rc = _exit_code(["fit", "--input", str(tmp_path / "one_arm.csv"), "--output", str(out)])
    assert rc == cli.EXIT_NUMERIC
    assert _one_error_line(capsys, "same treatment")
    assert not out.exists()


@pytest.mark.parametrize("command,fragment", [
    ("fit", "fit requires --input and --output"),
    ("evaluate", "evaluate requires --input and --rule"),
    ("simulate", "simulate requires --output"),
    ("permtest", "permtest requires --input and --output"),
])
def test_a_command_without_its_files_is_a_config_error(capsys, command, fragment):
    assert cli.main([command]) == cli.EXIT_CONFIG
    assert _one_error_line(capsys, fragment)


@pytest.mark.parametrize("flags,env,fragment", [
    ([], "abc", "EARL_SEED must be an integer, got 'abc'"),
    (["--lambda", "abc"], None, "--lambda must be a number or 'cv', got 'abc'"),
    (["--lambda", "cv", "--lambda-grid", "1,x"], None, "could not parse lambda grid '1,x'"),
    (["--method", "qlearning", "--outcome-features", "none"], None, "qlearning requires outcome features"),
])
def test_fit_rejects_a_malformed_setting(tmp_path, train_csv, capsys, monkeypatch, flags, env, fragment):
    if env is not None:
        monkeypatch.setenv("EARL_SEED", env)
    out = tmp_path / "rule.json"
    assert cli.main(["fit", "--input", train_csv, "--output", str(out), *flags]) == cli.EXIT_CONFIG
    assert _one_error_line(capsys, fragment)
    assert not out.exists()


@pytest.mark.parametrize("flags,config,flag", [
    (["--loss", "hinge"], {}, "--loss"),
    (["--lambda", "5"], {}, "--lambda"),
    ([], {"loss": "exp"}, "--loss"),
    ([], {"lambda": 0.5}, "--lambda"),
])
def test_qlearning_rejects_a_loss_or_lambda_it_does_not_use(tmp_path, train_csv, capsys, flags, config, flag):
    cfg = _json_path(tmp_path, config)
    out = tmp_path / "rule.json"
    rc = cli.main(["fit", "--input", train_csv, "--output", str(out), "--method", "qlearning",
                   "--config", str(cfg), *flags])
    assert rc == cli.EXIT_CONFIG
    assert _one_error_line(capsys, flag, "--method qlearning")
    assert not out.exists()


def test_qlearning_accepts_the_declared_loss_and_lambda(tmp_path, train_csv):
    args = ["fit", "--input", train_csv, "--method", "qlearning"]
    assert cli.main([*args, "--output", str(tmp_path / "bare.json")]) == 0
    assert cli.main([*args, "--output", str(tmp_path / "stated.json"), "--loss", "Logistic", "--lambda", "1.0"]) == 0
    assert (tmp_path / "bare.json").read_bytes() == (tmp_path / "stated.json").read_bytes()


def test_simulate_config_takes_specs_as_a_json_list(tmp_path, train_csv):
    args = ["simulate", "--methods", "qlearning", "--n-grid", "120", "--replicates", "1",
            "--validation-draws", "100", "--select", "fixed"]
    assert cli.main([*args, "--output", str(tmp_path / "flag.csv"), "--specs", "CC,II"]) == 0
    cfg = _json_path(tmp_path, {"specs": ["CC", "II"], "timings": False})
    assert cli.main([*args, "--output", str(tmp_path / "config.csv"), "--config", str(cfg)]) == 0
    assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    # a fit config's numbers and lists are read as the text of their flags
    model = {"lambda_grid": [0.5, 2], "clip_lo": 0.05, "clip_hi": 0.95, "cv_folds": 3}
    flags = ["--lambda-grid", "0.5,2", "--clip-lo", "0.05", "--clip-hi", "0.95", "--cv-folds", "3"]
    for lam in (0.25, "cv"):
        args = ["fit", "--input", train_csv, "--lambda", str(lam), *flags]
        assert cli.main([*args, "--output", str(tmp_path / "flag.json")]) == 0
        cfg = _json_path(tmp_path, {"input": train_csv, "lambda": lam, **model})
        assert cli.main(["fit", "--output", str(tmp_path / "config.json"), "--config", str(cfg)]) == 0
        assert (tmp_path / "config.json").read_bytes() == (tmp_path / "flag.json").read_bytes()


_FAST_SIMULATE = {"methods": "qlearning", "n_grid": "120", "replicates": 1, "validation_draws": 100,
                  "select": "fixed"}


@pytest.mark.parametrize("command,config,fragment", [
    ("fit", {"lambda": True}, "lambda cannot be true or false"),
    ("fit", {"lambda": "cv", "lambda_grid": [True, 2]}, "could not parse lambda grid 'True,2'"),
    ("fit", {"lambda": "cv", "lambda_grid": [[1]]}, "could not parse lambda grid '[1]'"),
    ("simulate", {**_FAST_SIMULATE, "timings": "false"}, "--timings"),
], ids=["true-lambda", "true-in-grid", "nested-grid", "timings-text"])
def test_config_value_its_flag_would_refuse_is_a_config_error(tmp_path, train_csv, capsys, command, config,
                                                              fragment):
    cfg = _json_path(tmp_path, {"input": train_csv, **config} if command == "fit" else config)
    out = tmp_path / "out"
    assert _exit_code([command, "--output", str(out), "--config", str(cfg)]) == cli.EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if "error: " in line]
    assert len(errors) == 1 and fragment in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("config,flags", [
    ({"cv_folds": None}, ["--lambda", "cv", "--lambda-grid", "0.5,2"]),
    ({"ridge": None}, []),
], ids=["cv-folds", "ridge"])
def test_config_null_leaves_the_flag_at_its_default(tmp_path, train_csv, config, flags):
    args = ["fit", "--input", train_csv, *flags]
    assert cli.main([*args, "--output", str(tmp_path / "flag.json")]) == 0
    cfg = _json_path(tmp_path, config)
    assert cli.main([*args, "--output", str(tmp_path / "config.json"), "--config", str(cfg)]) == 0
    assert (tmp_path / "config.json").read_bytes() == (tmp_path / "flag.json").read_bytes()
