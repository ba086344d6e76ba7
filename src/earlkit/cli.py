"""Command-line interface: fit rules from CSV, evaluate them, run the
simulation grid, and run permutation inference.

Configuration may come from a JSON file (--config) whose keys mirror the
flag names with underscores; flags win over file values and unknown keys
are rejected. Exit codes: 0 success, 2 config error, 3 data error,
4 numerical failure. The EARL_SEED environment variable supplies a
default seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile

import numpy as np

from .baselines import owl_fit, qlearning_fit
from .core import (
    ConfigError,
    ConvergenceError,
    DataError,
    DomainError,
    EarlError,
    FeatureMap,
    LinearRule,
    NumericalError,
    ParseError,
    load_csv,
)
from .earl import DEFAULT_LAMBDA_GRID, EarlConfig, fit_earl_pipeline
from .inference import DEFAULT_PERMUTATIONS, permutation_report
from .nuisance import NuisanceSpec, OutcomeModel, PropensityModel, fit_propensity
from .sim import DEFAULT_LAMBDA, run_experiment, write_results_csv
from .value import value_aipwe, value_ipwe, value_ipwe_normalized

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _atomic_write(path: str, text: str) -> None:
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _propensity_to_json(model: PropensityModel) -> dict:
    return {
        "feature_map": model.feature_map.to_jsonable(),
        "gamma": [float(v) for v in model.gamma],
        "clip": [model.clip[0], model.clip[1]],
        "ridge": model.ridge,
    }


def _propensity_from_json(obj: dict) -> PropensityModel:
    return PropensityModel(
        feature_map=FeatureMap.from_jsonable(obj["feature_map"]),
        gamma=np.asarray(obj["gamma"], dtype=float),
        clip=(float(obj["clip"][0]), float(obj["clip"][1])),
        ridge=float(obj.get("ridge", 0.0)),
    )


def _outcome_to_json(model: OutcomeModel | None):
    if model is None:
        return None
    return {
        "feature_map": model.feature_map.to_jsonable(),
        "theta": [float(v) for v in model.theta],
    }


def _outcome_from_json(obj) -> OutcomeModel | None:
    if obj is None:
        return None
    return OutcomeModel(
        feature_map=FeatureMap.from_jsonable(obj["feature_map"]),
        theta=np.asarray(obj["theta"], dtype=float),
    )


def _rule_to_json(rule: LinearRule) -> dict:
    return {
        "beta0": rule.beta0,
        "beta": [float(v) for v in rule.beta],
        "feature_map": rule.feature_map.to_jsonable(),
    }


def _rule_from_json(obj: dict) -> LinearRule:
    return LinearRule(
        beta0=float(obj["beta0"]),
        beta=np.asarray(obj["beta"], dtype=float),
        feature_map=FeatureMap.from_jsonable(obj["feature_map"]),
    )


def _load_config_file(path: str, known: set[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "lambda" in obj:  # JSON key "lambda" maps to the lam flag
        obj["lam"] = obj.pop("lambda")
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return obj


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override config-file values, which override defaults; a
    seed left unset comes from EARL_SEED."""
    cfg = dict(defaults)
    if args.config:
        cfg.update(_load_config_file(args.config, set(defaults)))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if "seed" in cfg and cfg["seed"] is None:
        env = os.environ.get("EARL_SEED", "0")
        try:
            cfg["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"EARL_SEED must be an integer, got {env!r}") from None
    return cfg


def _parse_lambda(text) -> tuple[bool, float]:
    """Returns (use_cv, fixed_value)."""
    if isinstance(text, (int, float)):
        return False, float(text)
    if str(text).strip().lower() == "cv":
        return True, 0.0
    try:
        return False, float(text)
    except ValueError:
        raise ConfigError(f"--lambda must be a number or 'cv', got {text!r}") from None


def _parse_grid(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise ConfigError(f"could not parse lambda grid {text!r}") from None


# the keys fit and permtest share: files, seed, surrogate, penalty, nuisance maps
_MODEL_DEFAULTS = {
    "input": None,
    "output": None,
    "loss": "logistic",
    "lam": 1.0,
    "rule_features": "linear",
    "propensity_features": "linear",
    "outcome_features": "linear*a",
    "ridge": 0.0,
    "clip_lo": 0.01,
    "clip_hi": 0.99,
    "seed": None,
}

_FIT_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "method": "earl",
    "lambda_grid": DEFAULT_LAMBDA_GRID,
    "crossfit": 0,
    "cv_folds": 10,
}


def _model(cfg: dict, p: int, **extra) -> tuple[bool, EarlConfig, NuisanceSpec]:
    """(use_cv, EarlConfig, NuisanceSpec) named by the model settings;
    extra holds further EarlConfig fields."""
    use_cv, lam = _parse_lambda(cfg["lam"])
    rule_fm = FeatureMap.from_name(str(cfg["rule_features"]), p, intercept=False)
    econf = EarlConfig(
        loss=str(cfg["loss"]), lam=lam, feature_map=rule_fm, seed=int(cfg["seed"]), **extra
    )
    out_name = str(cfg["outcome_features"]).strip().lower()
    nspec = NuisanceSpec(
        propensity_map=FeatureMap.from_name(str(cfg["propensity_features"]), p),
        outcome_map=None if out_name in ("none", "null") else FeatureMap.from_name(out_name, p),
        ridge=float(cfg["ridge"]),
        clip=(float(cfg["clip_lo"]), float(cfg["clip_hi"])),
    )
    return use_cv, econf, nspec


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _merged(args, _FIT_DEFAULTS)
    if not cfg["input"] or not cfg["output"]:
        raise ConfigError("fit requires --input and --output")
    data = load_csv(cfg["input"])
    k = int(cfg["crossfit"])
    use_cv, econf, nspec = _model(
        cfg,
        data.p,
        k_folds=max(k, 2),
        cv_folds=int(cfg["cv_folds"]),
        lambda_grid=_parse_grid(cfg["lambda_grid"]),
    )
    method = str(cfg["method"]).lower()
    selection = None
    per_fold = None
    if method == "earl":
        res = fit_earl_pipeline(
            data, nspec, econf, select="cv" if use_cv else "fixed", crossfit=k >= 2
        )
        fit, selection = res.fit, res.selection
        prop, out = res.propensity, res.outcome
        rule, lam_used, loss_used = fit.rule, fit.lambda_used, econf.loss
        if fit.per_fold_rules is not None:
            per_fold = [_rule_to_json(r) for r in fit.per_fold_rules]
    elif method == "owl":
        prop = fit_propensity(data, nspec.propensity_map, ridge=nspec.ridge, clip=nspec.clip)
        out = None
        bl = owl_fit(data, prop, econf)
        rule, lam_used, loss_used = bl.rule, econf.lam, econf.loss
    elif method == "qlearning":
        if nspec.outcome_map is None:
            raise ConfigError("qlearning requires outcome features")
        prop = fit_propensity(data, nspec.propensity_map, ridge=nspec.ridge, clip=nspec.clip)
        out = None  # the artifact's Q-model is null: the rule already encodes the contrast
        bl = qlearning_fit(data, nspec.outcome_map)
        rule, lam_used, loss_used = bl.rule, 0.0, None
    else:
        raise ConfigError(f"unknown fit method {method!r}; expected earl, owl, or qlearning")
    artifact = {
        "method": method,
        "loss": loss_used,
        "lambda": lam_used,
        "beta0": rule.beta0,
        "beta": [float(v) for v in rule.beta],
        "rule": _rule_to_json(rule),
        "propensity": _propensity_to_json(prop),
        "outcome": _outcome_to_json(out),
        "aipwe_insample": value_aipwe(data, rule, prop, out).estimate,
        "n": data.n,
        "p": data.p,
        "seed": econf.seed,
    }
    if selection is not None:
        artifact["cv_table"] = [dict(row) for row in selection.table]
    if per_fold is not None:
        artifact["per_fold"] = per_fold
    _atomic_write(cfg["output"], _dump_json(artifact))
    return EXIT_OK


_EVAL_DEFAULTS = {"input": None, "rule": None, "output": None}


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _merged(args, _EVAL_DEFAULTS)
    if not cfg["input"] or not cfg["rule"]:
        raise ConfigError("evaluate requires --input and --rule")
    data = load_csv(cfg["input"])
    try:
        with open(cfg["rule"], encoding="utf-8") as fh:
            artifact = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"rule artifact not found: {cfg['rule']}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"rule artifact is not valid JSON: {exc}") from None
    rule = _rule_from_json(artifact["rule"])
    prop = _propensity_from_json(artifact["propensity"])
    out = _outcome_from_json(artifact.get("outcome"))
    ipwe = value_ipwe(data, rule, prop)
    aipwe = value_aipwe(data, rule, prop, out)
    report = {
        "ipwe": ipwe.estimate,
        "aipwe": aipwe.estimate,
        "n_effective": ipwe.n_effective,
    }
    try:
        report["ipwe_normalized"] = value_ipwe_normalized(data, rule, prop).estimate
    except DataError as exc:
        report["ipwe_normalized"] = None
        report["ipwe_normalized_error"] = str(exc)
    text = _dump_json(report)
    if cfg["output"]:
        _atomic_write(cfg["output"], text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_SIM_DEFAULTS = {
    "output": None,
    "scenarios": "2",
    "specs": "CC",
    "methods": "earl-logistic",
    "n_grid": "200,500,1000,2500",
    "replicates": 100,
    "validation_draws": 10000,
    "select": "cv",
    "lam": DEFAULT_LAMBDA,
    "loss": "logistic",
    "threads": 1,
    "timings": False,
    "seed": None,
}


def _split_csv(text) -> list[str]:
    if isinstance(text, (list, tuple)):
        return [str(v) for v in text]
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged(args, _SIM_DEFAULTS)
    if not cfg["output"]:
        raise ConfigError("simulate requires --output")
    seed = int(cfg["seed"])
    use_cv, lam = _parse_lambda(cfg["lam"])
    if use_cv:
        raise ConfigError("simulate needs a fixed --lambda; choose lambda by CV with --select cv")
    results = run_experiment(
        scenarios=[int(s) for s in _split_csv(cfg["scenarios"])],
        specs=_split_csv(cfg["specs"]),
        methods=_split_csv(cfg["methods"]),
        n_grid=[int(v) for v in _split_csv(cfg["n_grid"])],
        replicates=int(cfg["replicates"]),
        seed=seed,
        validation_draws=int(cfg["validation_draws"]),
        threads=int(cfg["threads"]),
        earl_config=EarlConfig(loss=str(cfg["loss"]), lam=lam, seed=seed),
        select=str(cfg["select"]),
    )
    buf = io.StringIO()
    write_results_csv(results, buf, timings=bool(cfg["timings"]))
    _atomic_write(cfg["output"], buf.getvalue())
    return EXIT_OK


_PERMTEST_DEFAULTS = {**_MODEL_DEFAULTS, "b": DEFAULT_PERMUTATIONS, "covariates": "all"}


def cmd_permtest(args: argparse.Namespace) -> int:
    cfg = _merged(args, _PERMTEST_DEFAULTS)
    if not cfg["input"] or not cfg["output"]:
        raise ConfigError("permtest requires --input and --output")
    data = load_csv(cfg["input"])
    use_cv, econf, nspec = _model(cfg, data.p)
    if use_cv:
        raise ConfigError("permtest needs a fixed --lambda; 'cv' is supported by fit only")

    def pipeline(d):
        return fit_earl_pipeline(d, nspec, econf).fit.rule

    if str(cfg["covariates"]).strip().lower() == "all":
        covs = None
    else:
        covs = [int(v) - 1 for v in _split_csv(cfg["covariates"])]  # 1-based on the CLI
    report = permutation_report(data, pipeline, b=int(cfg["b"]), seed=econf.seed, covariates=covs)
    lines = ["covariate,coefficient,p_value"]
    for e in report.entries:
        lines.append(f"x{e.covariate + 1},{e.coefficient!r},{e.p_value!r}")
    _atomic_write(cfg["output"], "\n".join(lines) + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earlkit",
        description="Doubly robust individualized treatment rules via convex surrogate relaxation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--seed", type=int, help="RNG seed (default: EARL_SEED or 0)")

    def model(sp):
        # the surrogate, penalty and nuisance flags fit and permtest share
        sp.add_argument("--loss", help="hinge | exp | logistic | sqhinge")
        sp.add_argument("--lambda", dest="lam", help="penalty weight; fit also takes 'cv'")
        sp.add_argument("--rule-features", dest="rule_features", help="feature map of the rule")
        sp.add_argument("--propensity-features", dest="propensity_features", help="feature map of the propensity model")
        sp.add_argument("--outcome-features", dest="outcome_features", help="feature map name or 'none'")
        sp.add_argument("--ridge", type=float, help="ridge weight of the propensity fit")
        sp.add_argument("--clip-lo", dest="clip_lo", type=float, help="lower propensity clip")
        sp.add_argument("--clip-hi", dest="clip_hi", type=float, help="upper propensity clip")

    sp = sub.add_parser("fit", help="fit a treatment rule from a CSV file")
    common(sp)
    sp.add_argument("--input", help="training CSV (header y,a,x1,...,xp)")
    sp.add_argument("--output", help="rule artifact JSON to write")
    sp.add_argument("--method", choices=["earl", "owl", "qlearning"])
    model(sp)
    sp.add_argument("--lambda-grid", dest="lambda_grid", help="comma-separated grid for cv")
    sp.add_argument("--crossfit", type=int, help="number of sample-splitting folds K (0 = off)")
    sp.add_argument("--cv-folds", dest="cv_folds", type=int)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("evaluate", help="evaluate a fitted rule on a CSV file")
    common(sp)
    sp.add_argument("--input")
    sp.add_argument("--rule", help="rule artifact JSON from fit")
    sp.add_argument("--output", help="report JSON (default: stdout)")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("simulate", help="run the benchmark grid")
    common(sp)
    sp.add_argument("--output", help="results CSV to write")
    sp.add_argument("--scenarios", help="comma-separated scenario ids, e.g. 1,2")
    sp.add_argument("--specs", help="comma-separated codes among CC,CI,IC,II")
    sp.add_argument("--methods", help="comma-separated method names")
    sp.add_argument("--n-grid", dest="n_grid", help="comma-separated training sizes")
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--validation-draws", dest="validation_draws", type=int)
    sp.add_argument("--select", choices=["cv", "fixed"])
    sp.add_argument("--lambda", dest="lam", help="fixed penalty weight of OWL and of --select fixed EARL")
    sp.add_argument("--loss")
    sp.add_argument("--threads", type=int)
    sp.add_argument(
        "--timings",
        action="store_const",
        const=True,
        help="record wall times in the seconds column (off by default so "
        "identical seeds give identical bytes)",
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("permtest", help="permutation test for rule coefficients")
    common(sp)
    sp.add_argument("--input")
    sp.add_argument("--output")
    sp.add_argument("--b", type=int, help="number of permutations (default 2000)")
    sp.add_argument("--covariates", help="'all' or comma-separated 1-based indices")
    model(sp)
    sp.set_defaults(func=cmd_permtest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DomainError, ConvergenceError, NumericalError, EarlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
