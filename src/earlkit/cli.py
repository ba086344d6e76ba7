"""Command-line interface: fit rules from CSV, evaluate them, run the
simulation grid, and run permutation inference.

Configuration may come from a JSON file (--config) whose keys are the
command's flag names with underscores; each value is parsed as its flag's
text, flags win over them, and unknown keys are rejected. Exit codes:
0 success, 2 config error, 3 data error, 4 numerical failure. The
EARL_SEED environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
import tempfile

import numpy as np

from .baselines import owl_fit, qlearning_fit
from .core import (
    ConfigError,
    DataError,
    EarlError,
    FeatureMap,
    LinearRule,
    ParseError,
    load_csv,
)
from .earl import DEFAULT_LAMBDA_GRID, EarlConfig, fit_earl_pipeline
from .inference import DEFAULT_PERMUTATIONS, permutation_report
from .losses import get_loss
from .nuisance import NuisanceSpec, OutcomeModel, PropensityModel
from .sim import DEFAULT_LAMBDA, run_experiment, write_results_csv
from .value import value_aipwe, value_ipwe, value_ipwe_normalized

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _atomic_write(path: str, produce) -> None:
    """Writes the text produce() returns to path by way of a temporary file
    beside it. The file is made before produce runs, so an output that
    cannot be written fails before any work is done. An OSError, or a path
    that is an existing directory, is a DataError naming path, and every
    failure removes the temporary file."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    fh = os.fdopen(fd, "w", encoding="utf-8")
    try:
        text = produce()
        try:
            fh.write(text)
            fh.close()
            os.replace(tmp, path)
        except OSError as exc:
            raise DataError(f"{path}: {exc.strerror}") from None
    finally:
        fh.close()
        if os.path.exists(tmp):
            os.unlink(tmp)


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
        clip=obj["clip"],
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


def _read_json(path: str, error: type[EarlError], what: str):
    """The JSON value stored in path; a file that cannot be opened, is not
    UTF-8 or is not JSON raises error, naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def _load_config_file(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The command's flags that config file path sets, as --flag=value text.
    A key is its flag's name with underscores; a list is its entries joined
    by commas, null leaves the flag unset, and true and false suit only a
    flag that takes no value (true gives the bare flag)."""
    obj = _read_json(path, ConfigError, "config file")
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    actions = {a.option_strings[-1][2:].replace("-", "_"): a
               for a in command._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(obj) - set(actions))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    flags = []
    for key, value in obj.items():
        flag = actions[key].option_strings[-1]
        if isinstance(value, bool):
            if actions[key].nargs != 0:
                raise ConfigError(f"config file {path}: {key} cannot be true or false")
            flags += [flag] if value else []
        elif value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            flags.append(f"{flag}={text}")
    return flags


def _seed(args: argparse.Namespace) -> int:
    """The --seed value, or EARL_SEED (else 0) when it is unset."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EARL_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"EARL_SEED must be an integer, got {env!r}") from None


def _parse_lambda(text: str) -> tuple[bool, float]:
    """Returns (use_cv, fixed_value)."""
    if text.strip().lower() == "cv":
        return True, 0.0
    try:
        return False, float(text)
    except ValueError:
        raise ConfigError(f"--lambda must be a number or 'cv', got {text!r}") from None


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"could not parse lambda grid {text!r}") from None


def _model(args: argparse.Namespace, p: int, **extra) -> tuple[bool, EarlConfig, NuisanceSpec]:
    """(use_cv, EarlConfig, NuisanceSpec) named by the model flags; extra
    holds further EarlConfig fields."""
    use_cv, lam = _parse_lambda(args.lam)
    rule_fm = FeatureMap.from_name(args.rule_features, p, intercept=False)
    econf = EarlConfig(loss=args.loss, lam=lam, feature_map=rule_fm, seed=_seed(args), **extra)
    no_outcome = args.outcome_features.strip().lower() in ("none", "null")
    nspec = NuisanceSpec(
        propensity_map=FeatureMap.from_name(args.propensity_features, p),
        outcome_map=None if no_outcome else FeatureMap.from_name(args.outcome_features, p),
        ridge=args.ridge,
        clip=(args.clip_lo, args.clip_hi),
    )
    return use_cv, econf, nspec


def cmd_fit(args: argparse.Namespace) -> str:
    if not args.input or not args.output:
        raise ConfigError("fit requires --input and --output")
    data = load_csv(args.input)
    k = args.crossfit
    use_cv, econf, nspec = _model(
        args, data.p, k_folds=k or 2, cv_folds=args.cv_folds,
        lambda_grid=_parse_grid(args.lambda_grid),
    )
    method = args.method
    if use_cv and method != "earl":
        raise ConfigError("--lambda cv is supported by --method earl only")
    if k and method != "earl":
        raise ConfigError("--crossfit is supported by --method earl only")
    if method == "qlearning":
        # a Q-learning fit reads neither flag, so only their declared
        # defaults (not a config file's) are accepted
        declared = _command_parser(_build_parser(), "fit")
        if get_loss(econf.loss) != get_loss(declared.get_default("loss")):
            raise ConfigError("--loss is not used by --method qlearning")
        if econf.lam != _parse_lambda(declared.get_default("lam"))[1]:
            raise ConfigError("--lambda is not used by --method qlearning")
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
    else:
        if method == "qlearning" and nspec.outcome_map is None:
            raise ConfigError("qlearning requires outcome features")
        # the artifact's Q-model is null: OWL uses none, and a Q-learning
        # rule already encodes the contrast
        prop, out = nspec.fit_propensity(data), None
        if method == "owl":
            rule, lam_used, loss_used = owl_fit(data, prop, econf).rule, econf.lam, econf.loss
        else:
            rule, lam_used, loss_used = qlearning_fit(data, nspec.outcome_map).rule, 0.0, None
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
    return _dump_json(artifact)


def cmd_evaluate(args: argparse.Namespace) -> str:
    if not args.input or not args.rule:
        raise ConfigError("evaluate requires --input and --rule")
    data = load_csv(args.input)
    artifact = _read_json(args.rule, DataError, "rule artifact")
    if not isinstance(artifact, dict):
        raise DataError(f"rule artifact {args.rule} must hold a JSON object")
    try:
        rule = _rule_from_json(artifact["rule"])
        prop = _propensity_from_json(artifact["propensity"])
        out = _outcome_from_json(artifact.get("outcome"))
    except KeyError as exc:
        raise DataError(f"rule artifact {args.rule} has no key {exc}") from None
    except (TypeError, ValueError, EarlError) as exc:
        raise DataError(f"rule artifact {args.rule} is malformed: {exc}") from None
    for what, model in (("rule", rule), ("propensity model", prop), ("outcome model", out)):
        if model is not None and model.feature_map.p != data.p:
            raise DataError(
                f"rule artifact {args.rule}: the {what} has covariate dimension "
                f"{model.feature_map.p}, the data {args.input} have {data.p}"
            )
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
    return _dump_json(report)


def _split_csv(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _int_list(text, flag: str, hi: int | None = None) -> list[int]:
    """The integers of a comma-separated list flag. An entry that is not
    an integer (or, given hi, not in 1..hi) and an empty list are
    ConfigErrors naming the flag."""
    span = "" if hi is None else f" in 1..{hi}"
    values = []
    for tok in _split_csv(text):
        try:
            v = int(tok)
        except ValueError:
            v = None
        if v is None or (hi is not None and not 1 <= v <= hi):
            raise ConfigError(f"{flag} entry {tok!r} is not an integer{span}")
        values.append(v)
    if not values:
        raise ConfigError(f"{flag} lists no integers{span}, got {text!r}")
    return values


def cmd_simulate(args: argparse.Namespace) -> str:
    if not args.output:
        raise ConfigError("simulate requires --output")
    seed = _seed(args)
    use_cv, lam = _parse_lambda(args.lam)
    if use_cv:
        raise ConfigError("simulate needs a fixed --lambda; choose lambda by CV with --select cv")
    results = run_experiment(
        scenarios=_int_list(args.scenarios, "--scenarios"),
        specs=_split_csv(args.specs),
        methods=_split_csv(args.methods),
        n_grid=_int_list(args.n_grid, "--n-grid"),
        replicates=args.replicates,
        seed=seed,
        validation_draws=args.validation_draws,
        threads=args.threads,
        earl_config=EarlConfig(lam=lam),
        select=args.select,
    )
    buf = io.StringIO()
    write_results_csv(results, buf, timings=args.timings)
    return buf.getvalue()


def cmd_permtest(args: argparse.Namespace) -> str:
    if not args.input or not args.output:
        raise ConfigError("permtest requires --input and --output")
    data = load_csv(args.input)
    use_cv, econf, nspec = _model(args, data.p)
    if use_cv:
        raise ConfigError("permtest needs a fixed --lambda; 'cv' is supported by fit only")

    def pipeline(d):
        return fit_earl_pipeline(d, nspec, econf).fit.rule

    if args.covariates.strip().lower() == "all":
        covs = None
    else:
        covs = [j - 1 for j in _int_list(args.covariates, "--covariates", data.p)]  # 1-based on the CLI
    report = permutation_report(data, pipeline, b=args.b, seed=econf.seed, covariates=covs)
    lines = ["covariate,coefficient,p_value"]
    for e in report.entries:
        lines.append(f"x{e.covariate + 1},{e.coefficient!r},{e.p_value!r}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    """The parser of all four commands; every setting's default lives on its flag."""
    parser = argparse.ArgumentParser(
        prog="earlkit",
        description="Doubly robust individualized treatment rules via convex surrogate relaxation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        sp = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.set_defaults(func=func)
        return sp

    def seed(sp):
        sp.add_argument("--seed", type=int, help="RNG seed; unset means EARL_SEED, else 0")

    def model(sp):
        # the files, seed, surrogate, penalty and nuisance flags fit and permtest share
        sp.add_argument("--input", help="training CSV (header y,a,x1,...,xp)")
        sp.add_argument("--output", help="file to write: the rule artifact JSON or the p-value CSV")
        seed(sp)
        sp.add_argument("--loss", default="logistic", help="hinge | exp | logistic | sqhinge")
        sp.add_argument("--lambda", dest="lam", default="1.0", help="penalty weight; fit also takes 'cv'")
        sp.add_argument(
            "--rule-features", dest="rule_features", default="linear", help="feature map of the rule"
        )
        sp.add_argument(
            "--propensity-features", dest="propensity_features", default="linear",
            help="feature map of the propensity model",
        )
        sp.add_argument(
            "--outcome-features", dest="outcome_features", default="linear*a",
            help="feature map name or 'none'",
        )
        sp.add_argument("--ridge", type=float, default=0.0, help="ridge weight of the propensity fit")
        sp.add_argument("--clip-lo", dest="clip_lo", type=float, default=0.01, help="lower propensity clip")
        sp.add_argument("--clip-hi", dest="clip_hi", type=float, default=0.99, help="upper propensity clip")

    sp = command("fit", cmd_fit, "fit a treatment rule from a CSV file")
    sp.add_argument("--method", choices=["earl", "owl", "qlearning"], default="earl", help="rule estimator")
    model(sp)
    sp.add_argument(
        "--lambda-grid", dest="lambda_grid", default=",".join(map(repr, DEFAULT_LAMBDA_GRID)),
        help="comma-separated grid for cv",
    )
    sp.add_argument("--crossfit", type=int, default=0, help="number of sample-splitting folds K >= 2 (0 = off)")
    sp.add_argument("--cv-folds", dest="cv_folds", type=int, default=10, help="folds of --lambda cv")

    sp = command("evaluate", cmd_evaluate, "evaluate a fitted rule on a CSV file")
    sp.add_argument("--input", help="CSV to evaluate the rule on")
    sp.add_argument("--rule", help="rule artifact JSON from fit")
    sp.add_argument("--output", help="report JSON; unset writes it to stdout")

    sp = command("simulate", cmd_simulate, "run the benchmark grid")
    sp.add_argument("--output", help="results CSV to write")
    seed(sp)
    sp.add_argument("--scenarios", default="2", help="comma-separated scenario ids, e.g. 1,2")
    sp.add_argument("--specs", default="CC", help="comma-separated codes among CC,CI,IC,II")
    sp.add_argument("--methods", default="earl-logistic", help="comma-separated method names")
    sp.add_argument(
        "--n-grid", dest="n_grid", default="200,500,1000,2500", help="comma-separated training sizes"
    )
    sp.add_argument("--replicates", type=int, default=100, help="replicates per grid cell")
    sp.add_argument(
        "--validation-draws", dest="validation_draws", type=int, default=10000,
        help="Monte Carlo draws that score each fitted rule",
    )
    sp.add_argument("--select", choices=["cv", "fixed"], default="cv", help="how EARL records choose lambda")
    sp.add_argument(
        "--lambda", dest="lam", default=repr(DEFAULT_LAMBDA),
        help="fixed penalty weight of OWL and of --select fixed EARL",
    )
    sp.add_argument("--threads", type=int, default=1, help="worker threads over replicates")
    sp.add_argument(
        "--timings",
        action="store_true",
        help="record wall times in the seconds column; left off, identical seeds "
        "give identical bytes",
    )

    sp = command("permtest", cmd_permtest, "permutation test for rule coefficients")
    sp.add_argument("--b", type=int, default=DEFAULT_PERMUTATIONS, help="number of permutations")
    sp.add_argument("--covariates", default="all", help="'all' or comma-separated 1-based indices")
    model(sp)
    return parser


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    return next(a for a in parser._actions if a.dest == "command").choices[command]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's flags go before the command line's, so these win;
            # argparse checks each one's type and choices like any flag's
            i = argv.index(args.command) + 1
            file_flags = _load_config_file(args.config, _command_parser(parser, args.command))
            args = parser.parse_args([*argv[:i], *file_flags, *argv[i:]])
        # each command returns the text it writes; only evaluate may leave
        # --output unset, and the other commands refuse that themselves
        if args.output:
            _atomic_write(args.output, lambda: args.func(args))
        else:
            sys.stdout.write(args.func(args))
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EarlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
