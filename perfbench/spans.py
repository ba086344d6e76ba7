"""Span tracer for the benchmark's traced run.

The tracer wraps earlkit's public functions from outside the package. The
modules import each other with ``from .x import y``, so every module binding
of a function is replaced, not only the one in its defining module. While an
op is active each call records a span (name, start, end, parent, op id) in
memory; outside ops the wrappers call straight through. Self time is a
span's duration minus the time its child spans cover.

Public means named in the module's ``__all__``; ``cli`` has none, so its
entry point ``main`` is used. ``losses`` is left unwrapped: its helpers run
once or twice per solver iteration (some 80000 calls per OWL fit), so
wrapping them would swamp the trace, and their time belongs to the solver
that calls them.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

EARL_LOSSES = ("logistic", "exp", "sqhinge", "hinge")
OP = "op"  # the root span the benchmark opens around each op

LAYERS = (
    "cli.main",
    "core.load_csv",
    "core.design",
    "core.dataset",
    "nuisance.fit_propensity",
    "nuisance.fit_outcome",
    "weights.dr_weights",
    "earl.select_lambda",
    *(f"earl.earl_fit.{loss}" for loss in EARL_LOSSES),
    "value.value_aipwe",
    "baselines.aipwe_direct_search",
    "baselines.owl_fit",
    "baselines.qlearning_fit",
    "sim.generate_scenario",
    "sim.oracle",
    "sim.run_experiment",
    "inference.permutation_test",
    "other",  # every other wrapped public function
)
# spans that build design matrices; core.design self time is split by them
DESIGN_PARENTS = (
    "nuisance.fit_propensity",
    "nuisance.fit_outcome",
    "weights.dr_weights",
    *(f"earl.earl_fit.{loss}" for loss in EARL_LOSSES),
    "value.value_aipwe",
    "baselines.aipwe_direct_search",
    "sim.oracle",
    "other",
)
_SKIP_MODULES = ("losses", "__main__")
_ENTRY_POINTS = {"cli": ("main",)}


def _count_design(acc, args, kwargs, r):
    acc["cells"] += r.shape[0] * r.shape[1]


def _count_solver(acc, args, kwargs, r):
    acc["iters"] += r.n_iter
    acc["converged"] += bool(r.converged)


def _count_outcome(acc, args, kwargs, r):
    acc["ridge_fallback"] += bool(r.ridge_fallback)


def _count_select(acc, args, kwargs, r):
    cells = [v for row in r.table for v in row["fold_values"]]
    acc["cv_cells"] += len(cells)
    acc["failed_cells"] += sum(v is None for v in cells)


def _count_search(acc, args, kwargs, r):
    acc["evaluations"] += r.diagnostics["evaluations"]


def _count_experiment(acc, args, kwargs, r):
    acc["failed_records"] += sum(rec.error is not None for rec in r)


_COUNTERS = {
    "core.design": _count_design,
    "nuisance.fit_propensity": _count_solver,
    "nuisance.fit_outcome": _count_outcome,
    "earl.select_lambda": _count_select,
    **{f"earl.earl_fit.{loss}": _count_solver for loss in EARL_LOSSES},
    "baselines.aipwe_direct_search": _count_search,
    "sim.run_experiment": _count_experiment,
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run emits: name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("1/op", "lower")
        out[f"{layer}.self_s"] = ("s/op", "lower")
    out["core.design.cells"] = ("cells/op", "lower")
    for parent in DESIGN_PARENTS:
        out[f"core.design.{parent}.self_s"] = ("s/op", "lower")
    for layer in ("nuisance.fit_propensity", *(f"earl.earl_fit.{loss}" for loss in EARL_LOSSES)):
        out[f"{layer}.iters"] = ("iters/call", "lower")
        out[f"{layer}.converged_ratio"] = ("ratio", "higher")
    out["nuisance.fit_outcome.ridge_fallback"] = ("ratio", "lower")
    out["earl.select_lambda.failed_cells_ratio"] = ("ratio", "lower")
    out["baselines.aipwe_direct_search.evaluations"] = ("1/call", "lower")
    out["sim.run_experiment.failed_records"] = ("1/call", "lower")
    out["inference.permutation_test.dropped"] = ("1/call", "lower")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    out["trace.unaccounted_share"] = ("ratio", "lower")
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1  # id of the active op, -1 outside ops
        self.counts = defaultdict(lambda: defaultdict(int))
        self._undo: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.stack = [len(self.spans)]
        self.spans.append([OP, perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self.stack[0]][2] = perf_counter()
        self.op = -1
        self.stack = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, label, label_of=None, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            name = label if label_of is None else label_of(args, kwargs)
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1], tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            count = counter or _COUNTERS.get(name)
            if count is not None:
                acc = tracer.counts[name]
                acc["returned"] += 1
                count(acc, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function at every earlkit module binding."""
        from earlkit import core, inference, sim

        mods = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "earlkit"]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            if mod.__name__ == "earlkit" or short in _SKIP_MODULES:
                continue
            for attr in getattr(mod, "__all__", _ENTRY_POINTS.get(short, ())):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        wrappers[sim._value_on] = self._wrap(sim._value_on, "sim.oracle")
        earl_fit = sys.modules["earlkit.earl"].earl_fit
        wrappers[earl_fit] = self._wrap(
            earl_fit,
            None,
            label_of=lambda a, kw: "earl.earl_fit." + (a[2] if len(a) > 2 else kw["config"]).loss,
        )
        perm_sig = inspect.signature(inference.permutation_test)

        def count_dropped(acc, args, kwargs, r):
            bound = perm_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            acc["dropped"] += bound.arguments["b"] - r.permutations

        wrappers[inference.permutation_test] = self._wrap(
            inference.permutation_test, "inference.permutation_test", counter=count_dropped
        )
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._set(mod, attr, wrappers[val])
        self._set(core.FeatureMap, "design", self._wrap(core.FeatureMap.design, "core.design"))
        self._set(core.Dataset, "__init__", self._wrap(core.Dataset.__init__, "core.dataset"))
        self._set(core.Dataset, "subset", self._wrap(core.Dataset.subset, "core.dataset"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> tuple[dict[str, float], dict]:
        """Per-layer metrics, per op, and the accounting of op wall time."""
        spans = self.spans
        child = [0.0] * len(spans)
        nest_errors = 0
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                p = spans[parent]
                nest_errors += not (p[1] <= t0 <= t1 <= p[2])
        layer_set, parent_set = set(LAYERS), set(DESIGN_PARENTS)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        design_by_parent = defaultdict(float)
        other = defaultdict(float)
        op_wall = unaccounted = layers_total = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            own = (t1 - t0) - child[i]
            if name == OP:
                op_wall += t1 - t0
                unaccounted += own
                continue
            layer = name if name in layer_set else "other"
            if layer == "other":
                other[name] += own
            calls[layer] += 1
            self_s[layer] += own
            layers_total += own
            if layer == "core.design":
                pname = spans[parent][0]
                design_by_parent[pname if pname in parent_set else "other"] += own

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer] / ops
            m[f"{layer}.self_s"] = self_s[layer] / ops
        for parent in DESIGN_PARENTS:
            m[f"core.design.{parent}.self_s"] = design_by_parent[parent] / ops
        c = self.counts

        def per(layer, key, base=None):
            den = c[layer][base or "returned"]
            return c[layer][key] / den if den else 0.0

        m["core.design.cells"] = c["core.design"]["cells"] / ops
        for layer in ("nuisance.fit_propensity", *(f"earl.earl_fit.{loss}" for loss in EARL_LOSSES)):
            m[f"{layer}.iters"] = per(layer, "iters")
            m[f"{layer}.converged_ratio"] = per(layer, "converged")
        m["nuisance.fit_outcome.ridge_fallback"] = per("nuisance.fit_outcome", "ridge_fallback")
        m["earl.select_lambda.failed_cells_ratio"] = per("earl.select_lambda", "failed_cells", "cv_cells")
        m["baselines.aipwe_direct_search.evaluations"] = per("baselines.aipwe_direct_search", "evaluations")
        m["sim.run_experiment.failed_records"] = per("sim.run_experiment", "failed_records")
        m["inference.permutation_test.dropped"] = per("inference.permutation_test", "dropped")
        m["trace.unaccounted_share"] = unaccounted / op_wall if op_wall else 0.0

        residual = op_wall - (layers_total + unaccounted)
        accounting = {
            "spans": len(spans),
            "op_wall_s": op_wall,
            "layer_self_s": layers_total,
            "unaccounted_s": unaccounted,
            "residual_s": residual,
            "nest_errors": nest_errors,
            "ok": nest_errors == 0 and abs(residual) <= 1e-9 * (1 + len(spans)),
            "other_self_s": dict(sorted(other.items())),
        }
        return m, accounting

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{op}\n")
