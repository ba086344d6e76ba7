"""Shared data model: datasets, treatment coding, feature maps, linear rules.

Treatment is coded -1/+1 everywhere inside the package; 0/1 codings are
remapped at the CSV boundary. The sign convention is sgn(0) = +1 and every
decision rule in the package respects it.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "EarlError",
    "ShapeError",
    "ParseError",
    "DomainError",
    "ConvergenceError",
    "NumericalError",
    "ConfigError",
    "DataError",
    "sgn",
    "stream",
    "Dataset",
    "FeatureMap",
    "LinearRule",
    "apply_rule",
    "load_csv",
    "save_csv",
]


class EarlError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(EarlError):
    """An input has the wrong dimension or length."""


class ParseError(EarlError):
    """A data file could not be parsed."""


class DomainError(EarlError):
    """A numeric argument lies outside its valid domain."""


class ConvergenceError(EarlError):
    """An iterative fit failed to converge."""


class NumericalError(EarlError):
    """A numerical operation failed (singular system, non-finite value)."""


class ConfigError(EarlError):
    """Invalid configuration."""


class DataError(EarlError):
    """The data does not support the requested operation."""


def _integer(name: str, value) -> int:
    """value as an int, if it is a Python or numpy integer; else a
    ConfigError naming it, where int() would truncate it or range() fail on
    it far from the call."""
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def sgn(v):
    """Sign with sgn(0) = +1. Preserves scalar/array shape of the input."""
    out = np.where(np.asarray(v, dtype=float) >= 0.0, 1, -1)
    return int(out) if out.ndim == 0 else out


def stream(*keys) -> np.random.Generator:
    """Deterministic RNG derived from a tuple of integer or string keys.

    String keys are hashed with crc32 so task names can seed substreams.
    """
    ints = []
    for k in keys:
        if isinstance(k, str):
            ints.append(zlib.crc32(k.encode("utf-8")))
        else:
            ints.append(int(k) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(ints)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable table of covariates X (n x p), treatment A in {-1,+1}, outcome Y.

    Higher Y is better. Arrays are copied on construction and marked
    read-only, so a Dataset can be shared freely across threads.
    """

    X: np.ndarray
    A: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        A = np.asarray(self.A)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2:
            raise ShapeError(f"X must be 2-d, got ndim={X.ndim}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise DataError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
        if A.shape != (n,) or Y.shape != (n,):
            raise ShapeError(
                f"A and Y must have shape ({n},), got {A.shape} and {Y.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise DataError("X contains non-finite values")
        if not np.all(np.isfinite(Y)):
            raise DataError("Y contains non-finite values")
        Af = np.asarray(A, dtype=float)
        if not np.all((Af == 1.0) | (Af == -1.0)):
            bad = Af[~np.isin(Af, (-1.0, 1.0))][0]
            raise DataError(f"treatment entries must be -1 or +1, got {bad}")
        object.__setattr__(self, "X", _frozen_array(X, float))
        object.__setattr__(self, "A", _frozen_array(Af, np.int64))
        object.__setattr__(self, "Y", _frozen_array(Y, float))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        """New Dataset holding the given rows, in the given order."""
        idx = np.asarray(indices)
        return Dataset(self.X[idx], self.A[idx], self.Y[idx])


def _rows(Z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The rows of the column-major design Z where mask holds, as one
    column-major copy (Z[mask] would be row-major)."""
    return np.compress(mask, Z.T, axis=1).T


# Feature map terms. Each term is a tuple whose first entry names the kind:
#   ("1",)        intercept (always first when present)
#   ("x", j)      raw covariate j (0-based)
#   ("x2", j)     squared covariate
#   ("xx", i, j)  pairwise product, i < j
#   ("a",)        treatment main effect
#   ("ax", j)     treatment-by-covariate product
# _TERM_ARITY maps each kind to the number of indices that follow it.
_TERM_ARITY = {"1": 0, "x": 1, "x2": 1, "xx": 2, "a": 0, "ax": 1}


@dataclass(frozen=True)
class FeatureMap:
    """Ordered list of feature constructors over x, or over (x, a).

    Applying the map to any length-p input yields a vector of fixed length
    q = len(terms).
    """

    p: int
    terms: tuple[tuple, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError(f"feature map needs p >= 1, got {self.p}")
        terms = tuple(tuple(t) for t in self.terms)
        seen = set()
        for pos, t in enumerate(terms):
            if not t:
                raise ConfigError("a feature term may not be empty")
            kind = t[0]
            if not isinstance(kind, str) or kind not in _TERM_ARITY:
                raise ConfigError(f"unknown feature term kind {kind!r}")
            if len(t) != 1 + _TERM_ARITY[kind]:
                raise ConfigError(f"feature term {t} needs {_TERM_ARITY[kind]} covariate index(es)")
            if kind == "1" and pos != 0:
                raise ConfigError("the intercept term must come first")
            idxs = t[1:]
            for j in idxs:
                if not (0 <= int(j) < self.p):
                    raise ConfigError(f"feature term {t} out of range for p={self.p}")
            if kind == "xx" and not t[1] < t[2]:
                raise ConfigError(f"product term {t} must have i < j")
            if t in seen:
                raise ConfigError(f"duplicate feature term {t}")
            seen.add(t)
        object.__setattr__(self, "terms", terms)

    @property
    def q(self) -> int:
        return len(self.terms)

    @cached_property
    def uses_treatment(self) -> bool:
        """Whether a term involves the treatment; every design call and
        every model and rule constructor asks, so it is found once per map."""
        return any(t[0] in ("a", "ax") for t in self.terms)

    @property
    def has_intercept(self) -> bool:
        return bool(self.terms) and self.terms[0][0] == "1"

    @cached_property
    def _with_intercept(self) -> "FeatureMap":
        """This map, which has no intercept term, with one in front: every
        rule fit asks for it, so it is built once per map (a frozen
        dataclass still caches into its instance __dict__)."""
        return FeatureMap(self.p, (("1",),) + self.terms)

    def design(self, X, A=None) -> np.ndarray:
        """n x q design matrix for covariates X and (if needed) treatments A.

        The matrix is column-major (Fortran order): each term's column is
        contiguous, which is how the BLAS products Z @ b, Z.T @ r and
        Z.T @ (w[:, None] * Z) read it fastest.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        n, p = X.shape
        if p != self.p:
            raise ShapeError(f"expected covariate dimension {self.p}, got {p}")
        if self.uses_treatment:
            if A is None:
                raise ShapeError("feature map uses treatment but A was not given")
            A = np.asarray(A, dtype=float).reshape(-1)
            if A.shape[0] != n:
                raise ShapeError(f"A has length {A.shape[0]}, expected {n}")
        # each term is written straight into its contiguous column: one pass
        # per term and no per-term temporary, holding the values of the
        # np.column_stack of the terms
        out = np.empty((n, len(self.terms)), order="F")
        for k, t in enumerate(self.terms):
            kind, col = t[0], out[:, k]
            if kind == "1":
                col[...] = 1.0
            elif kind == "x":
                col[...] = X[:, t[1]]
            elif kind == "x2":
                np.square(X[:, t[1]], out=col)
            elif kind == "xx":
                np.multiply(X[:, t[1]], X[:, t[2]], out=col)
            elif kind == "a":
                col[...] = A
            else:  # "ax"
                np.multiply(A, X[:, t[1]], out=col)
        return out

    def features(self, x, a=None) -> np.ndarray:
        """Feature vector for a single subject."""
        x = np.asarray(x, dtype=float).reshape(-1)
        A = None if a is None else np.asarray([a], dtype=float)
        return self.design(x[None, :], A)[0]

    def labels(self) -> list[str]:
        """Human-readable term names, 1-based to match the CSV convention."""
        out = []
        for t in self.terms:
            kind = t[0]
            if kind == "1":
                out.append("intercept")
            elif kind == "x":
                out.append(f"x{t[1] + 1}")
            elif kind == "x2":
                out.append(f"x{t[1] + 1}^2")
            elif kind == "xx":
                out.append(f"x{t[1] + 1}:x{t[2] + 1}")
            elif kind == "a":
                out.append("a")
            else:
                out.append(f"a:x{t[1] + 1}")
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def intercept_only(cls, p: int) -> "FeatureMap":
        return cls(p, (("1",),))

    @classmethod
    def linear(cls, p: int, intercept: bool = True) -> "FeatureMap":
        terms = ([("1",)] if intercept else []) + [("x", j) for j in range(p)]
        return cls(p, tuple(terms))

    @classmethod
    def linear_interactions(cls, p: int, intercept: bool = True) -> "FeatureMap":
        terms = ([("1",)] if intercept else []) + [("x", j) for j in range(p)]
        terms += [("xx", i, j) for i in range(p) for j in range(i + 1, p)]
        return cls(p, tuple(terms))

    @classmethod
    def quadratic(cls, p: int, intercept: bool = True) -> "FeatureMap":
        terms = ([("1",)] if intercept else []) + [("x", j) for j in range(p)]
        terms += [("x2", j) for j in range(p)]
        return cls(p, tuple(terms))

    def with_treatment(self, coords: Sequence[int] | None = None) -> "FeatureMap":
        """Add a treatment main effect and treatment-by-covariate products."""
        coords = range(self.p) if coords is None else coords
        terms = list(self.terms) + [("a",)] + [("ax", int(j)) for j in coords]
        return FeatureMap(self.p, tuple(terms))

    @classmethod
    def from_name(cls, name: str, p: int, intercept: bool = True) -> "FeatureMap":
        """Build a map from a config string.

        Accepted names, in any case: "intercept", "linear",
        "linear+interactions", "quadratic"; an optional "*a" suffix crosses
        the map with treatment (main effect plus products with every raw
        covariate).
        """
        base = name.strip().lower()
        cross = base.endswith("*a")
        if cross:
            base = base[:-2]
        if base == "intercept":
            fm = cls.intercept_only(p)
        elif base == "linear":
            fm = cls.linear(p, intercept=intercept)
        elif base == "linear+interactions":
            fm = cls.linear_interactions(p, intercept=intercept)
        elif base == "quadratic":
            fm = cls.quadratic(p, intercept=intercept)
        else:
            raise ConfigError(f"unknown feature map name {name!r}")
        return fm.with_treatment() if cross else fm

    def to_jsonable(self) -> dict:
        return {"p": self.p, "terms": [list(t) for t in self.terms]}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "FeatureMap":
        return cls(int(obj["p"]), tuple(tuple(t) for t in obj["terms"]))


@dataclass(frozen=True)
class LinearRule:
    """Decision rule d(x) = sgn{f(x)} with f(x) = beta0 + beta' features(x).

    The feature map is over x only and carries no intercept term; beta0
    plays that role.
    """

    beta0: float
    beta: np.ndarray
    feature_map: FeatureMap

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).reshape(-1)
        if self.feature_map.uses_treatment:
            raise ConfigError("a rule's feature map may not use treatment terms")
        if self.feature_map.has_intercept:
            raise ConfigError("a rule's feature map may not carry an intercept; use beta0")
        if beta.shape[0] != self.feature_map.q:
            raise ShapeError(
                f"beta has length {beta.shape[0]}, feature map has {self.feature_map.q} terms"
            )
        if not (np.isfinite(self.beta0) and np.all(np.isfinite(beta))):
            raise DataError("rule coefficients must be finite")
        object.__setattr__(self, "beta0", float(self.beta0))
        object.__setattr__(self, "beta", _frozen_array(beta, float))

    @classmethod
    def raw(cls, beta0: float, beta) -> "LinearRule":
        """Rule linear in the raw covariates, one coefficient each."""
        beta = np.asarray(beta, dtype=float).reshape(-1)
        return cls(beta0, beta, FeatureMap.linear(beta.shape[0], intercept=False))

    @property
    def p(self) -> int:
        return self.feature_map.p

    def scores(self, X) -> np.ndarray:
        """f(x) for each row of X."""
        Z = self.feature_map.design(X)
        return self.beta0 + Z @ self.beta

    def score(self, x) -> float:
        return float(self.scores(np.asarray(x, dtype=float)[None, :])[0])

    def decide_many(self, X) -> np.ndarray:
        return sgn(self.scores(X))

    def decide(self, x) -> int:
        return sgn(self.score(x))

    def coefficient(self, j: int) -> float:
        """Coefficient on raw covariate j, or 0.0 if the map has no such term."""
        for pos, t in enumerate(self.feature_map.terms):
            if t == ("x", j):
                return float(self.beta[pos])
        return 0.0


def apply_rule(rule: LinearRule, x) -> int:
    """Treatment recommended by the rule for one subject; +1 when f(x) = 0."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != rule.p:
        raise ShapeError(f"x has dimension {x.shape[0]}, rule expects {rule.p}")
    return rule.decide(x)


def _csv_header(p: int) -> list[str]:
    return ["y", "a"] + [f"x{j}" for j in range(1, p + 1)]


def _body_rows(body: str):
    """(line number, cells) of each non-blank CSV row; the header is row 1."""
    for line_no, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if row and not (len(row) == 1 and row[0].strip() == ""):
            yield line_no, row


def _parse_rows(path, body: str, expected: list[str]) -> np.ndarray:
    """Parse the CSV body cell by cell with float(), skipping blank lines;
    a malformed row or a non-numeric or non-finite cell is a ParseError
    naming its row and column."""
    rows = []
    for line_no, row in _body_rows(body):
        if len(row) != len(expected):
            raise ParseError(
                f"{path}: row {line_no} has {len(row)} fields, expected {len(expected)}"
            )
        vals = []
        for name, cell in zip(expected, row):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric value {cell!r} at row {line_no}, column '{name}'"
                ) from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{path}: non-finite value {cell!r} at row {line_no}, column '{name}'"
                )
            vals.append(v)
        rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with header y,a,x1,...,xp.

    The treatment column must hold -1/1, or 0/1 which is remapped to -1/+1
    with a warning. Any non-numeric or non-finite cell is a parse error
    naming the row and column. The body is parsed by numpy's C reader;
    where that fails, or finds a non-finite cell, it is re-read cell by
    cell to report the error. A file that cannot be opened is a data error;
    one that is not UTF-8 text is a parse error. A leading UTF-8 byte-order
    mark, which Excel's "CSV UTF-8" writes, is skipped.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    with fh:
        try:
            row = next(csv.reader(fh), None)
            body = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    if row is None:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in row]
    lowered = [h.lower() for h in header]
    for required in ("y", "a"):
        if required not in lowered:
            raise ParseError(f"{path}: missing column '{required}'")
    p = len(header) - 2
    if p < 1:
        raise ParseError(f"{path}: header must be y,a,x1,...,xp with p >= 1")
    expected = _csv_header(p)
    if lowered != expected:
        missing = [c for c in expected if c not in lowered]
        if missing:
            raise ParseError(f"{path}: missing column '{missing[0]}'")
        raise ParseError(
            f"{path}: header must be {','.join(expected)}, got {','.join(header)}"
        )
    arr = None
    if body.strip():
        try:
            arr = np.loadtxt(body.split("\n"), delimiter=",", quotechar='"', ndmin=2, comments=None)
        except ValueError:
            pass
    if arr is None or arr.shape[1] != len(expected) or not np.all(np.isfinite(arr)):
        arr = _parse_rows(path, body, expected)
    y, a, X = arr[:, 0], arr[:, 1], arr[:, 2:]
    vals = set(np.unique(a).tolist())
    if vals <= {-1.0, 1.0}:
        pass
    elif vals <= {0.0, 1.0}:
        warnings.warn("treatment column coded 0/1; remapping 0 -> -1", stacklevel=2)
        a = np.where(a == 0.0, -1.0, 1.0)
    else:
        # the column fits neither coding, so some row is the first to leave
        # both; arr holds the body's non-blank rows in order
        seen = set()
        for (line_no, _), v in zip(_body_rows(body), a.tolist()):
            seen.add(v)
            if not (seen <= {-1.0, 1.0} or seen <= {0.0, 1.0}):
                raise ParseError(
                    f"{path}: row {line_no}, column 'a': treatment must be all -1/1 or all 0/1, got {v}"
                )
    return Dataset(X, a, y)


def save_csv(data: Dataset, path) -> None:
    """Write a dataset so that load_csv round-trips it bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(data.p))
        for i in range(data.n):
            row = [repr(float(data.Y[i])), str(int(data.A[i]))]
            row += [repr(float(v)) for v in data.X[i]]
            writer.writerow(row)
