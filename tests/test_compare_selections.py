import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

import earlkit.earl as earl_mod

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_selections.py"
_SPEC = importlib.util.spec_from_file_location("compare_selections", _PATH)
compare_selections = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_selections)


def _call(name, lam=0.5, cells=((1.0, 2.0), (3.0, None)), fallback=()):
    """One call's record as the --emit side prints it."""
    cells = [list(row) for row in cells]
    return {
        "id": name,
        "lambda": lam,
        "table": repr(cells),
        "cells": cells,
        "fallback_splits": list(fallback),
    }


def _failed(name, error="DataError: no"):
    return {"id": name, "error": error, "fallback_splits": []}


def _summary(capsys) -> dict[str, str]:
    """The printed summary, each 'label: value' line keyed by its label."""
    lines = capsys.readouterr().out.splitlines()
    return dict(line.strip().split(": ", 1) for line in lines if ": " in line)


def test_identical_calls_return_0_and_count_every_cell_identical(capsys):
    old = [_call("a"), _call("b", lam=2.0), _failed("c")]
    new = [_call("a"), _call("b", lam=2.0), _failed("c")]
    assert compare_selections.compare(old, new) == 0
    s = _summary(capsys)
    assert s["equal selected lambda"] == "2"
    assert s["failed on both sides"] == "1 (same error: 1)"
    assert s["lambda differs or fails on one side only"] == "0"
    assert s["tables repr-identical"] == "2 of 2"
    assert s["fold cells"] == "8"
    assert s["identical"] == "8"
    assert s["within 1e-12 relative"] == "0" and s["further apart"] == "0"


def test_a_differing_selected_lambda_returns_1(capsys):
    assert compare_selections.compare([_call("a", lam=0.5)], [_call("a", lam=1.0)]) == 1
    out = capsys.readouterr().out
    assert "selected lambda differs: a: 0.5 vs 1.0" in out


def test_a_call_failing_on_one_side_only_returns_1(capsys):
    assert compare_selections.compare([_call("a")], [_failed("a")]) == 1
    s = _summary(capsys)
    assert s["fails on one side only"] == "a: DataError: no"
    assert s["lambda differs or fails on one side only"] == "1"
    assert compare_selections.compare([_failed("a")], [_call("a")]) == 1


def test_a_far_cell_counts_as_unexplained_only_where_no_split_fell_back(capsys):
    old = [_call("a", fallback=[1]), _call("b")]
    # a's far cell is in split (column) 1, which took the ridge fallback;
    # b's is in split 0 of a call where no split did
    new = [_call("a", cells=((1.0, 2.5), (3.0, None)), fallback=[1]),
           _call("b", cells=((1.0 + 1e-9, 2.0), (3.0, None)))]
    assert compare_selections.compare(old, new) == 0  # the selected lambdas agree
    s = _summary(capsys)
    assert s["further apart"] == "2"
    assert s["cells beyond 1e-12 relative in splits with no ridge-fallback fit"] == "1"
    assert s["tables repr-identical"] == "0 of 2"
    within = [_call("c", cells=((1.0 + 1e-15, 2.0), (3.0, None)))]
    compare_selections.compare([_call("c")], within)
    s = _summary(capsys)
    assert s["within 1e-12 relative"] == "1" and s["further apart"] == "0"


def test_emit_fails_without_the_selection_record(monkeypatch, capsys):
    # the ridge-fallback splits are read from the selection; a tree whose
    # LambdaSelection lacks the record must fail rather than report none
    @dataclass(frozen=True)
    class LambdaSelection:
        lambda_: float
        table: tuple

    monkeypatch.setattr(earl_mod, "LambdaSelection", LambdaSelection)
    with pytest.raises(SystemExit, match="LambdaSelection has no ridge_fallback_splits"):
        compare_selections.emit()
    assert capsys.readouterr().out == ""


def test_emit_records_no_fallback_split_for_a_failing_call(monkeypatch, capsys):
    # every split of this call fails in its cross-fitting setup, after
    # outcome fits in it have fallen back and warned
    monkeypatch.setattr(compare_selections, "_calls", lambda: iter([(3, 200, "logistic", True)]))
    compare_selections.emit()
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert "every cross-validated value was non-finite" in record["error"]
    assert record["fallback_splits"] == []
