import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _run(ops, p50, digest="d", correct=True):
    return {"correct": correct, "metrics": {"ops_per_s": ops, "op_p50_s": p50}, "digest": digest}


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_summary_counts_wins_by_each_metrics_direction():
    pairs = [
        (_run(1.0, 0.5), _run(2.0, 0.4)),
        (_run(2.0, 0.5), _run(3.0, 0.5)),  # a tie on op_p50_s counts for neither side
        (_run(3.0, 0.5), _run(4.0, 0.6)),
        (_run(4.0, 0.5), _run(3.5, 0.3)),
        (_run(5.0, 0.5), _run(6.0, 0.2, digest="e")),
    ]
    s = bench_pairs.summarize(END_TO_END, pairs)
    ops, p50 = s["metrics"]
    assert ops["parent"] == (2.0, 3.0, 4.0) and ops["change"] == (3.0, 3.5, 4.0)
    assert (ops["wins"], ops["losses"]) == (4, 1)
    assert ops["parent_iqr"] == 2.0 and not ops["beyond_iqr"]
    assert (p50["wins"], p50["losses"]) == (3, 1)
    assert p50["parent_iqr"] == 0.0 and p50["beyond_iqr"]  # median 0.5 -> 0.4, lower is better
    assert s["digests_equal"] == 4 and s["incorrect_runs"] == 0
    lines = bench_pairs.format_summary(s)
    assert lines[-2:] == ["digests equal in 4 of 5 pairs", "runs not correct: 0 of 10"]
    assert lines[1].startswith("ops_per_s") and " 4/5 " in lines[1] and " no (1 losses" in lines[1]


def test_summary_claims_a_gain_only_with_nine_tenths_of_wins_beyond_the_iqr():
    pairs = [(_run(10.0 + i % 2, 1.0), _run(13.0, 1.0)) for i in range(10)]
    s = bench_pairs.summarize(END_TO_END, pairs)
    ops = s["metrics"][0]
    assert ops["wins"] == 10 and ops["beyond_iqr"]
    assert " yes (0 losses" in bench_pairs.format_summary(s)[1]
    pairs[0] = (_run(14.0, 1.0), _run(13.0, 1.0))
    pairs[1] = (_run(14.0, 1.0), _run(13.0, 1.0))
    lost = bench_pairs.format_summary(bench_pairs.summarize(END_TO_END, pairs))[1]
    assert " 8/10 " in lost and " no (2 losses" in lost


@pytest.mark.parametrize("change_ops,change_p50,verdicts", [
    (7.0, 1.0, ("yes", "unresolved")),
    (7.5, 1.0, ("no", "unresolved")),  # exactly 25% worse is within the bound
    (12.0, 0.4, ("no", "no")),  # every change run beats every parent run
])
def test_summary_applies_each_metrics_bound_to_the_parent_median(change_ops, change_p50, verdicts):
    # ops_per_s: parent median 10 with an IQR of 0, so a median below 7.5 is
    # worse beyond the 25% bound; op_p50_s: parent IQR 0.5 over a median of 1
    parent = [(10.0, 0.5), (9.5, 0.75), (10.0, 1.0), (10.5, 1.25), (10.0, 1.5)]
    pairs = [(_run(ops, p50), _run(change_ops, change_p50)) for ops, p50 in parent]
    s = bench_pairs.summarize(END_TO_END, pairs)
    assert s["metrics"][0]["parent"] == (10.0, 10.0, 10.0)
    assert tuple(r["worse_beyond_bound"] for r in s["metrics"]) == verdicts
    lines = bench_pairs.format_summary(s)
    for line, verdict in zip(lines[1:3], verdicts):
        assert line.endswith(f"; worse beyond the 25% bound: {verdict}")


def test_summary_counts_runs_that_are_not_correct():
    pairs = [(_run(1.0, 1.0), _run(1.0, 1.0, correct=False)), (_run(1.0, 1.0), _run(1.0, 1.0))]
    assert bench_pairs.summarize(END_TO_END, pairs)["incorrect_runs"] == 1


def test_main_needs_two_pairs():
    with pytest.raises(SystemExit):
        bench_pairs.main(["a", "b", "--workload", "permtest", "--seed", "1", "--pairs", "1"])


_FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
tag = Path("tag").read_text()
with open("../order.log", "a") as fh:
    fh.write(tag + "\\n")
out = Path(".perfbench_out")
out.mkdir(exist_ok=True)
name = f"report-{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
(out / name).write_text(json.dumps({"worker": {"digest": "abc"}}))
ops = 2.0 if tag == "change" else 1.0
print("perfbench fake run")
print(json.dumps({"correct": tag == "change" or args["--seconds"] == "0",
                  "metrics": {"ops_per_s": {"value": ops}, "op_p50_s": {"value": 1.0 / ops}}}))
'''


def _fake_trees(tmp_path, seconds) -> list[str]:
    """A parent and a change tree whose benchmark command is _FAKE_RUN."""
    for tag in ("parent", "change"):
        tree = tmp_path / tag
        tree.mkdir()
        (tree / "tag").write_text(tag)
        (tree / "run.py").write_text(_FAKE_RUN)
        (tree / "BENCHMARK.json").write_text(json.dumps(
            {"command": [sys.executable, "run.py"], "run_seconds": seconds, "end_to_end": END_TO_END}))
    return [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--seed", "3"]


@pytest.mark.parametrize("seconds,status", [(0, 0), (1, 1)])
def test_main_alternates_the_trees_and_fails_on_an_incorrect_run(tmp_path, capsys, seconds, status):
    argv = [*_fake_trees(tmp_path, seconds), "--pairs", "3"]
    assert bench_pairs.main(argv) == status
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "digests equal in 3 of 3 pairs" in out
    assert f"runs not correct: {3 * seconds} of 6" in out


def test_main_byte_compiles_each_trees_src_once_before_the_first_pair(tmp_path, monkeypatch):
    compiled = []

    def compile_dir(path, **kwargs):
        assert not (tmp_path / "order.log").exists()  # no run has started
        compiled.append(path)
        return True

    monkeypatch.setattr(bench_pairs.compileall, "compile_dir", compile_dir)
    assert bench_pairs.main([*_fake_trees(tmp_path, 0), "--pairs", "2"]) == 0
    assert sorted(compiled) == [tmp_path / "change" / "src", tmp_path / "parent" / "src"]
