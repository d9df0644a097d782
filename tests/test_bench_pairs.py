"""The pair summary and the argument checks of tools/bench_pairs.py.

The tool is a script outside the package, so it is loaded from its
file; neither test runs a benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("_bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_summary_counts_pairs_with_equal_checksums():
    spec = [{"name": "op_s_p50", "better": "lower"},
            {"name": "samples_per_s", "better": "higher"}]
    entry = {"parent": {"op_s_p50": [2.0, 2.0, 2.0, 2.0],
                        "samples_per_s": [5.0, 5.0, 5.0, 5.0],
                        "checksums": ["a", "b", "c", "d"]},
             "change": {"op_s_p50": [1.0, 3.0, 1.5, 2.0],
                        "samples_per_s": [6.0, 4.0, 5.0, 7.0],
                        "checksums": ["a", "x", "c", "d"]}}
    out = _tool().summarize(entry, spec)
    assert out["checksums_equal"] == 3
    assert out["op_s_p50"]["change_better"] == 2
    assert out["op_s_p50"]["change_median"] == 1.75
    assert out["samples_per_s"]["change_better"] == 2
    assert out["samples_per_s"]["pairs"] == 4


@pytest.mark.parametrize("pairs", [["importance-wdie=1"],
                                   ["scaling-free=1", "tails=1"]])
def test_unknown_workload_exits_two_before_anything_runs(tmp_path, capsys,
                                                         monkeypatch, pairs):
    tool = _tool()

    def ran(*args, **kwargs):
        raise AssertionError("the tool ran a command")

    monkeypatch.setattr(tool.subprocess, "run", ran)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--out", str(out), "--base", "HEAD", "--pairs", *pairs])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err and "importance-wide" in err
    assert not out.exists()
