"""The pair summary of tools/bench_pairs.py: medians, IQRs and wins by each metric's better direction."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "ci_coverage", "unit": "ratio", "better": "higher", "bound": 0.1},
]


def _run(**values):
    return {"metrics": {name: {"value": v} for name, v in values.items()}}


def test_summary_counts_wins_by_the_better_direction():
    runs = [
        {"parent": _run(op_p50_ms=p, ops_per_s=1 / p, ci_coverage=0.95),
         "change": _run(op_p50_ms=c, ops_per_s=1 / c, ci_coverage=0.95)}
        for p, c in ((0.5, 0.4), (0.4, 0.45), (0.6, 0.5), (0.5, 0.4))
    ]
    got = bench_pairs.summarize(runs, METRICS)
    for name in ("op_p50_ms", "ops_per_s"):
        assert (got[name]["wins"], got[name]["ties"], got[name]["losses"], got[name]["pairs"]) == (3, 0, 1, 4)
    assert (got["ci_coverage"]["wins"], got["ci_coverage"]["ties"]) == (0, 4)
    assert got["op_p50_ms"]["parent"] == {"median": 0.5, "iqr": pytest.approx(0.05)}
    assert got["op_p50_ms"]["change"]["median"] == pytest.approx(0.425)
    assert got["op_p50_ms"]["bound"] == 0.25 and got["op_p50_ms"]["better"] == "lower"


def test_summary_of_one_pair_and_of_a_missing_metric():
    got = bench_pairs.summarize([{"parent": _run(op_p50_ms=2.0), "change": _run(op_p50_ms=1.0)}], METRICS)
    assert list(got) == ["op_p50_ms"]
    assert got["op_p50_ms"]["parent"] == {"median": 2.0, "iqr": 0.0}


@pytest.mark.parametrize("pairs", [["direction-1e5"], ["direction-1e5=0"], ["direction-1e5=x"]])
def test_bad_pair_counts_are_refused(pairs):
    argv = ["--parent", "HEAD", "--seconds", "1", "--out", "x.json"] + [a for p in pairs for a in ("--pairs", p)]
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(argv)
