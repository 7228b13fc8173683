"""tools/bench_pairs.py: medians, IQRs, paired ratios and wins by each metric's better direction, failed runs (an
error exit, no JSON result line, a result that is not correct or has failed ops) and source sizes."""

import importlib.util
import json
import shutil
import subprocess
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


def test_ratio_p50_is_the_median_of_paired_ratios():
    runs = [{"parent": _run(op_p50_ms=p), "change": _run(op_p50_ms=c)}
            for p, c in ((10.0, 9.0), (12.0, 10.2), (11.0, 8.8), (9.0, 9.9))]
    got = bench_pairs.summarize(runs, METRICS)["op_p50_ms"]
    assert got["ratio_p50"] == pytest.approx(0.875)  # ratios 0.9, 0.85, 0.8 and 1.1
    assert got["change"]["median"] / got["parent"]["median"] == pytest.approx(0.9)


def test_a_failed_run_keeps_the_other_pairs(tmp_path, monkeypatch):
    results = iter([_run(op_p50_ms=1.0), _run(op_p50_ms=0.9),
                    {"exit_code": 2, "stderr_tail": ["Traceback", "boom"]}, _run(op_p50_ms=1.2),
                    _run(op_p50_ms=1.1), _run(op_p50_ms=1.0)])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: next(results))
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--pairs", "direction-1e5=3", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    report = json.loads(out.read_text())["workloads"]["direction-1e5"]
    assert report["failed_pairs"] == 1
    # pair 2 runs the change first, so its change side is the failed run
    assert report["runs"][1]["change"] == {"exit_code": 2, "stderr_tail": ["Traceback", "boom"]}
    assert report["runs"][1]["parent"]["metrics"]["op_p50_ms"]["value"] == 1.2
    got = report["metrics"]["op_p50_ms"]
    assert (got["pairs"], got["wins"], got["losses"]) == (2, 2, 0)
    assert got["ratio_p50"] == pytest.approx((0.9 + 1.0 / 1.1) / 2)
    assert list(report["metrics"]) == ["op_p50_ms"]


def test_a_failing_run_gives_its_exit_code_and_stderr_tail(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nfor i in range(25):\n    print('line', i, file=sys.stderr)\nsys.exit(3)\n")
    got = bench_pairs.run_once(tmp_path, "direction-1e5", 1, 1.0)
    assert got == {"exit_code": 3, "stderr_tail": [f"line {i}" for i in range(5, 25)]}


@pytest.mark.parametrize("stdout", ["", "done\n", '{"correct": true}\nnot json\n', "[1, 2]\n", "null\n"])
def test_a_run_without_a_json_result_line_gives_its_stdout_tail(tmp_path, stdout):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\nfor i in range(25):\n    print('line', i)\nsys.stdout.write({stdout!r})\n")
    got = bench_pairs.run_once(tmp_path, "direction-1e5", 1, 1.0)
    assert got == {"exit_code": 0, "stdout_tail": ([f"line {i}" for i in range(25)] + stdout.splitlines())[-20:]}
    assert bench_pairs.failed({"parent": _run(op_p50_ms=1.0), "change": got})


@pytest.mark.parametrize("bad", [{"correct": False, "failed": 0}, {"correct": True, "failed": 2}])
def test_a_result_that_is_not_correct_or_has_failed_ops_fails_its_pair(tmp_path, monkeypatch, bad):
    good = {"correct": True, "attempted": 9, "failed": 0}
    wrong = {**_run(op_p50_ms=0.5), "attempted": 9, **bad}
    results = iter([{**_run(op_p50_ms=1.0), **good}, {**_run(op_p50_ms=0.9), **good},
                    wrong, {**_run(op_p50_ms=1.2), **good},
                    {**_run(op_p50_ms=1.1), **good}, {"exit_code": 0, "stdout_tail": ["no result"]}])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: next(results))
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--pairs", "direction-1e5=3", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    report = json.loads(out.read_text())["workloads"]["direction-1e5"]
    assert report["failed_pairs"] == 2
    # pair 2 runs the change first, so its change side is the result that failed; pair 3's change gave no result
    assert report["runs"][1]["change"] == wrong
    assert report["runs"][2]["change"] == {"exit_code": 0, "stdout_tail": ["no result"]}
    got = report["metrics"]["op_p50_ms"]
    assert (got["pairs"], got["wins"], got["change"]["median"]) == (1, 1, 0.9)


def _tree(root: Path, files: dict) -> Path:
    (root / "src" / "singlet_frame" / "sub").mkdir(parents=True)
    for name, text in files.items():
        (root / "src" / "singlet_frame" / name).write_text(text)
    return root


def test_src_lines_of_each_tree(tmp_path, monkeypatch):
    # wc -l counts LFs: a last line without one is not counted; other files and subdirectories are not read
    parent = _tree(tmp_path / "parent", {"a.py": "x\ny\n", "b.py": "z\n", "notes.txt": "1\n", "sub/c.py": "3\n"})
    change = _tree(tmp_path / "change", {"a.py": "x\n", "b.py": "no final newline"})
    shutil.copy(bench_pairs.ROOT / "BENCHMARK.json", change)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, dest: shutil.copytree(parent, dest, dirs_exist_ok=True))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: _run(op_p50_ms=1.0))
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--pairs", "direction-1e5=1", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert (report["parent"]["src_lines"], report["change"]["src_lines"]) == (3, 1)


def test_src_lines_is_the_wc_total():
    files = sorted(str(p) for p in (bench_pairs.ROOT / "src" / "singlet_frame").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], check=True, capture_output=True, text=True).stdout
    assert bench_pairs.src_lines(bench_pairs.ROOT) == int(wc.splitlines()[-1].split()[0])
