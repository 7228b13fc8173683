"""Smoke checks of the benchmark at tiny sizes, so it cannot rot unnoticed."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import harness, workloads
from perfbench.oracles import cos_interval_mass, lsq_direction

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "direction-1e5": {"trials": 6, "refine_rounds": 1, "batch": 200},
    "frame-1e2": {"trials": 6, "refine_rounds": 1, "batch": 20},
    "record-1e5": {"batch": 500, "panel_size": 4},
    "posterior-sweep": {"log10_n": (1.0, 3.0)},
}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    result, details = harness.measure(name, 7, 0.05, bool(trace), tmp_path, time.perf_counter(), sizes=TINY[name])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, details["failure_examples"]
    assert result["attempted"] >= 3  # warm-up, at least one timed op, determinism rerun
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_mass_oracle_matches_scipy():
    beta = pytest.importorskip("scipy.stats").beta
    for n_plus, n_minus, lo, hi in [
        (5, 6, -0.4, 0.6),
        (0, 10, 0.5, 1.0),
        (50_000, 60_000, 0.085, 0.097),
        (10_000_000, 0, -1.0, -0.9999997),
        (49_000_000, 51_000_000, 0.0199, 0.0201),
    ]:
        ref = beta.cdf((1 - lo) / 2, n_plus + 1, n_minus + 1) - beta.cdf((1 - hi) / 2, n_plus + 1, n_minus + 1)
        assert cos_interval_mass(n_plus, n_minus, lo, hi) == pytest.approx(ref, abs=1e-9)


def test_sweep_check_flags_intervals_of_wrong_mass(tmp_path):
    wl = workloads.PosteriorSweepWorkload(1, 0.01, tmp_path)
    wl.n[0], wl.n_plus[0], wl.cosines[0] = 10_000_000, 10_000_000, -1.0
    empty = SimpleNamespace(n_plus=10_000_000, n_minus=0, map_cos_theta=-1.0,
                            credible_interval_cos=(-1.0, -1.0), to_dict=dict)
    whole = SimpleNamespace(n_plus=10_000_000, n_minus=0, map_cos_theta=-1.0,
                            credible_interval_cos=(-1.0, 1.0), to_dict=dict)
    for summary in (empty, whole):
        outcome = wl.check(0, summary)
        # a mass miss is an accuracy sample for ci_mass_ok_frac, not an op failure
        assert outcome.mass_ok == [False] and outcome.oracle_errors
        assert not outcome.invariant_errors


def test_lsq_direction_recovers_sign_and_axis():
    rng = np.random.default_rng(3)
    x = np.array([0.3, -0.5, 0.8])
    x /= np.linalg.norm(x)
    y = rng.normal(size=(20, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    c = y @ x
    counts = np.column_stack([(1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4]) * 1e6
    assert np.allclose(lsq_direction(y, counts), x, atol=1e-9)


def _run(cwd, seconds="0.3"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "posterior-sweep",
           "--seed", "3", "--seconds", seconds, "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_command_prints_result_as_last_line():
    proc = _run(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["setup_s"]["value"] > 0


def test_command_fails_without_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
