"""Closed-loop driver: set-up, timed loop, checks, metrics and the result line.

One client runs one operation at a time until ``seconds`` have passed
(or the input pool runs out).  Every operation the run executes is
checked: the warm-up, each timed operation and the determinism rerun of
the warm-up input.  ``failed`` counts operations that raised, exited
non-zero, broke an invariant or failed the determinism spot-check, and
``correct`` is false when any did.  A credible interval whose posterior
mass misses the Beta oracle is an accuracy sample, like an angle error:
it lowers ``ci_mass_ok_frac`` and is described in the details line, so a
numerical defect shows in a bounded metric rather than in a failure count
that varies with how many ops fit in the run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import singlet_frame

from . import BLAS_ENV
from .speed import SpeedLog
from .tracing import Tracer
from .workloads import WORKLOADS, Outcome

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# the tail is the highest percentile with at least this many ops, and
# this share of the ops, beyond it: a quantile with only ten ops beyond it
# in a run of 20000 measures a handful of host hiccups and spreads by
# about 45% across runs, and p99 still by about 17% on posterior-sweep,
# so runs of 200 ops or more report p95 (about 9% there)
TAIL_MIN_BEYOND = 10
TAIL_MIN_SHARE_BEYOND = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "singlets_per_s": "1/s",
    "peak_rss_mb": "MB",
    "angle_err_p50_deg": "deg",
    "angle_err_p90_deg": "deg",
    "ci_coverage": "ratio",
    "ci_mass_ok_frac": "ratio",
}


class Run:
    """Outcomes and latencies of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: Counter = Counter()
        self.examples: list[str] = []
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.speed = SpeedLog()
        self.singlets = 0
        # accuracy samples are kept flat, not as Outcomes, so that memory
        # does not grow with the number of ops a run completes
        self.angles: list[float] = []
        self.covered: list[bool] = []
        self.mass_ok: list[bool] = []
        self.lsq: list[float] = []
        self.oracle_reasons: Counter = Counter()
        self.oracle_examples: list[str] = []

    def execute(self, i, timer=None, fingerprint=None):
        """Run and check operation ``i``; returns (outcome, seconds).

        ``timer(fn, *args)`` runs the op and returns (output, seconds).
        A given ``fingerprint`` is the output an earlier run of the same
        input produced; a different one now is a determinism failure.
        """
        args = self.workload.prepare(i)
        self.attempted += 1
        try:
            output, seconds = (timer or _timed)(self.workload.op, *args)
            outcome = self.workload.check(i, output)
        except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
            outcome = Outcome(invariant_errors=["exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]])
            seconds = None
        if fingerprint is not None and outcome.fingerprint != fingerprint:
            outcome.invariant_errors.append("determinism: rerun of the same input differs")
        self._record(i, outcome)
        return outcome, seconds

    def _record(self, i, outcome: Outcome):
        errors = outcome.invariant_errors
        if errors:
            self.correct = False
            self.failed += 1
            _count(self.reasons, self.examples, i, errors)

    def timed_loop(self, first, seconds, timer=None):
        """Closed loop over inputs first.. for ``seconds``; returns the next input index.

        The host-speed kernel runs between ops, outside their timing.
        """
        i = first
        deadline = time.perf_counter() + seconds
        while i < self.workload.pool and time.perf_counter() < deadline:
            self.speed.maybe_sample()
            start = time.perf_counter()
            outcome, dt = self.execute(i, timer)
            if dt is not None:
                self.starts.append(start)
                self.latencies.append(dt)
                self.singlets += outcome.singlets
            self.add_accuracy(outcome, f"op {i}")
            i += 1
        self.speed.sample()
        return i

    def add_accuracy(self, outcome: Outcome, label="op") -> None:
        self.angles += outcome.angle_errors_deg
        self.covered += outcome.covered
        self.mass_ok += outcome.mass_ok
        self.lsq += outcome.lsq_errors_deg
        if outcome.oracle_errors:
            _count(self.oracle_reasons, self.oracle_examples, label, outcome.oracle_errors)

    def normalized(self, first=0, last=None) -> list[float]:
        """Speed-normalized latencies of timed ops first..last."""
        return self.speed.normalize(self.starts[first:last], self.latencies[first:last])


def _count(reasons: Counter, examples: list, label, errors: list[str]) -> None:
    for e in errors:
        # details in parentheses vary per op; the reason is what precedes them
        reasons[e.partition(" (")[0]] += 1
    if len(examples) < 5:
        examples.append(f"{label}: " + "; ".join(errors))


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class _Alternating:
    """Timer of a traced run: every second op is traced, the others are not.

    Interleaving makes the traced and untraced latencies see the same
    host, so their ratio measures the tracer's overhead.  The wrappers are
    installed only around traced ops, outside their timing.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.traced: list[bool] = []  # per completed op

    def __call__(self, fn, *args):
        if len(self.traced) % 2:
            with self.tracer:
                result = self.tracer.op(fn, *args)
        else:
            result = _timed(fn, *args)
        self.traced.append(len(self.traced) % 2 == 1)
        return result


def _tail(latencies):
    """(latency, percentile, ops beyond) of the tail percentile defined above."""
    ordered = sorted(latencies)
    beyond = max(TAIL_MIN_BEYOND, math.ceil(TAIL_MIN_SHARE_BEYOND * len(ordered)))
    k = max(len(ordered) - beyond, 1)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "singlet_frame": singlet_frame.__version__,
        "git_sha": _git_sha(root),
        "workload_seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _probe_setup(run_py: Path, root: Path, workload: str, seed: int, seconds: float) -> float:
    """Wall time from spawning a fresh interpreter until it is ready to time its first op."""
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0", "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, first line {line.strip()!r})")
    return elapsed


def _probe_setups(probe, speed: SpeedLog) -> tuple[list[float], list[float]]:
    """SETUP_PROBES fresh-process set-ups: (raw seconds, speed-normalized seconds)."""
    raw, normalized = [], []
    speed.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        raw.append(probe())
        speed.sample()
        normalized.append(raw[-1] * speed.factor(start))
    return raw, normalized


def set_up(name: str, seed: int, seconds: float, work_dir: Path, sizes: dict | None = None):
    """Build the workload's inputs and run the warm-up op on input 0."""
    workload = WORKLOADS[name](seed, seconds, work_dir, **(sizes or {}))
    run = Run(workload)
    warm, _ = run.execute(0)
    return run, warm


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path, started: float,
            sizes: dict | None = None, probe=None) -> tuple[dict, dict]:
    """One benchmark run.  Returns (result, details).

    ``started`` is the perf_counter reading at process start; ``probe``
    measures one fresh-process set-up (None: use this process's set-up).
    """
    run, warm = set_up(name, seed, seconds, work_dir, sizes)
    in_process_setup_s = time.perf_counter() - started
    details: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}

    timer = _Alternating() if trace else None
    nxt = run.timed_loop(1, seconds, timer=timer)

    run.execute(0, fingerprint=warm.fingerprint)
    if not run.latencies:
        raise RuntimeError("no operation completed inside the timed region")
    raw = run.latencies
    lat = run.normalized()
    details.update({
        "ops_timed": len(raw),
        "pool_exhausted": nxt >= run.workload.pool,
        "failed_frac": run.failed / run.attempted,
        "failure_reasons": dict(run.reasons),
        "failure_examples": run.examples,
        "reference.lsq_err_p50_deg": statistics.median(run.lsq) if run.lsq else None,
        "in_process_setup_s": in_process_setup_s,
        "speed_kernel_p50_ms": run.speed.kernel_p50_s() * 1e3,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": _tail(raw)[0] * 1e3,
        "raw_ops_per_s": len(raw) / sum(raw),
    })

    if trace:
        metrics = timer.tracer.metrics()
        traced = [dt for dt, t in zip(lat, timer.traced) if t]
        untraced = [dt for dt, t in zip(lat, timer.traced) if not t]
        if not traced or not untraced:
            raise RuntimeError("a traced run needs at least two timed ops")
        untraced_p50 = statistics.median(untraced)
        metrics["trace.overhead_frac"] = _metric(statistics.median(traced) / untraced_p50 - 1.0, "ratio")
        details["untraced_op_p50_ms"] = untraced_p50 * 1e3
    else:
        if probe:
            setup_raw, setup_samples = _probe_setups(probe, run.speed)
        else:
            setup_raw, setup_samples = [in_process_setup_s], [in_process_setup_s * run.speed.factor(started)]
        tail, pct, beyond = _tail(lat)
        busy = sum(lat)
        timed_samples = len(run.angles)
        for j, outcome in enumerate(run.workload.accuracy_panel()):
            run.add_accuracy(outcome, f"panel {j}")
        details["accuracy_samples"] = {"timed_ops": timed_samples, "panel": len(run.angles) - timed_samples}
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail * 1e3,
            "ops_per_s": len(lat) / busy,
            "singlets_per_s": run.singlets / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "angle_err_p50_deg": float(np.percentile(run.angles, 50)),
            "angle_err_p90_deg": float(np.percentile(run.angles, 90)),
            "ci_coverage": sum(run.covered) / len(run.covered),
            "ci_mass_ok_frac": sum(run.mass_ok) / len(run.mass_ok),
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
        details.update({
            "setup_samples_s": setup_samples,
            "raw_setup_samples_s": setup_raw,
            "op_tail_percentile": pct,
            "op_tail_ops_beyond": beyond,
            "ci_mass_checked": len(run.mass_ok),
            "oracle_reasons": dict(run.oracle_reasons),
            "oracle_examples": run.oracle_examples,
        })

    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    return result, details


def main(args, started: float, root: Path, run_py: Path) -> int:
    work_base = root / ".perfbench_tmp"
    work_base.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_base))
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, args.seconds, work_dir)
            print("ready", flush=True)
            return 0
        probe = functools.partial(_probe_setup, run_py, root, args.workload, args.seed, args.seconds)
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
                                  started, probe=probe)
        details["environment"] = environment(root, args.seed)
        print(json.dumps({"details": details}, default=str))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_base.rmdir()
        except OSError:
            pass
