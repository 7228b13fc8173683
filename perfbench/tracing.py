"""Outside-in per-layer tracing of the singlet_frame package.

The tracer replaces public functions with timing wrappers at the module
where the caller looks them up (``protocol.run_measurement_batch`` is the
sampler as the protocol sees it), so nothing in the package changes.  A
span covers one wrapped call; a layer's self time is the duration of its
spans minus the time of the wrapped spans they contain.  Counters (pairs,
bytes, evaluations) are recorded at the same boundaries.  Only aggregates
are kept, and only while an operation is being traced.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from singlet_frame import bayes, cli, protocol, sampler, serialize

ROOT = "op"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _transfer_counts(result):
    return {"evaluations": len(result.trials) + result.refine_evaluations, "singlets": result.singlets_used}


# (module, attribute, layer, counter).  A counter maps (args, kwargs,
# result) to named counts; it runs after the span closes.
WRAP_POINTS = [
    (protocol, "run_measurement_batch", "sampler",
     lambda a, k, r: {"pairs": _arg(a, k, 2, "batch_size")}),
    (sampler, "run_measurement_batch", "sampler",
     lambda a, k, r: {"pairs": _arg(a, k, 2, "batch_size")}),
    (protocol, "tally", "estimator.tally", lambda a, k, r: {"pairs": len(_arg(a, k, 0, "record"))}),
    (protocol, "estimate_mutual_information", "estimator.mi", None),
    (protocol, "generate_trial_directions", "protocol.layout", None),
    (protocol, "transfer_direction", "protocol.transfer", lambda a, k, r: _transfer_counts(r)),
    (cli, "transfer_frame", "protocol.frame", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_run", "cli.run", None),
    (cli, "cmd_bayes", "cli.bayes", None),
    (cli, "load_config", "config.load", None),
    (cli, "write_json_atomic", "serialize.json_write",
     lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"))}),
    (serialize, "record_to_csv", "serialize.csv_write",
     lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))}),
    (cli, "read_record_arrays_csv", "serialize.csv_read",
     lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"))}),
    (cli, "sign_tally_from_arrays", "bayes.sign_tally", None),
    (cli, "posterior_summary", "bayes.summary", None),
    (bayes, "posterior_summary", "bayes.summary", None),
    (bayes, "credible_interval", "bayes.credible_interval", None),
]

LAYERS = sorted({layer for _, _, layer, _ in WRAP_POINTS})

# layers called a varying number of times per operation
CALL_COUNTED = ("sampler", "estimator.tally", "estimator.mi", "protocol.layout", "bayes.credible_interval")


class Tracer:
    """Span aggregation over traced operations.

    Use as a context manager to install the wrappers; ``op()`` opens the
    root span of one operation.  Outside an ``op()`` the wrappers pass
    straight through, so checks made between operations are not counted.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.ops = 0
        self.op_s = 0.0
        self._stack: list[list] = []  # [layer, start, child time]
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, layer, counter in WRAP_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _open(self, layer):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _close(self) -> float:
        layer, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _wrap(self, original, layer, counter):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            self._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{layer}.{key}"] += value
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def op(self, fn, *args):
        """Run ``fn(*args)`` as one traced operation; returns (result, seconds)."""
        self._open(ROOT)
        try:
            result = fn(*args)
        finally:
            duration = self._close()
            self.ops += 1
            self.op_s += duration
        return result, duration

    def metrics(self) -> dict:
        """Per-operation averages of the layers' self times, calls and counters."""
        n = max(self.ops, 1)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        for layer in LAYERS:
            put(f"{layer}.self_s", self.self_s[layer] / n, "s")
        for layer in CALL_COUNTED:
            put(f"{layer}.calls", self.calls[layer] / n, "count")
        put("sampler.pairs", self.counts["sampler.pairs"] / n, "count")
        put("sampler.ns_per_pair", ratio(self.self_s["sampler"], self.counts["sampler.pairs"], 1e9), "ns")
        put("sampler.us_per_call", ratio(self.self_s["sampler"], self.calls["sampler"], 1e6), "us")
        put("estimator.tally.ns_per_pair",
            ratio(self.self_s["estimator.tally"], self.counts["estimator.tally.pairs"], 1e9), "ns")
        transfers = self.calls["protocol.transfer"]
        put("protocol.evaluations", ratio(self.counts["protocol.transfer.evaluations"], transfers), "count")
        put("protocol.singlets", ratio(self.counts["protocol.transfer.singlets"], transfers), "count")
        for io in ("json_write", "csv_write"):
            put(f"serialize.{io}.bytes", self.counts[f"serialize.{io}.bytes"] / n, "B")
        for io in ("csv_write", "csv_read"):
            put(f"serialize.{io}.mb_per_s",
                ratio(self.counts[f"serialize.{io}.bytes"], self.self_s[f"serialize.{io}"], 1e-6), "MB/s")
        op_s = self.op_s / n
        put("trace.op_s", op_s, "s")
        put("trace.attributed_frac", ratio(sum(self.self_s[layer] for layer in LAYERS) / n, op_s), "ratio")
        return out
