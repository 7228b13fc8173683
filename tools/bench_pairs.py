"""Run perfbench on a parent ref and on this checkout in alternating pairs and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REF --pairs direction-1e5=10 --pairs frame-1e2=3 \
        --seconds 26 --out BENCH_29.json

Run it from the repository root.  The parent tree is ``git archive REF``
extracted into a temporary directory; the change tree is this checkout,
uncommitted edits included.  Every pair runs ``perfbench/run.py --trace 0``
once on each tree with the same workload seed, drawn fresh for the pair
before any run starts and written to the output.  The tree that goes first
alternates from pair to pair, so a drift of the host's speed within a pair
favours neither side.  For each workload and end-to-end metric of
``BENCHMARK.json`` the output holds the parent's and the change's medians
and inter-quartile ranges, the median over pairs of the change/parent ratio
(``ratio_p50``, which a drift of the host between pairs blurs less than the
two medians), the pairs the change won, tied and lost, and the metric's
bound.  A pair fails when either run does: a run that exits non-zero
leaves its exit code and the last lines of its stderr in the pair; one
whose last stdout line is not a JSON object leaves its exit code and the
last lines of its stdout; one whose result line says ``correct: false`` or
``failed`` above 0 leaves that line.  The summaries leave failed pairs
out; the other pairs are still run and written, and the script exits 1.
Each tree's ``src_lines`` is the total ``wc -l src/singlet_frame/*.py``
gives for it.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOST_NOTE = ("shared and unpinned host: other machines' work shares its cores, so a fixed computation "
             "can run up to 1.6x slower for tens of seconds; pairs alternate which tree runs first")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent tree")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                   help="run N pairs of WORKLOAD; repeat for more workloads")
    p.add_argument("--seconds", type=float, required=True, help="--seconds of each perfbench run")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = p.parse_args(argv)
    try:
        args.pairs = [(name, int(n)) for name, n in (item.split("=", 1) for item in args.pairs)]
    except ValueError:
        p.error("--pairs takes WORKLOAD=N")
    if any(n < 1 for _, n in args.pairs) or not args.seconds > 0:
        p.error("each pair count must be >= 1 and --seconds > 0")
    return args


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(ref: str, dest: Path) -> None:
    """The committed files of ``ref`` in ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", ref], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def src_lines(tree: Path) -> int:
    """The total ``wc -l src/singlet_frame/*.py`` gives in ``tree``: its modules' LF count."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "singlet_frame").glob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run in ``tree``.

    A run that exits non-zero gives its exit code and the last 20 lines of its stderr instead, and one whose
    last stdout line is not a JSON object its exit code and the last 20 lines of its stdout.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr.splitlines()[-20:]}
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        return {"exit_code": proc.returncode, "stdout_tail": lines[-20:]}
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "iqr": q3 - q1}


def failed(pair: dict) -> bool:
    """Whether either run gave no result line, or one that says ``correct: false`` or ``failed`` above 0."""
    return any("metrics" not in run or run.get("correct") is False or run.get("failed", 0) > 0
               for run in (pair["parent"], pair["change"]))


def summarize(runs: list, metrics: list) -> dict:
    """Per end-to-end metric over the pairs whose runs both finished: each side's median and IQR,
    the median of the change/parent ratios, and the change's wins, ties and losses."""
    out = {}
    for m in metrics:
        pairs = [(r["parent"]["metrics"][m["name"]]["value"], r["change"]["metrics"][m["name"]]["value"])
                 for r in runs
                 if not failed(r) and m["name"] in r["parent"]["metrics"] and m["name"] in r["change"]["metrics"]]
        if not pairs:
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        gaps = [sign * (p - c) for p, c in pairs]
        ratios = [c / p for p, c in pairs if p]
        out[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": len(pairs),
            "parent": spread([p for p, _ in pairs]), "change": spread([c for _, c in pairs]),
            "ratio_p50": statistics.median(ratios) if ratios else None,
            "wins": sum(g > 0 for g in gaps), "ties": sum(g == 0 for g in gaps), "losses": sum(g < 0 for g in gaps),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import numpy

    seeds = {name: [random.SystemRandom().randrange(2**31) for _ in range(n)] for name, n in args.pairs}
    report = {
        "parent": {"ref": args.parent, "sha": git("rev-parse", args.parent)},
        "change": {"tree": "checkout", "head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
                   "src_lines": src_lines(ROOT)},
        "seconds": args.seconds,
        "host": {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "note": HOST_NOTE},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        extract(args.parent, parent)
        report["parent"]["src_lines"] = src_lines(parent)
        for name, _ in args.pairs:
            runs = []
            for i, seed in enumerate(seeds[name]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(parent if side == "parent" else ROOT, name, seed, args.seconds)
                    print(f"{name} pair {i + 1}/{len(seeds[name])} {side}: "
                          f"op_p50_ms {pair[side].get('metrics', {}).get('op_p50_ms', {}).get('value')}",
                          file=sys.stderr)
                runs.append(pair)
            report["workloads"][name] = {"metrics": summarize(runs, bench["end_to_end"]),
                                         "failed_pairs": sum(map(failed, runs)), "runs": runs}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any(w["failed_pairs"] for w in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
