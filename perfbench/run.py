"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the same checkout; without it the command exits with code 2.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

RUN_PY = Path(__file__).resolve()
ROOT = RUN_PY.parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print 'ready' and exit (used to time set-up in a fresh process)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "singlet_frame" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'singlet_frame'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import BLAS_ENV, BLAS_THREADS

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole run and its set-up probes, so the host-speed
        # kernel measures the CPU the ops run on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import singlet_frame

    if Path(singlet_frame.__file__).resolve().parent != SRC / "singlet_frame":
        print(f"error: imported singlet_frame from {singlet_frame.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seed >= 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    return harness.main(args, STARTED, ROOT, RUN_PY)


if __name__ == "__main__":
    sys.exit(main())
