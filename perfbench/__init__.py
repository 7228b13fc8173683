"""Benchmark of the singlet_frame package: four closed-loop workloads,
end-to-end speed and accuracy metrics, and an outside-in per-layer trace.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""

# numpy's BLAS pool is capped at one thread: the benchmark is one client on
# a small machine, and a second BLAS thread would only compete with it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
