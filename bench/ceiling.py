"""Reference figures for the README, outside the benchmark proper.

    python3 bench/ceiling.py [--seed N]

Prints the BLAS libraries loaded into a process that imports pivotkit and
the threads it runs, then the median time of pivotkit's inversion and
spectral routes next to LAPACK through numpy (``np.linalg.inv``,
``np.linalg.eigvals``) on the same inputs the ``dense`` workload draws.
"""
import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import pivotkit as pk  # noqa: E402

import inputs  # noqa: E402

#: Draws per (family, order); each figure is their median.
REPS = 5


def _median_ms(fn, args_list) -> float:
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for lib in libs:
        print(f"blas library: {lib}")
    a = inputs.general(np.random.default_rng(0), 400)
    pk.ppt(a, tuple(range(1, 201)))
    np.linalg.inv(a)
    print(f"threads after a ppt and an inv at n = 400: "
          f"{len(os.listdir('/proc/self/task'))}")
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}")

    def draws(make, n):
        return [(make(np.random.default_rng([args.seed, r, n]), n),)
                for r in range(REPS)]

    print("family                          n   pivotkit ms   LAPACK ms")
    for n in (100, 400, 800):
        mats = draws(inputs.general, n)
        half = tuple(range(1, n // 2 + 1))
        rows = [
            ("ppt (LAPACK: inv)", pk.ppt, [(m, half) for (m,) in mats]),
            ("block_inverse", pk.block_inverse, [(m, half) for (m,) in mats]),
            ("sequential_inverse, width 64", pk.sequential_inverse,
             [(m, [tuple(range(s + 1, min(n, s + 64) + 1)) for s in range(0, n, 64)])
              for (m,) in mats]),
        ]
        lapack = _median_ms(np.linalg.inv, mats)
        for name, fn, call_args in rows:
            print(f"{name:30s} {n:4d} {_median_ms(fn, call_args):12.2f} {lapack:11.2f}")
    for n in (10, 15, 20, 25):
        mats = draws(inputs.uniform, n)
        print(f"{'eigenvalues':30s} {n:4d} {_median_ms(pk.eigenvalues, mats):12.2f} "
              f"{_median_ms(np.linalg.eigvals, mats):11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
