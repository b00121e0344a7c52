"""Derive the per-case tolerances in tolerances.py from the worst errors over many seeds.

    python3 perfbench/calibrate.py --seeds 1000-1049 > perfbench/tolerances.py

A tolerance is the larger of the value tests/test_acceptance.py states for
that case (BATTERY) and ten times the worst error seen, rounded up to a
power of ten. Calibration seeds are kept apart from the seeds used to
measure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

# (jumps, function, n, N) or (function, N, method) -> tolerance stated by
# tests/test_acceptance.py for that case.
BATTERY = {
    ("analytic", "modulated_sine", 2, 64): 1e-12,  # Criterion 1, two modes
    ("analytic", "gaussian", 3, 64): 1e-12,  # Criterion 2, analytic jumps
    ("fd", "gaussian", 3, 256): 1e-10,  # Criterion 2, FD jumps on a fine grid
    ("gaussian", 64, "gfs"): 1e-12,  # Criterion 2
    ("gaussian", 64, "fft"): 4.24 * 1.2,  # Criterion 2, FFT column
    ("gaussian", 64, "fd"): 4.18e-4,  # Criterion 2, FD column
    ("log_fn", 128, "gfs"): 2e-10,  # Criterion 3
}


def tolerance(key, worst):
    derived = 10.0 ** math.ceil(math.log10(10.0 * max(worst, 1e-300)))
    return max(BATTERY.get(key, 0.0), derived)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1000-1049", help="inclusive range lo-hi")
    args = ap.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    warnings.simplefilter("ignore", RuntimeWarning)
    gfs_worst = defaultdict(float)
    table_worst = defaultdict(float)
    raised = Counter()
    for spec in workloads.WORKLOADS.values():
        seeds = range(lo, hi + 1) if spec.name != "grid_bound" else range(lo, min(hi, lo + 19) + 1)
        for seed in seeds:
            cases, _ = workloads.make_cases(spec, seed)
            for case in cases:
                try:
                    out = workloads.run_op(workloads.prepare(case))
                except Exception as exc:  # counted by the benchmark as a failure, not a tolerance
                    raised[(spec.name, case.function, case.n, case.N, type(exc).__name__)] += 1
                    continue
                if case.jumps == "table":
                    for r in out:
                        if r.method != "prony":
                            key = (case.function, case.N, r.method)
                            table_worst[key] = max(table_worst[key], r.e_inf)
                else:
                    key = (case.jumps, case.function, case.n, case.N)
                    err = float(max(abs(out - case.exact)))
                    gfs_worst[key] = max(gfs_worst[key], err)
    print('"""Per-case error tolerances, written by calibrate.py; see its docstring."""')
    print()
    print(f"# Calibration seeds {lo}-{hi} (grid_bound: the first twenty). Comment: worst error seen.")
    for title, worst in (("GFS_TOL", gfs_worst), ("TABLE_TOL", table_worst)):
        print(f"{title} = {{")
        for key in sorted(worst):
            src = "  battery" if key in BATTERY else ""
            print(f"    {key!r}: {tolerance(key, worst[key]):.3g},  # {worst[key]:.2e}{src}")
        print("}")
    for key, count in sorted(raised.items()):
        print(f"# raised: {key} x{count}")


if __name__ == "__main__":
    main()
