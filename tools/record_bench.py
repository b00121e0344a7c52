"""Record the benchmark trajectory file BENCH_<label>.json.

    python3 tools/record_bench.py --label baseline --seed 90210

Runs ``perfbench/run.py`` for every workload that BENCHMARK.json declares,
untraced and then traced, from the root of this checkout, and writes
``BENCH_<label>.json`` there. Each run lasts BENCHMARK.json's
``run_seconds``, the length every recorded run shares. The file holds the run
metadata (commit, source hash, Python and numpy versions, nproc, BLAS
threads, seed), a top-level ``dirty`` flag (tracked files differ from that
commit; None outside a git checkout) and, for each workload and mode, the
run's result line with every end-to-end or per-layer metric plus its
diagnostics line (speed factor, raw times, failures by type). The traced runs' per-function tables
are left out; their spans stay in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODES = (("untraced", 0), ("traced", 1))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tree_dirty():
    """True when tracked files differ from HEAD, None outside a git checkout.

    Untracked files do not count: a BENCH file from an earlier run is one.
    """
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(done.stdout.strip())


def run_bench(workload, seed, trace):
    """The diagnostics line and the result line of one perfbench run."""
    seconds = load_benchmark()["run_seconds"]
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    diag, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return diag, result


def record(label, seed, runner=run_bench):
    """The BENCH_<label>.json content: every workload, untraced then traced."""
    bench = load_benchmark()
    dirty = tree_dirty()
    runs = {}
    for spec in bench["workloads"]:
        for mode, trace in MODES:
            diag, result = runner(spec["name"], seed, trace)
            diag.pop("functions", None)
            runs.setdefault(spec["name"], {})[mode] = {**result, "diagnostics": diag}
    first = next(iter(runs.values()))["untraced"]
    return {"label": label, "seed": seed, "seconds": bench["run_seconds"], "dirty": dirty,
            "meta": first["diagnostics"]["meta"], "runs": runs}


def main(argv=None, runner=run_bench):
    ap = argparse.ArgumentParser(description="write BENCH_<label>.json from perfbench runs")
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    data = record(args.label, args.seed, runner)
    with open(out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
