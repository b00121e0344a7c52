"""gfs benchmark: one closed-loop caller, one process, every op checked.

    python3 perfbench/run.py --workload fit_bound --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gfs is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
The line before it carries the run metadata, the latency sample count and
the failures by type. A traced run also writes its spans to
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

# One thread of numerical work: the caller is single-threaded and the
# machine the benchmark was sized on has two cores.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3  # set-ups per run, each in a fresh interpreter; the median is reported
HELD_OUT_SEED = 90210  # reserved for checking claims; never used while developing


def parse_args(argv):
    ap = argparse.ArgumentParser(description="gfs benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (one set-up sample)")
    return ap.parse_args(argv)


def import_gfs():
    """Import gfs from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "gfs", "__init__.py")):
        raise SystemExit(f"error: no gfs sources under {SRC}; run from a gfs checkout")
    sys.path.insert(0, SRC)
    import gfs
    if os.path.dirname(os.path.dirname(os.path.abspath(gfs.__file__))) != SRC:
        raise SystemExit(f"error: gfs imported from {gfs.__file__}, not {SRC}")


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(seed):
    import numpy as np
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gfs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def set_up(spec, seed):
    """Cases ready to time, and the set-up time as (raw, scaled) seconds.

    Set-up runs from the first line of this file: imports, the seeded pool,
    sampling and the reference for every case, then one untimed op per
    combination, which fills every stencil and coefficient cache. Each step
    is scaled to the reference speed like an op; the part before the first
    probe takes the first step's scale.
    """
    import speed
    import workloads
    clock = time.perf_counter
    head = clock() - T_START
    meter = speed.Meter()
    durations = []
    t0 = clock()
    cases, n_combos = workloads.make_cases(spec, seed)
    durations.append(clock() - t0)
    meter.mark()

    def warm(case):
        try:
            workloads.run_op(case)
        except Exception:  # counted by type when the timed loop meets this case
            pass

    for step, case in [(workloads.prepare, c) for c in cases] + [(warm, c) for c in cases[:n_combos]]:
        t0 = clock()
        step(case)
        durations.append(clock() - t0)
        meter.mark()
    factors = meter.factors()
    raw = head + sum(durations)
    scaled = head * factors[0] + sum(d * f for d, f in zip(durations, factors))
    return cases, raw, scaled


class Loop:
    """Outcome of one timed loop; times are scaled to the reference speed."""

    def __init__(self, latencies, cycles, factors, raised, wrong):
        self.n = len(latencies)
        self.raised = raised
        self.wrong = wrong
        self.latencies = [t * f for t, f in zip(latencies, factors)]
        self.rate = self.n / sum(c * f for c, f in zip(cycles, factors))
        self.raw_latencies = latencies
        self.raw_rate = self.n / sum(cycles)
        self.factor = statistics.median(factors)

    @property
    def failed(self):
        return sum(self.raised.values()) + sum(self.wrong.values())


def timed_loop(cases, seconds, tracer=None):
    """Closed loop: op i+1 starts only after op i and its check finish.

    Records the ops that raised (by exception type) and the ops whose output
    failed its check (by reason). The speed probe runs between ops; probe
    time is in no latency and no rate.
    """
    import speed
    import workloads
    clock = time.perf_counter
    latencies, cycles = [], []
    raised, wrong = Counter(), Counter()
    meter = speed.Meter()
    deadline = clock() + seconds
    i = 0
    while i == 0 or clock() < deadline:
        case = cases[i % len(cases)]
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = workloads.run_op(case)
        except Exception as exc:  # recorded by type; the run goes on
            t1 = clock()
            raised[type(exc).__name__] += 1
        else:
            t1 = clock()
            reason = workloads.check(case, out)
            if reason is not None:
                wrong[reason] += 1
        t2 = clock()
        if tracer is not None:
            tracer.ops.append((i, t0, t1))
        latencies.append(t1 - t0)
        cycles.append(t2 - t0)
        meter.mark()
        i += 1
    return Loop(latencies, cycles, meter.factors(), raised, wrong)


def child_setup(args):
    """One set-up sample from a fresh interpreter, run after the timed loop."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    import_gfs()
    import numpy as np
    import tracing
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choices: {', '.join(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    cases, setup_raw_s, setup_s = set_up(spec, args.seed)
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    diag = {"workload": args.workload, "meta": run_metadata(args.seed)}
    if not args.trace:
        loop = timed_loop(cases, args.seconds)
        setups = [{"setup_s": setup_s, "setup_raw_s": setup_raw_s}]
        setups += [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
        p50, p90 = np.percentile(loop.latencies, [50, 90]) * 1e3
        metrics = {
            "signals_per_s": (loop.rate, "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((loop.n - loop.failed) / loop.n, "frac"),
        }
        raw_p50, raw_p90 = np.percentile(loop.raw_latencies, [50, 90]) * 1e3
        diag["raw"] = {"signals_per_s": loop.raw_rate, "latency_p50_ms": raw_p50,
                       "latency_p90_ms": raw_p90, "setup_s": [s["setup_raw_s"] for s in setups]}
    else:
        # Same seed, same process: an untraced half, then a traced half.
        plain = timed_loop(cases, args.seconds / 2.0)
        tracer.install()
        try:
            loop = timed_loop(cases, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        if not tracer.restored():
            raise SystemExit("error: a wrapped gfs attribute was not restored")
        metrics, table = tracing.summarize(tracer, first_pass_ops=len(cases))
        metrics["trace.overhead_frac"] = (1.0 - loop.rate / plain.rate, "frac")
        diag.update(untraced_signals_per_s=plain.rate, traced_signals_per_s=loop.rate,
                    absent=tracer.absent, info_errors=tracer.info_errors,
                    counts_cover_ops=min(loop.n, len(cases)), functions=table)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, {k: v for k, v in diag.items() if k != "functions"})
        diag["spans_file"] = os.path.relpath(path, ROOT)
    diag["speed_factor"] = loop.factor
    diag["latency_samples"] = loop.n
    diag["raised_by_type"] = dict(loop.raised)
    diag["wrong_by_reason"] = dict(loop.wrong)
    print(json.dumps(diag))
    # An op that raises returns nothing wrong: it is a failure, not an
    # incorrect output. Any output that misses its check makes the run incorrect.
    print(json.dumps({
        "correct": not loop.wrong,
        "attempted": loop.n,
        "failed": loop.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
