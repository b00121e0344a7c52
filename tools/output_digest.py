"""SHA-256 of every benchmark op's output, one digest per workload, and one
per method for error tables.

    python3 tools/output_digest.py --workload fit_bound --seed 1 7 90210
    python3 tools/output_digest.py --seed 1 2 3        # every workload

For each seed, the workload's pool is built, prepared and run once, op by
op, through ``perfbench/workloads.py`` (``make_cases``, ``prepare``,
``run_op``) and this checkout's ``src/``; nothing is timed or written.
Into the digest go, in pool order:

- an array output: its float64 bytes;
- an error-table row list: each row's method, e_inf, e_2 and note (not its
  wall time);
- an op that raises: the exception's type name and message.

Two checkouts whose digests match gave the same bits on every op, so a
change meant to keep every output can be shown to do so. An error-table
workload also prints one digest per method (``error_tables:prony``) over
that method's rows alone, each tagged with its seed and case index, so a
change to one method can show that the others kept their bits. An op that
raises has no rows and moves only the workload's digest.

    python3 tools/output_digest.py --failures --seed 1 2 3

prints instead one line per failing op: workload, seed, case index in the
pool, and the reason, which is the exception's type name for an op that
raises, else the reason ``workloads.check`` gives. Two checkouts' lists
compare their per-case pass/fail sets.

    python3 tools/output_digest.py --margins --seed 1 2 3

prints for each workload the worst err/tol among its passing ops, with
the seed and case index of that op: err is an op's max-norm derivative
error, tol its tolerance in ``perfbench/tolerances.py``. An error-table
workload gets one line per method with a tolerance (``error_tables:gfs``);
Prony rows have none. A change that moves output bits shows with it how
close the passing ops came to their tolerances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def import_workloads():
    """perfbench's workloads module, with gfs imported from this checkout's src/."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import run
    run.import_gfs()
    import workloads
    return workloads


def row_bytes(row):
    """An error-table row's method, e_inf, e_2 and note (not its wall time)."""
    return (b"row\0" + row.method.encode() + b"\0"
            + struct.pack("<dd", row.e_inf, row.e_2) + row.note.encode() + b"\0")


def update(digest, out):
    """Feed one op's output (array, error-table rows or exception) to the digest."""
    if isinstance(out, BaseException):
        digest.update(b"raise\0" + type(out).__name__.encode() + b"\0" + str(out).encode())
    elif isinstance(out, np.ndarray):
        digest.update(b"array\0" + np.ascontiguousarray(out, dtype="<f8").tobytes())
    else:
        for row in out:
            digest.update(row_bytes(row))


def pool_outputs(workloads, name, seed):
    """(case index, case, output) for every op of one seeded pool, in order;
    an op that raises gives its exception as the output."""
    cases, _ = workloads.make_cases(workloads.WORKLOADS[name], seed)
    for i, case in enumerate(cases):
        workloads.prepare(case)
        try:
            out = workloads.run_op(case)
        except Exception as exc:  # part of the output: type and message
            out = exc
        yield i, case, out


def workload_digests(name, seeds, workloads=None):
    """{label: hex SHA-256} over every op of workload ``name`` at each seed, in
    order: ``name`` over every output, and for error tables ``name:method``
    over that method's rows."""
    workloads = workloads or import_workloads()
    digests = {name: hashlib.sha256()}
    for seed in seeds:
        digests[name].update(f"seed {seed}\0".encode())
        for i, _, out in pool_outputs(workloads, name, seed):
            update(digests[name], out)
            if isinstance(out, (BaseException, np.ndarray)):
                continue
            for row in out:
                method = digests.setdefault(f"{name}:{row.method}", hashlib.sha256())
                method.update(f"op {seed} {i}\0".encode() + row_bytes(row))
    return {label: digest.hexdigest() for label, digest in sorted(digests.items())}


def workload_failures(name, seeds, workloads=None):
    """(seed, case index, reason) for every op of workload ``name`` that
    raises or fails its check, in order."""
    workloads = workloads or import_workloads()
    failures = []
    for seed in seeds:
        for i, case, out in pool_outputs(workloads, name, seed):
            reason = (type(out).__name__ if isinstance(out, BaseException)
                      else workloads.check(case, out))
            if reason is not None:
                failures.append((seed, i, reason))
    return failures


def op_margins(workloads, case, out):
    """(label suffix, err/tol) of one op's output: one pair, or one per toleranced table method."""
    if case.jumps != "table":
        err = float(np.max(np.abs(out - case.exact)))
        return [("", err / workloads.GFS_TOL[(case.jumps, case.function, case.n, case.N)])]
    return [(":" + r.method, r.e_inf / workloads.TABLE_TOL[(case.function, case.N, r.method)])
            for r in out if r.method != "prony"]


def workload_margins(name, seeds, workloads=None):
    """{label: (err/tol, seed, case index)} of the worst passing op of workload
    ``name``, labelled by the workload, or by workload:method for error tables."""
    workloads = workloads or import_workloads()
    worst = {}
    for seed in seeds:
        for i, case, out in pool_outputs(workloads, name, seed):
            if isinstance(out, BaseException) or workloads.check(case, out) is not None:
                continue
            for suffix, ratio in op_margins(workloads, case, out):
                if name + suffix not in worst or ratio > worst[name + suffix][0]:
                    worst[name + suffix] = (ratio, seed, i)
    return worst


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [spec["name"] for spec in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description="one SHA-256 of all op outputs per workload (and per "
                                             "error-table method), the ops that fail, or the worst "
                                             "passing margins")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to digest (repeatable; default: every workload)")
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--failures", action="store_true",
                      help="list the ops that raise or fail their check instead")
    mode.add_argument("--margins", action="store_true",
                      help="print the worst err/tol of the passing ops instead")
    args = ap.parse_args(argv)
    workloads = import_workloads()
    for name in args.workload or names:
        if args.failures:
            for seed, i, reason in workload_failures(name, args.seed, workloads):
                print(f"{name} {seed} {i} {reason}")
        elif args.margins:
            margins = workload_margins(name, args.seed, workloads)
            for label, (ratio, seed, i) in sorted(margins.items()):
                print(f"{label} {seed} {i} {ratio:.4g}")
        else:
            for label, digest in workload_digests(name, args.seed, workloads).items():
                print(f"{label} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
