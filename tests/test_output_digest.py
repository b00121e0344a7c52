"""tools/output_digest.py: one digest per workload, moved by any output bit."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from gfs.bench import ExperimentRow

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_ulp_up(out):
    out = out.copy()
    out[len(out) // 2] = np.nextafter(out[len(out) // 2], np.inf)
    return out


def row(**changes):
    fields = dict(method="gfs", function="gaussian", N=32, param="", jump_source="analytic",
                  e_inf=1.5e-9, e_2=2.5e-9, wall_ms=0.4, note="")
    return ExperimentRow(**{**fields, **changes})


def digest_of(tool, out):
    digest = hashlib.sha256()
    tool.update(digest, out)
    return digest.hexdigest()


def test_digest_repeats_and_moves_with_one_ulp(monkeypatch):
    tool = load_tool()
    workloads = tool.import_workloads()
    first = tool.workload_digest("fit_bound", [1], workloads)
    assert first == tool.workload_digest("fit_bound", [1], workloads)
    assert first != tool.workload_digest("fit_bound", [2], workloads)

    run_op, calls = workloads.run_op, []

    def nudged(case):
        out = run_op(case)
        calls.append(case)
        return one_ulp_up(out) if len(calls) == 7 else out

    monkeypatch.setattr(workloads, "run_op", nudged)
    assert tool.workload_digest("fit_bound", [1], workloads) != first


def test_rows_hash_errors_and_note_but_not_wall_time():
    tool = load_tool()
    base = digest_of(tool, [row(), row(method="fft")])
    assert digest_of(tool, [row(wall_ms=9.0), row(method="fft")]) == base
    for changed in (row(e_inf=np.nextafter(1.5e-9, 1.0)), row(e_2=np.nextafter(2.5e-9, 0.0)),
                    row(note="RealnessViolation"), row(method="fd")):
        assert digest_of(tool, [changed, row(method="fft")]) != base


def test_exceptions_hash_type_and_message():
    tool = load_tool()
    base = digest_of(tool, ArithmeticError("root 0 residual"))
    assert digest_of(tool, ArithmeticError("root 0 residual")) == base
    assert digest_of(tool, ArithmeticError("root 1 residual")) != base
    assert digest_of(tool, ValueError("root 0 residual")) != base


def test_failures_list_each_op_that_raises_or_misses_its_check(monkeypatch, capsys):
    tool = load_tool()
    workloads = tool.import_workloads()
    assert tool.workload_failures("fit_bound", [1], workloads) == []

    run_op, calls = workloads.run_op, []

    def broken(case):
        calls.append(case)
        if len(calls) == 4:
            raise ArithmeticError("root 0 residual")
        out = run_op(case)
        return out + 1.0 if len(calls) == 7 else out

    monkeypatch.setattr(workloads, "run_op", broken)
    assert tool.main(["--failures", "--workload", "fit_bound", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "fit_bound 1 3 ArithmeticError\nfit_bound 1 6 ToleranceMiss\n"
