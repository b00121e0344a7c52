"""tools/output_digest.py: one digest per workload, moved by any output bit."""

import hashlib
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

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
    first = tool.workload_digests("fit_bound", [1], workloads)
    assert list(first) == ["fit_bound"]
    assert first == tool.workload_digests("fit_bound", [1], workloads)
    assert first != tool.workload_digests("fit_bound", [2], workloads)

    run_op, calls = workloads.run_op, []

    def nudged(case):
        out = run_op(case)
        calls.append(case)
        return one_ulp_up(out) if len(calls) == 7 else out

    monkeypatch.setattr(workloads, "run_op", nudged)
    assert tool.workload_digests("fit_bound", [1], workloads) != first


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


def stub_workloads(pools):
    """A workloads module whose pool of workload w at seed s is pools[w][s].

    Each case carries its output (an exception is raised) and its check reason.
    """
    def run_op(case):
        if isinstance(case.out, BaseException):
            raise case.out
        return case.out

    return SimpleNamespace(
        WORKLOADS={name: name for name in pools},
        GFS_TOL={("analytic", "gaussian", 2, 64): 1e-6},
        TABLE_TOL={("gaussian", 32, method): 1e-3 for method in ("fd", "gfs")},
        make_cases=lambda spec, seed: (pools[spec].get(seed, []), None),
        prepare=lambda case: case,
        run_op=run_op,
        check=lambda case, out: case.reason)


def derivative_case(err, reason=None):
    exact = np.linspace(-1.0, 1.0, 5)
    out = exact.copy()
    out[2] += err
    return SimpleNamespace(jumps="analytic", function="gaussian", n=2, N=64, exact=exact,
                           out=out, reason=reason)


def table_case(fd, gfs, reason=None):
    rows = [row(method="fd", e_inf=fd), row(method="gfs", e_inf=gfs),
            row(method="prony", e_inf=math.inf, note="IllConditioned")]
    return SimpleNamespace(jumps="table", function="gaussian", N=32, out=rows, reason=reason)


def test_margins_print_the_worst_passing_op_per_workload_and_method(monkeypatch, capsys):
    tool = load_tool()
    fake = stub_workloads({
        "fit_bound": {
            1: [derivative_case(2e-7), derivative_case(0.0, ArithmeticError("root 0 residual")),
                derivative_case(5e-6, "ToleranceMiss")],
            2: [derivative_case(-5e-7), derivative_case(1e-7)]},
        "error_tables": {
            1: [table_case(1e-4, 2e-4), table_case(5e-4, 1e-4),
                table_case(9e-4, 5e-3, "ToleranceMiss:gfs")]},
    })
    assert tool.workload_margins("fit_bound", [1, 2], fake) == {"fit_bound": (0.5, 2, 0)}
    monkeypatch.setattr(tool, "import_workloads", lambda: fake)
    assert tool.main(["--margins", "--workload", "fit_bound", "--workload", "error_tables",
                      "--seed", "1", "2"]) == 0
    assert capsys.readouterr().out == ("fit_bound 2 0 0.5\n"
                                       "error_tables:fd 1 1 0.5\n"
                                       "error_tables:gfs 1 0 0.2\n")


def test_error_tables_get_one_digest_per_method(monkeypatch, capsys):
    tool = load_tool()
    pool = {1: [table_case(1e-4, 2e-4), table_case(5e-4, 1e-4)], 2: [table_case(3e-4, 3e-4)]}
    base = tool.workload_digests("error_tables", [1, 2], stub_workloads({"error_tables": pool}))
    assert list(base) == ["error_tables", "error_tables:fd", "error_tables:gfs", "error_tables:prony"]

    # a prony row that now fits moves the workload's digest and prony's alone
    moved = dict(pool)
    moved[2] = [table_case(3e-4, 3e-4)]
    moved[2][0].out[2] = row(method="prony", e_inf=0.25)
    after = tool.workload_digests("error_tables", [1, 2], stub_workloads({"error_tables": moved}))
    assert [label for label in base if after[label] != base[label]] == ["error_tables",
                                                                         "error_tables:prony"]

    # the same rows at another case index are another output
    shifted = {1: [table_case(1e-4, 2e-4)], 2: [table_case(5e-4, 1e-4), table_case(3e-4, 3e-4)]}
    after = tool.workload_digests("error_tables", [1, 2], stub_workloads({"error_tables": shifted}))
    assert all(after[label] != base[label] for label in base)

    monkeypatch.setattr(tool, "import_workloads", lambda: stub_workloads({"error_tables": pool}))
    assert tool.main(["--workload", "error_tables", "--seed", "1", "2"]) == 0
    assert capsys.readouterr().out == "".join(f"{label} {digest}\n" for label, digest in base.items())
