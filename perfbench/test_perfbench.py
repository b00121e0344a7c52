"""Tests of the benchmark itself: output schema, a smoke run of every workload,
and the tracer's wrap/restore and self-time bookkeeping.

    python3 -m pytest perfbench
"""

import json
import os

import pytest

import run

run.import_gfs()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def run_once(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_untraced(capsys, monkeypatch, tmp_path, workload):
    diag, result = run_once(capsys, monkeypatch, tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["attempted"] == diag["latency_samples"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert diag["meta"]["seed"] == 7


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced(capsys, monkeypatch, tmp_path, workload):
    diag, result = run_once(capsys, monkeypatch, tmp_path, workload, trace=1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert diag["absent"] == []
    assert diag["info_errors"] == 0
    with open(os.path.join(run.ROOT, diag["spans_file"])) as fh:
        header = json.loads(fh.readline())
        span = json.loads(fh.readline())
    assert header["workload"] == workload
    assert len(span) == 7


def test_same_seed_same_inputs():
    spec = workloads.WORKLOADS["fd_jumps"]
    a, _ = workloads.make_cases(spec, 3)
    b, _ = workloads.make_cases(spec, 3)
    assert [(c.function, c.params, c.N, c.n, c.a, c.b) for c in a] == \
           [(c.function, c.params, c.N, c.n, c.a, c.b) for c in b]


def test_pool_prefixes_are_balanced():
    spec = workloads.WORKLOADS["fit_bound"]
    cases, n_combos = workloads.make_cases(spec, 5)
    first = {(c.function, c.N, c.n) for c in cases[:n_combos]}
    assert len(first) == n_combos


def test_tracer_restores_every_attribute():
    tracer = tracing.Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer.targets]
    assert len(originals) > len(tracing.NAMED)
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        spec = workloads.WORKLOADS["fit_bound"]
        cases, _ = workloads.make_cases(spec, 1)
        workloads.run_op(workloads.prepare(cases[0]))
        with pytest.raises(ValueError):
            import gfs.jumps
            gfs.jumps.fd_weights(3, 2)  # width must exceed the order
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert tracer.spans and tracer.spans[-1][5] == "ValueError"


def test_absent_target_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "NAMED", tracing.NAMED | {"core.no_such_stage"})
    assert tracing.Tracer().absent == ["core.no_such_stage"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        ("core.gfs_decompose", 0.0, 10.0, -1, 0, None, None),
        ("core.build_aperiodic_model", 1.0, 4.0, 0, 0, None, (3, 4)),
        ("core.evaluate_aperiodic", 5.0, 9.0, 0, 0, None, 100),
    ])
    tracer.ops.append((0, 0.0, 12.0))
    metrics, table = tracing.summarize(tracer, first_pass_ops=1)
    assert table["core.gfs_decompose"]["self_ms_per_op"] == pytest.approx(3e3)
    assert metrics["core.evaluate_aperiodic.mode_points"] == (100, "count")
    assert metrics["core.modes_kept_frac"] == (0.75, "frac")
    assert metrics["split.core.self_frac"][0] == pytest.approx(10.0 / 12.0)
    assert metrics["split.op_glue.self_frac"][0] == pytest.approx(2.0 / 12.0)



def test_set_up_survives_a_raising_op(monkeypatch):
    # A warm-up op that raises (such as RealnessViolation on some draws) is
    # left for the timed loop to count; it must not abort the set-up.
    real = workloads.run_op
    calls = []

    def first_raises(case):
        calls.append(case)
        if len(calls) == 1:
            raise ArithmeticError("injected")
        return real(case)

    monkeypatch.setattr(workloads, "run_op", first_raises)
    cases, raw, scaled = run.set_up(workloads.WORKLOADS["fit_bound"], 1)
    assert len(calls) > 1 and raw > 0 and scaled > 0
