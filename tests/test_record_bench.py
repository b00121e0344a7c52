"""Schema of the BENCH_<label>.json file, with a stubbed perfbench runner."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_tool():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_runner(calls):
    def run(workload, seed, trace):
        calls.append((workload, seed, trace))
        names = BENCHMARK["per_layer" if trace else "end_to_end"]
        diag = {"workload": workload, "meta": {"commit": "abc", "seed": seed},
                "speed_factor": 1.0, "raised_by_type": {}, "wrong_by_reason": {}}
        if trace:
            diag["functions"] = {"core.evaluate_aperiodic": {"calls": 1}}
        result = {"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in names}}
        return diag, result
    return run


def test_file_schema(monkeypatch, tmp_path):
    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    calls = []
    assert tool.main(["--label", "x", "--seed", "7"], runner=stub_runner(calls)) == 0
    data = json.loads((tmp_path / "BENCH_x.json").read_text())
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    # every workload, untraced then traced, at the given seed
    assert calls == [(w, 7, trace) for w in workloads for trace in (0, 1)]
    assert set(data) == {"label", "seed", "seconds", "dirty", "meta", "runs"}
    assert (data["label"], data["seed"], data["seconds"]) == ("x", 7, BENCHMARK["run_seconds"])
    assert data["dirty"] is None  # tmp_path is not a git checkout
    assert data["meta"]["commit"] == "abc"
    assert set(data["runs"]) == set(workloads)
    for w in workloads:
        assert set(data["runs"][w]) == {"untraced", "traced"}
        for mode, names in (("untraced", "end_to_end"), ("traced", "per_layer")):
            run = data["runs"][w][mode]
            assert {"correct", "attempted", "failed", "metrics", "diagnostics"} <= set(run)
            assert set(run["metrics"]) == {m["name"] for m in BENCHMARK[names]}
            assert set(run["metrics"][BENCHMARK[names][0]["name"]]) == {"value", "unit"}
            assert "functions" not in run["diagnostics"]
            assert run["diagnostics"]["workload"] == w


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_dirty_flag_follows_tracked_files(monkeypatch, tmp_path):
    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", str(tmp_path))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    def dirty():
        assert tool.main(["--label", "x", "--seed", "7"], runner=stub_runner([])) == 0
        return json.loads((tmp_path / "BENCH_x.json").read_text())["dirty"]

    git("init", "-q")
    git("add", "BENCHMARK.json")
    git("commit", "-q", "-m", "benchmark")
    assert dirty() is False  # the untracked BENCH_x.json does not count
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK, indent=2))
    assert dirty() is True
