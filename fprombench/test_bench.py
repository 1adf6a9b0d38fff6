"""Smoke test of the benchmark harness at toy sizes.

Run from the repository root:

    python3 -m pytest -q fprombench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402


def _check_metrics(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))


def test_every_end_to_end_metric_is_emitted_and_outputs_pass():
    for name in bench.WORKLOADS:
        result = bench.run_workload(name, 3, 0, False, "toy")["result"]
        _check_metrics(result, bench.END_TO_END)
        assert result["correct"], name
        assert result["failed"] == 0
        json.dumps(result, allow_nan=False)


def test_traced_run_nests_spans_and_reports_every_layer():
    out = bench.run_workload("calibrate_tv", 0, 0, True, "toy")
    result = out["result"]
    _check_metrics(result, bench.PER_LAYER)
    assert result["correct"]
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["calibrate.loss.calls"] >= 50
    assert layers["solver.solve.steps"] > 0
    assert layers["solver.solve.node_steps"] == 129 * layers["solver.solve.steps"]
    assert layers["cli.main.calls"] == 3

    spans = out["traced"]["spans"]
    nested = 0
    for sid, name, start, end, parent, _ in spans:
        assert spans[sid][0] == sid and end >= start
        if parent is None:
            assert name == "cli.main"
            continue
        assert parent < sid
        assert spans[parent][2] <= start and end <= spans[parent][3]
        if name == "solver.solve" and spans[parent][1] == "calibrate.loss":
            assert spans[spans[parent][4]][1] == "calibrate.calibrate"
            nested += 1
    assert nested >= 50


def test_failing_command_is_counted_not_raised():
    result = bench.run_workload("calibrate_tv", 0, 0, False, "toy",
                                sabotage="predict")["result"]
    _check_metrics(result, bench.END_TO_END)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_command_past_the_run_deadline_is_not_started(tmp_path):
    res = bench.run_child([["--version"]], tmp_path, False, bench.child_env(),
                          deadline=time.monotonic() - 1.0)
    assert "error" in res
    assert not list(tmp_path.iterdir())


def test_missing_function_is_reported_not_fatal():
    recorder = tracer.install(tracer.Recorder(), {("grid", "no_such_function"): None})
    assert recorder.missing == ["grid.no_such_function"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "workflow",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
