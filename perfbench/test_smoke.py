"""Smoke test of the benchmark at its smallest size: one round per workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Asserts the metric schema against BENCHMARK.json and that every output
check passes; it says nothing about speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _schema(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_traced_round(name, tmp_path):
    tracer = Tracer()
    tracer.install(workloads.LAYERS)
    try:
        with tracer.root("setup", "setup"):
            wl = workloads.WORKLOADS[name](0, tmp_path)
        result = worker.measure(wl, 0.0, tracer)
    finally:
        tracer.uninstall()
    for layer, fn in workloads.LAYERS.items():
        module, attr = layer.rsplit(".", 1)
        assert getattr(sys.modules["dyngame." + module], attr) is fn
    assert result["failed"] == 0
    assert result["meta"]["jobs_timed"] >= 1
    result["layers"] = worker.layer_metrics(tracer, result["meta"]["jobs_timed"])

    e2e = run.end_to_end(result, [(1.0, 10.0)])
    assert {k: unit for k, (_, unit) in e2e.items()} == _schema("end_to_end")
    assert all(value > 0 for value, _ in e2e.values())
    layers = run.per_layer(result)
    assert {k: unit for k, (_, unit) in layers.items()} == _schema("per_layer")
    assert layers["job.self_frac"][0] <= 0.1


def test_command_prints_result_line():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "verify-family",
                           "--seed", "0", "--seconds", "0.1", "--trace", "0"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == set(_schema("end_to_end"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-long",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
