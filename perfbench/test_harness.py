"""Tests of the benchmark harness: its manifest and its tracer."""

import json
from pathlib import Path

import gridshave
import gridshave.run
import gridshave.scenario

import run
import workloads
from tracer import Tracer


def test_manifest_names_what_the_benchmark_prints():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                     .read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.NAMES) == list(workloads.WORKLOADS)


def test_tracer_sees_calls_between_layers_and_restores_them():
    original = gridshave.scenario.split_days
    scenario = gridshave.generate_synthetic(seed=1)
    tracer = Tracer()
    tracer.install()
    try:
        assert gridshave.run.split_days is not original
        gridshave.run.build_problems(scenario, gridshave.DEFAULT_PLANT,
                                     gridshave.DEFAULT_COP_MODEL, gridshave.DEFAULT_TES)
    finally:
        tracer.uninstall()
    assert gridshave.run.split_days is original
    summary = tracer.summary()
    assert summary["calls"] == {"run.build_problems": 1, "scenario.split_days": 1,
                                "scenario.no_storage_baseline": 3}
    outer = summary["busy_s"]["run.build_problems"]
    inner = summary["busy_s"]["scenario.split_days"] + \
        summary["busy_s"]["scenario.no_storage_baseline"]
    assert abs(summary["self_s"]["run.build_problems"] - (outer - inner)) < 1e-9
