"""BENCHMARK.json lists exactly the metrics that run.py prints, with their units."""

import json
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_end_to_end_metrics_match():
    printed = run.end_to_end_metrics(0.5, [1.0, 2.0], [1.0, 2.0])
    assert units(SPEC["end_to_end"]) == {name: unit for name, (_, unit) in printed.items()}


def test_per_layer_metrics_match():
    printed = run.layer_metrics({}, run.SlotMeter(), [1.0], 1.0, [], [])
    assert units(SPEC["per_layer"]) == {name: unit for name, (_, unit) in printed.items()}


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
