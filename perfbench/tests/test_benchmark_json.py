"""BENCHMARK.json against the suite that implements it."""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.suite import DEFAULT_SECONDS, run_untraced
from perfbench.tests.conftest import ROOT, SMOKE_SECONDS, smoke_spec
from perfbench.tracing import run_traced
from perfbench.workloads import SPECS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> "dict":
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return dict(json.load(handle))


def test_top_level_shape(declared: dict) -> None:
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["run_seconds"] == DEFAULT_SECONDS
    assert declared["paths"] == ["perfbench"]
    assert declared["command"][1] == "perfbench/run.py"


def test_names_and_caps(declared: dict) -> None:
    workloads = declared["workloads"]
    e2e, layers = declared["end_to_end"], declared["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [item["name"] for item in [*workloads, *e2e, *layers]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in [*e2e, *layers]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric


def test_workloads_match_specs(declared: dict) -> None:
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        spec.name: spec.why for spec in SPECS.values()
    }
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for spec in SPECS.values():
        assert spec.clients <= 2  # the box has two cores


def test_metrics_match_declarations(declared: dict) -> None:
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_moves_something_that_exists() -> None:
    e2e = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        assert metric.moves, metric.name
        for moved, workload in metric.moves:
            assert moved in e2e, (metric.name, moved)
            assert workload in SPECS, (metric.name, workload)


def test_smoke_run_emits_the_declared_end_to_end_metrics(
    workload: str, declared: dict, tmp_path: "os.PathLike[str]"
) -> None:
    result = run_untraced(smoke_spec(workload), 3, SMOKE_SECONDS, str(tmp_path))
    assert result.correct, result.lines
    assert result.attempted >= 1
    expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {name: unit for name, (_, unit) in result.metrics.items()} == expected
    assert all(value > 0 for value, _ in result.metrics.values())
    summary = json.loads(result.summary())
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}


def test_traced_smoke_run_emits_the_declared_per_layer_metrics(
    workload: str, declared: dict, tmp_path: "os.PathLike[str]"
) -> None:
    result = run_traced(smoke_spec(workload), 4, 2 * SMOKE_SECONDS, str(tmp_path))
    assert result.correct, result.lines
    expected = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {name: unit for name, (_, unit) in result.metrics.items()} == expected
    assert result.extra["hooks"]
    assert "absent hooks: none" in result.lines[1]
