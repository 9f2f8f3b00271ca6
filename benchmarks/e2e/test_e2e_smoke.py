"""Smoke test of the benchmark itself: all four workloads at tiny sizes.

Collected by the tier-1 command (``PYTHONPATH=src python -m pytest -x -q``);
it checks the harness, not the engine's speed — every metric named in
``BENCHMARK.json`` is emitted where it applies, inputs and answers repeat, the
tracer resolves every target on this tree and leaves no wrapper behind.
"""

from __future__ import annotations

import inspect
import json
import re

import pytest

from benchmarks.e2e import metrics as metric_table
from benchmarks.e2e.run import BENCHMARK_JSON, driver_line
from benchmarks.e2e.trace import WRAP_TABLE, _resolve
from benchmarks.e2e.workloads import TINY_SIZES, run_workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def _current_targets():
    return {wrap.target: _resolve(wrap.target)[2] for wrap in WRAP_TABLE}


@pytest.mark.parametrize("workload", metric_table.WORKLOADS)
def test_workload_emits_every_declared_metric(workload, declared, tmp_path):
    before = _current_targets()
    work = tmp_path / "work"
    plain = run_workload(workload, seed=7, seconds=1, sizes=TINY_SIZES[workload],
                         work_root=str(work))
    traced = run_workload(workload, seed=7, seconds=1, trace=True,
                          sizes=TINY_SIZES[workload], work_root=str(work))
    after = _current_targets()

    assert plain["correct"], plain["problems"]
    assert traced["correct"], traced["problems"]
    assert plain["failed"] == 0 and plain["metrics"]["failed_ops_share"] == 0
    assert plain["digests"] == traced["digests"]          # same inputs, same answers
    assert traced["unresolved"] == []
    assert traced["layers"]["trace.unresolved"] == 0
    assert all(before[target] is after[target] for target in before), "wrappers left behind"
    assert not any(hasattr(value, "__wrapped__") and inspect.isfunction(value)
                   and value.__module__ == "benchmarks.e2e.trace" for value in after.values())
    assert not work.exists(), "scratch data left behind"

    end_to_end = driver_line(plain, traced=False)["metrics"]
    per_layer = driver_line(traced, traced=True)["metrics"]
    assert list(end_to_end) == [m["name"] for m in declared["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    for name in list(end_to_end) + list(per_layer):
        assert NAME.fullmatch(name), name
    for metric in metric_table.END_TO_END:
        assert plain["metrics"][metric.name] > 0, metric.name
    for metric in metric_table.WORKLOAD_SPECIFIC:
        assert (metric.name in plain["metrics"]) == (workload in metric.applies), metric.name
    for metric in metric_table.PER_LAYER:
        assert (metric.name in traced["layers"]) == (workload in metric.applies), metric.name


def test_benchmark_json_matches_the_metric_table(declared):
    assert [w["name"] for w in declared["workloads"]] == list(metric_table.WORKLOADS)
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] \
        == [(m.name, m.unit, m.better, m.bound) for m in metric_table.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in metric_table.driver_per_layer()]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in declared["end_to_end"])
