"""Smoke test of the benchmark itself, at minimal size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs with ``--smoke`` (one small design, about a second of
measurement) untraced and traced.  The test checks that the last output
line is the result object, that every metric ``BENCHMARK.json`` names is
printed with its unit, and that a deliberately broken schedule is counted
as a failed op rather than passing its checks.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(workload: str, trace: int) -> tuple[list[str], dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload: str, trace: int) -> None:
    lines, result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.split()[1:2] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]


def test_broken_schedule_is_a_failed_op(monkeypatch) -> None:
    import isdc_table1
    from repro.sdc.scheduler import Schedule

    class BrokenScheduler(isdc_table1.IsdcScheduler):
        """Returns a final schedule with one dependency edge reversed."""

        def schedule(self, graph):
            result = super().schedule(graph)
            stages = dict(result.final_schedule.stages)
            node = next(node for node in graph.nodes() if node.operands)
            stages[node.operands[0]] = stages[node.node_id] + 1
            broken = Schedule(
                graph=graph,
                clock_period_ps=result.final_schedule.clock_period_ps,
                stages=stages)
            return dataclasses.replace(result, final_schedule=broken)

    workload = isdc_table1.IsdcTable1(seed=0, smoke=True)
    monkeypatch.setattr(isdc_table1, "IsdcScheduler", BrokenScheduler)
    op = workload.run_op(workload.cases[0])
    assert op.failed
    assert any("runs backwards" in problem for problem in op.problems)
