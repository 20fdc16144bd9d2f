"""Every ISDC re-solve equals a cold SDC solve of the iteration's delays.

The ISDC loop keeps one persistent :class:`~repro.sdc.problem.ScheduleProblem`
per graph and re-solves it through :func:`repro.sdc.solver.resolve`.  The
guarantee pinned down here: each re-solve returns exactly the schedule a
freshly built problem would give on that iteration's delay matrix, on every
design of the arith + misc suites, and a whole run is byte-for-byte
repeatable apart from its wall-clock fields.
"""

import dataclasses
import json
import pickle

import pytest

import repro.isdc.scheduler as scheduler_module
from repro.designs.suite import table1_suite
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.sdc.problem import ScheduleProblem
from repro.sdc.solver import solve_lp

# The arith suite designs plus the misc-package design, by Table-I row name.
ARITH_MISC_DESIGNS = (
    "rrot",
    "binary divide",
    "float32 fast rsqrt",
    "fpexp 32",
    "internal datapath",
)


def _case(name):
    return next(case for case in table1_suite() if case.name == name)


def _run(name: str, backend: str = "estimator"):
    case = _case(name)
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=4, max_iterations=3,
                        patience=3, track_estimation_error=False,
                        use_characterized_delays=(backend == "local"),
                        backend=backend)
    scheduler = IsdcScheduler(config)
    result = scheduler.schedule(case.build())
    if hasattr(scheduler.feedback.backend, "close"):
        scheduler.feedback.backend.close()
    return result, scheduler


def _recording_resolve(monkeypatch):
    """Wrap the loop's ``resolve`` so every call's inputs and output are kept."""
    calls = []
    real_resolve = scheduler_module.resolve

    def recording(problem, matrix, index_of):
        solution = real_resolve(problem, matrix, index_of)
        calls.append((matrix.copy(), dict(index_of), dict(solution)))
        return solution

    monkeypatch.setattr(scheduler_module, "resolve", recording)
    return calls


def _cold_solve(graph, matrix, index_of, timing_budget_ps):
    fresh = ScheduleProblem(graph, matrix, index_of, timing_budget_ps)
    return solve_lp(fresh.system, fresh.register_weights, fresh.users_map,
                    fresh.latency_weight)


def _canonical_history(result):
    """The history with wall-clock fields zeroed (everything else compared)."""
    return [dataclasses.replace(record, runtime_s=0.0, solver_runtime_s=0.0,
                                synthesis_runtime_s=0.0)
            for record in result.history]


def _canonical_json(result):
    """Serialized run outcome with the wall-clock fields dropped."""
    payload = {
        "design": result.design,
        "initial_stages": sorted(result.initial_schedule.stages.items()),
        "final_stages": sorted(result.final_schedule.stages.items()),
        "iterations": result.iterations,
        "subgraphs_evaluated": result.subgraphs_evaluated,
        "initial_registers": result.initial_report.num_registers,
        "final_registers": result.final_report.num_registers,
        "final_slack_ps": result.final_report.slack_ps,
        "history": [dataclasses.asdict(record)
                    for record in _canonical_history(result)],
    }
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("design", ARITH_MISC_DESIGNS)
def test_resolve_matches_a_cold_solve_on_arith_misc(design, monkeypatch):
    # Local synthesis feedback, which moves the schedule on most of these
    # designs; the estimator backend leaves it where the baseline put it.
    calls = _recording_resolve(monkeypatch)
    result, scheduler = _run(design, backend="local")
    problem = scheduler.last_problem

    assert result.iterations >= 2
    assert len(calls) == result.iterations
    for matrix, index_of, solution in calls:
        assert solution == _cold_solve(problem.graph, matrix, index_of,
                                       problem.timing_budget_ps)

    # Two runs of the same design are identical up to wall-clock time.
    monkeypatch.undo()
    first, _ = _run(design)
    again, _ = _run(design)
    assert pickle.dumps(_canonical_history(first)) == \
        pickle.dumps(_canonical_history(again))
    assert _canonical_json(first) == _canonical_json(again)


def test_resolve_follows_the_feedback(monkeypatch):
    """Every re-solve sees the iteration's delays, not the baseline's."""
    calls = _recording_resolve(monkeypatch)
    result, _ = _run("rrot", backend="local")
    baseline = result.initial_schedule.stages

    assert result.final_schedule.stages != baseline
    assert calls
    for _, _, solution in calls:
        assert solution != baseline


def test_each_iteration_rebuilds_once():
    """The loop rebuilds once per iteration and never rebases the budget."""
    result, scheduler = _run("fpexp 32")
    assert result.iterations >= 2
    assert scheduler.last_problem.rebuilds == result.iterations
