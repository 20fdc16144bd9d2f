"""Tests for initiation-interval scheduling: constraints, search, verifier."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.verify import IRVerificationError, verify_ii_schedule
from repro.sdc.delays import critical_path_matrix, node_delays
from repro.sdc.loops import min_feasible_ii
from repro.sdc.problem import ScheduleProblem
from repro.sdc.scheduler import SdcScheduler
from repro.sdc.solver import SdcInfeasibleError, solve_problem
from repro.tech.delay_model import OperatorModel


@pytest.fixture(scope="module")
def model():
    return OperatorModel(pessimism=1.0)


def _accumulator():
    """One-add recurrence: schedulable at II 1 under any sane clock."""
    builder = GraphBuilder("accum")
    x = builder.param("x", 16)
    zero = builder.constant(0, 16)
    acc = builder.phi(zero, name="acc")
    total = builder.add(acc, x, name="total")
    builder.output(total)
    builder.back_edge(acc, total, distance=1)
    return builder.graph


def _mul_chain_loop(num_muls: int, distance: int = 1):
    """A recurrence through ``num_muls`` chained multiplies.

    At a clock that fits one multiply per stage, the recurrence needs
    ``num_muls`` stages, so the minimum II is
    ``ceil(num_muls / distance)``.
    """
    builder = GraphBuilder(f"mulchain{num_muls}")
    x = builder.param("x", 16)
    one = builder.constant(1, 16)
    acc = builder.phi(one, name="acc")
    value = acc
    for index in range(num_muls):
        value = builder.mul(value, x, name=f"m{index}", width=16)
    builder.output(value)
    builder.back_edge(acc, value, distance=distance)
    return builder.graph


def _problem(graph, model, clock_ps):
    scheduler = SdcScheduler(model, clock_period_ps=clock_ps)
    delays = node_delays(graph, model)
    matrix, index_of = critical_path_matrix(graph, delays)
    return ScheduleProblem(graph, matrix, index_of,
                           scheduler.timing_budget_ps)


class TestMinFeasibleIi:
    def test_single_cycle_recurrence_gets_ii_one(self, model):
        problem = _problem(_accumulator(), model, 2500.0)
        ii, stages = min_feasible_ii(problem)
        assert ii == 1
        assert problem.ii == 1
        assert stages

    def test_three_mul_recurrence_needs_ii_three(self, model):
        graph = _mul_chain_loop(3)
        problem = _problem(graph, model, 2500.0)
        ii, stages = min_feasible_ii(problem)
        assert ii == 3
        verify_ii_schedule(graph, stages, ii)

    def test_distance_relaxes_the_recurrence(self, model):
        graph = _mul_chain_loop(3, distance=3)
        ii, stages = min_feasible_ii(_problem(graph, model, 2500.0))
        assert ii == 1
        verify_ii_schedule(graph, stages, ii)

    def test_probe_trace_is_bracket_then_bisect(self, model):
        trace = []
        problem = _problem(_mul_chain_loop(3), model, 2500.0)
        min_feasible_ii(problem,
                        on_probe=lambda ii, ok, _: trace.append((ii, ok)))
        # 1 infeasible, doubled to 2 (infeasible), 4 (feasible), bisect 3.
        assert trace == [(1, False), (2, False), (4, True), (3, True)]

    def test_problem_left_rebased_at_answer(self, model):
        problem = _problem(_mul_chain_loop(5), model, 2500.0)
        ii, _ = min_feasible_ii(problem)
        assert problem.ii == ii
        # A fresh solve at the final rebased state is feasible...
        assert solve_problem(problem)
        # ...and one II below is not.
        problem.rebase_ii(ii - 1)
        with pytest.raises(SdcInfeasibleError):
            solve_problem(problem)

    def test_max_ii_cap_raises_when_exceeded(self, model):
        problem = _problem(_mul_chain_loop(4), model, 2500.0)
        with pytest.raises(SdcInfeasibleError):
            min_feasible_ii(problem, max_ii=2)
        with pytest.raises(ValueError):
            min_feasible_ii(problem, max_ii=0)

    def test_warm_rebase_matches_cold_build(self, model):
        """rebase_ii equals building the problem at that II."""
        graph = _mul_chain_loop(3)
        scheduler = SdcScheduler(model, clock_period_ps=2500.0)
        delays = node_delays(graph, model)
        matrix, index_of = critical_path_matrix(graph, delays)
        warm = ScheduleProblem(graph, matrix, index_of,
                               scheduler.timing_budget_ps)
        for ii in (3, 5, 2, 4):
            warm.rebase_ii(ii)
            cold = ScheduleProblem(graph, matrix, index_of,
                                   scheduler.timing_budget_ps, ii=ii)
            try:
                warm_stages = solve_problem(warm)
            except SdcInfeasibleError:
                with pytest.raises(SdcInfeasibleError):
                    solve_problem(cold)
                continue
            assert warm_stages == solve_problem(cold)

    def test_rebase_ii_rebuilds_the_loop_row(self, model):
        problem = _problem(_mul_chain_loop(2), model, 2500.0)
        problem.rebase_ii(4)
        assert problem.rebuilds == 1
        loop_rows = problem.system.rows_of("loop")
        assert len(loop_rows) == 1  # one back-edge
        assert loop_rows[0, 2] == 4 * 1 - 1
        problem.rebase_ii(4)  # no-op at the same II
        assert problem.rebuilds == 1


class TestSchedulerAutoIi:
    def test_dag_schedules_at_ii_one(self, adder_chain_graph, model):
        result = SdcScheduler(model, clock_period_ps=2500.0).schedule(
            adder_chain_graph)
        assert result.schedule.ii == 1

    def test_loop_graph_gets_minimum_ii(self, model):
        graph = _mul_chain_loop(3)
        result = SdcScheduler(model, clock_period_ps=2500.0).schedule(graph)
        assert result.schedule.ii == 3
        verify_ii_schedule(graph, result.schedule.stages, result.schedule.ii)

    def test_every_emitted_schedule_verifies(self, model):
        for num_muls in (1, 2, 4):
            for distance in (1, 2):
                graph = _mul_chain_loop(num_muls, distance=distance)
                result = SdcScheduler(model, clock_period_ps=2500.0).schedule(
                    graph)
                verify_ii_schedule(graph, result.schedule.stages,
                                   result.schedule.ii)


class TestVerifyIiSchedule:
    def test_rejects_ii_below_recurrence(self, model):
        graph = _mul_chain_loop(3)
        result = SdcScheduler(model, clock_period_ps=2500.0).schedule(graph)
        with pytest.raises(IRVerificationError):
            verify_ii_schedule(graph, result.schedule.stages, ii=1)

    def test_rejects_missing_node(self):
        graph = _accumulator()
        with pytest.raises(IRVerificationError, match="missing"):
            verify_ii_schedule(graph, {}, ii=1)

    def test_rejects_backwards_dependency(self):
        graph = _accumulator()
        stages = {n.node_id: 0 for n in graph.nodes()}
        out = max(stages)  # output node is created last
        stages[out] = -1
        with pytest.raises(IRVerificationError, match="after"):
            verify_ii_schedule(graph, stages, ii=1)

    def test_rejects_non_positive_ii(self):
        graph = _accumulator()
        stages = {n.node_id: 0 for n in graph.nodes()}
        with pytest.raises(IRVerificationError, match="II"):
            verify_ii_schedule(graph, stages, ii=0)
