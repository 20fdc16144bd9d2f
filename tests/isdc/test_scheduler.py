"""End-to-end tests of the ISDC iterative scheduler."""

import pytest

from repro.designs.crypto import build_crc32
from repro.designs.ml_core import build_ml_core_datapath1
from repro.designs.suite import table1_suite
from repro.isdc.config import ExpansionStrategy, ExtractionStrategy, IsdcConfig
from repro.isdc.scheduler import IsdcScheduler


@pytest.fixture(scope="module")
def datapath1_result():
    """ISDC run on the small ML-core dot-product design (shared across tests)."""
    config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=8,
                        max_iterations=8)
    return IsdcScheduler(config).schedule(build_ml_core_datapath1())


class TestIsdcOutcome:
    def test_registers_never_increase(self, datapath1_result):
        assert datapath1_result.final_report.num_registers <= \
            datapath1_result.initial_report.num_registers

    def test_register_reduction_on_design_with_headroom(self, datapath1_result):
        assert datapath1_result.register_reduction > 0.0

    def test_final_schedule_respects_dependencies(self, datapath1_result):
        schedule = datapath1_result.final_schedule
        graph = schedule.graph
        for node in graph.nodes():
            for operand in node.operands:
                assert schedule.stage_of(operand) <= schedule.stage_of(node.node_id)

    def test_final_stages_meet_clock_post_synthesis(self, datapath1_result):
        assert datapath1_result.final_report.slack_ps >= 0.0

    def test_history_starts_with_initial_schedule(self, datapath1_result):
        history = datapath1_result.history
        assert history[0].iteration == 0
        assert history[0].subgraphs_evaluated == 0
        assert history[0].num_registers == \
            datapath1_result.initial_report.num_registers

    def test_runtime_ratio_above_one(self, datapath1_result):
        assert datapath1_result.runtime_ratio > 1.0
        assert datapath1_result.total_runtime_s > datapath1_result.baseline_runtime_s

    def test_estimation_error_shrinks(self, datapath1_result):
        errors = [e for e in datapath1_result.estimation_error_trajectory()
                  if e is not None]
        assert len(errors) >= 2
        assert errors[-1] <= errors[0]

    def test_trajectory_monotone_in_best(self, datapath1_result):
        trajectory = datapath1_result.register_trajectory()
        assert min(trajectory) == datapath1_result.final_report.num_registers


class TestConfigurationVariants:
    def test_delay_strategy_also_valid(self):
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=4,
                            max_iterations=3, extraction=ExtractionStrategy.DELAY,
                            expansion=ExpansionStrategy.PATH,
                            track_estimation_error=False)
        result = IsdcScheduler(config).schedule(build_ml_core_datapath1())
        assert result.final_report.num_registers <= result.initial_report.num_registers

    def test_closed_form_model_variant(self):
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=4,
                            max_iterations=3, use_characterized_delays=False,
                            track_estimation_error=False)
        result = IsdcScheduler(config).schedule(build_ml_core_datapath1())
        assert result.iterations >= 1

    def test_crc32_collapses_to_few_stages(self):
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=16,
                            max_iterations=10, track_estimation_error=False)
        result = IsdcScheduler(config).schedule(build_crc32(num_steps=16))
        assert result.final_report.num_stages <= result.initial_report.num_stages
        assert result.final_report.num_registers < result.initial_report.num_registers

    def test_iteration_cap_respected(self):
        config = IsdcConfig(clock_period_ps=2500.0, subgraphs_per_iteration=2,
                            max_iterations=2, track_estimation_error=False)
        result = IsdcScheduler(config).schedule(build_ml_core_datapath1())
        assert result.iterations <= 2
        assert len(result.history) <= 3


def test_weights_and_users_computed_once_per_graph(monkeypatch):
    """register_weights/users_map run once per run, not once per iteration.

    The persistent ScheduleProblem owns both; neither the baseline schedule
    nor any re-solve iteration may recompute them.
    """
    import repro.sdc.problem as problem_module

    calls = {"register_weights": 0, "users_map": 0}
    real_weights = problem_module.register_weights
    real_users = problem_module.users_map

    def counting_weights(graph):
        calls["register_weights"] += 1
        return real_weights(graph)

    def counting_users(graph):
        calls["users_map"] += 1
        return real_users(graph)

    monkeypatch.setattr(problem_module, "register_weights", counting_weights)
    monkeypatch.setattr(problem_module, "users_map", counting_users)

    case = next(case for case in table1_suite() if case.name == "rrot")
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=4, max_iterations=3,
                        patience=3, track_estimation_error=False,
                        use_characterized_delays=False, backend="estimator")
    scheduler = IsdcScheduler(config)
    result = scheduler.schedule(case.build())
    assert result.iterations >= 2
    assert scheduler.last_problem.rebuilds == result.iterations
    assert calls == {"register_weights": 1, "users_map": 1}
