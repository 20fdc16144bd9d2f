"""Tests for the persistent ScheduleProblem, its rebuilds and the LP assembly."""

import numpy as np
import pytest

from repro.designs.arith import build_rrot
from repro.sdc.constraints import ConstraintSystem
from repro.sdc.solver import solve_problem
from repro.sdc.delays import critical_path_matrix, node_delays
from repro.sdc.problem import ScheduleProblem, assemble_lp
from repro.sdc.scheduler import SdcScheduler
from repro.sdc.solver import resolve, solve_lp
from repro.tech.delay_model import OperatorModel

CLOCK_PS = 2500.0


@pytest.fixture()
def rrot_setup():
    """Graph, naive delay matrix and a ScheduleProblem for a small design."""
    graph = build_rrot(width=32, num_rounds=6)
    scheduler = SdcScheduler(delay_model=OperatorModel(),
                             clock_period_ps=CLOCK_PS)
    delays = node_delays(graph, scheduler.delay_model)
    matrix, index_of = critical_path_matrix(graph, delays)
    problem = ScheduleProblem(graph, matrix, index_of,
                              scheduler.timing_budget_ps)
    return graph, matrix, index_of, problem, scheduler


class TestScheduleProblem:
    def test_system_matches_scratch_build(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        scratch = scheduler.build_constraints(graph, matrix, index_of)
        assert [(c.u, c.v, c.bound, c.kind) for c in problem.system] == \
            [(c.u, c.v, c.bound, c.kind) for c in scratch]
        assert problem.system.pinned == scratch.pinned

    def test_weights_and_users_cached(self, rrot_setup):
        _, _, _, problem, _ = rrot_setup
        assert problem.register_weights
        assert problem.users_map
        assert problem.register_weights is problem.register_weights

    def test_rebuild_relaxes_a_lowered_timing_bound(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        budget = scheduler.timing_budget_ps
        # Pick a timing constraint spanning >= 2 cycles and lower its delay
        # so the constraint relaxes to one stage boundary but survives.
        pair = next((c.u, c.v) for c in problem.system
                    if c.kind == "timing" and c.bound <= -2)
        matrix[index_of[pair[0]], index_of[pair[1]]] = budget * 1.5
        problem.rebuild(matrix, index_of)
        bounds = {(c.u, c.v): (row, c.bound)
                  for row, c in enumerate(problem.system)
                  if c.kind == "timing"}
        row, bound = bounds[pair]
        assert bound == -1
        assert problem.lp().b_ub[row] == -1.0

    def test_rebuild_drops_a_vanishing_constraint(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        timing_pairs = len(problem.system.rows_of("timing"))
        pair = next((c.u, c.v) for c in problem.system if c.kind == "timing")
        matrix[index_of[pair[0]], index_of[pair[1]]] = \
            scheduler.timing_budget_ps / 2
        problem.rebuild(matrix, index_of)
        assert pair not in {(c.u, c.v) for c in problem.system
                            if c.kind == "timing"}
        assert len(problem.system.rows_of("timing")) == timing_pairs - 1

    def test_rebuild_ignores_the_diagonal(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        before = [(c.u, c.v, c.bound, c.kind) for c in problem.system]
        node = next(iter(index_of))
        matrix[index_of[node], index_of[node]] = \
            scheduler.timing_budget_ps * 10
        problem.rebuild(matrix, index_of)
        assert [(c.u, c.v, c.bound, c.kind) for c in problem.system] == before

    def test_rebuild_keeps_the_objective_data(self, rrot_setup):
        graph, matrix, index_of, problem, _ = rrot_setup
        weights, users = problem.register_weights, problem.users_map
        problem.rebuild(matrix, index_of)
        assert problem.register_weights is weights
        assert problem.users_map is users

    def test_rebuild_counts_and_invalidates(self, rrot_setup):
        graph, matrix, index_of, problem, _ = rrot_setup
        lp_before = problem.lp()
        problem.rebuild(matrix, index_of)
        assert problem.rebuilds == 1
        assert problem.lp() is not lp_before


class TestRebase:
    """Rebases set the field and rebuild: the result is a fresh build's."""

    def _assert_same_problem(self, problem, fresh):
        np.testing.assert_array_equal(problem.system.rows, fresh.system.rows)
        assert problem.system.pinned == fresh.system.pinned
        lp, fresh_lp = problem.lp(), fresh.lp()
        np.testing.assert_array_equal(lp.a_ub.toarray(),
                                      fresh_lp.a_ub.toarray())
        np.testing.assert_array_equal(lp.b_ub, fresh_lp.b_ub)
        np.testing.assert_array_equal(lp.objective, fresh_lp.objective)
        assert lp.bounds == fresh_lp.bounds

    @pytest.mark.parametrize("scale", [0.45, 0.8, 1.3, 3.0])
    def test_rebase_timing_equals_a_fresh_build(self, rrot_setup, scale):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        solve_problem(problem)  # a cached LP must not survive the rebase
        target = scheduler.timing_budget_ps * scale
        problem.rebase_timing(matrix, index_of, target)
        assert problem.timing_budget_ps == target
        assert problem.rebuilds == 1
        fresh = ScheduleProblem(graph, matrix, index_of, target)
        self._assert_same_problem(problem, fresh)
        assert solve_problem(problem) == solve_problem(fresh)

    def test_rebase_ii_rebuilds_from_the_last_matrix(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        problem.rebase_ii(3)
        assert problem.ii == 3 and problem.rebuilds == 1
        problem.rebase_ii(3)  # the same II is a no-op
        assert problem.rebuilds == 1
        fresh = ScheduleProblem(graph, matrix, index_of,
                                scheduler.timing_budget_ps, ii=3)
        self._assert_same_problem(problem, fresh)
        with pytest.raises(ValueError):
            problem.rebase_ii(0)


class TestResolve:
    def test_resolve_matches_a_fresh_problem(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        lp_before = problem.lp()
        # Relax every timing constraint's delay by 10%, as feedback would.
        for constraint in problem.system.constraints("timing"):
            row, col = index_of[constraint.u], index_of[constraint.v]
            matrix[row, col] *= 0.9
        schedule = resolve(problem, matrix, index_of)
        assert problem.rebuilds == 1
        assert problem.lp() is not lp_before

        fresh = ScheduleProblem(graph, matrix, index_of,
                                scheduler.timing_budget_ps)
        reference = solve_lp(fresh.system, fresh.register_weights,
                             fresh.users_map, fresh.latency_weight)
        assert schedule == reference


class TestAssembledLp:
    def test_constraint_rows_lead_in_order(self):
        system = ConstraintSystem()
        system.pin(0, 0)
        system.add_dependency(0, 1)
        system.add_timing(0, 1, 2)
        lp = assemble_lp(system, {0: 8.0}, {0: [1]})
        assert lp.num_constraint_rows == len(system)
        assert list(lp.b_ub[:2]) == [0.0, -2.0]
        # One lifetime row follows the difference constraints.
        assert lp.a_ub.shape[0] == 3
        assert lp.b_ub[2] == 0.0

    def test_empty_system(self):
        system = ConstraintSystem()
        system.add_variable(5)
        lp = assemble_lp(system)
        assert lp.a_ub is None
        assert lp.b_ub.size == 0
