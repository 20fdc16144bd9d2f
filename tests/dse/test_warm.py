"""Warm-start engine tests: which path serves a probe, and plateau reuse.

The byte-parity *sweeps* live in ``test_parity.py``; this module pins the
mechanics -- which path serves a probe (memo / budget / plateau reuse /
solve), the timing-row digest that keys plateau reuse, and the guarantee
that a reused probe makes zero LP calls yet returns the cold schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sdc.solver as solver_module
from repro.dse.warm import ProblemCache, build_context, timing_digest
from repro.sdc.problem import ScheduleProblem, timing_rows

DESIGN = "rrot"
GEN_DESIGN = ("gen:seed=11,depth=6,width=4,fanout=2,bits=8,inputs=3,"
              "clock=2000,mix=add3+xor2+sub1+rotr1")


@pytest.fixture(scope="module")
def context():
    return build_context(DESIGN)


@pytest.fixture()
def linprog_calls(monkeypatch):
    """Count the HiGHS calls every solve path makes."""
    calls = []
    real = solver_module.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "linprog", counting)
    return calls


def _rows_at(context, period):
    budget = period - context.register_overhead_ps
    return np.stack(timing_rows(context.matrix, context.index_of, budget))


def _neighbour(context, period, same_rows):
    """A period near ``period`` whose timing rows are (or are not) equal."""
    base = _rows_at(context, period)
    for delta in (0.001, 0.01, 0.1, 1.0, 5.0, 25.0, 100.0, 400.0):
        candidate = period + delta
        rows = _rows_at(context, candidate)
        equal = rows.shape == base.shape and np.array_equal(rows, base)
        if equal == same_rows:
            return candidate
    pytest.skip("no suitable neighbour period in the tested range")


class TestDesignContext:
    def test_lower_bound_is_worst_delay_plus_overhead(self, context):
        assert context.lower_bound_ps == pytest.approx(
            context.worst_delay_ps + context.register_overhead_ps)


class TestTimingDigest:
    def _problem(self, context, period):
        return ScheduleProblem(context.graph, context.matrix,
                               context.index_of,
                               period - context.register_overhead_ps)

    def test_equal_rows_give_equal_digests(self, context):
        period = _neighbour(context, 2500.0, same_rows=True)
        assert timing_digest(self._problem(context, 2500.0).system) == \
            timing_digest(self._problem(context, period).system)

    def test_different_rows_give_different_digests(self, context):
        period = _neighbour(context, 2500.0, same_rows=False)
        assert timing_digest(self._problem(context, 2500.0).system) != \
            timing_digest(self._problem(context, period).system)

    def test_digest_ignores_non_timing_rows(self, context):
        problem = self._problem(context, 2500.0)
        before = timing_digest(problem.system)
        problem.rebase_ii(3)  # a DAG has no loop rows, but rebuilds anyway
        assert timing_digest(problem.system) == before


class TestProblemCacheServingPaths:
    def test_budget_rejection_touches_no_lp(self, context, linprog_calls):
        cache = ProblemCache()
        outcome = cache.probe(DESIGN, context.worst_delay_ps / 2)
        assert not outcome.feasible and outcome.reason == "budget"
        assert cache.budget_skips == 1 and cache.cold_solves == 0
        assert not linprog_calls

    def test_first_probe_is_cold_second_identical_is_memo(self):
        cache = ProblemCache()
        first = cache.probe(DESIGN, 2500.0)
        again = cache.probe(DESIGN, 2500.0)
        assert first.feasible and not first.memo_hit and first.lp_rebuild
        assert again.memo_hit and not again.lp_rebuild
        assert again.stages == first.stages
        assert cache.cold_solves == 1 and cache.memo_hits == 1

    def test_same_plateau_reuses_the_schedule_without_an_lp_call(
            self, context, linprog_calls):
        cache = ProblemCache()
        base = cache.probe(DESIGN, 2500.0)
        period = _neighbour(context, 2500.0, same_rows=True)
        calls_before = len(linprog_calls)
        reuse = cache.probe(DESIGN, period)
        assert len(linprog_calls) == calls_before  # zero LP calls
        assert reuse.solution_reuse and not reuse.lp_rebuild
        assert not reuse.memo_hit
        assert cache.warm_solves == 1 and cache.cold_solves == 1
        assert reuse.stages == base.stages
        cold = cache.cold_probe(DESIGN, period)
        assert reuse.stages == cold.stages
        assert (reuse.num_stages, reuse.num_registers) == \
            (cold.num_stages, cold.num_registers)

    def test_different_rows_are_solved(self, context, linprog_calls):
        cache = ProblemCache()
        cache.probe(DESIGN, 2500.0)
        period = _neighbour(context, 2500.0, same_rows=False)
        calls_before = len(linprog_calls)
        outcome = cache.probe(DESIGN, period)
        assert len(linprog_calls) > calls_before
        assert outcome.lp_rebuild and not outcome.solution_reuse
        assert cache.cold_solves == 2 and cache.warm_solves == 0
        assert outcome.stages == cache.cold_probe(DESIGN, period).stages

    def test_plateau_reuse_is_not_limited_to_the_nearest_period(
            self, context, linprog_calls):
        cache = ProblemCache()
        base = cache.probe(DESIGN, 2500.0)
        elsewhere = _neighbour(context, 2500.0, same_rows=False)
        cache.probe(DESIGN, elsewhere)
        plateau = _neighbour(context, 2500.0, same_rows=True)
        calls_before = len(linprog_calls)
        reuse = cache.probe(DESIGN, plateau)
        assert len(linprog_calls) == calls_before
        assert reuse.solution_reuse and reuse.stages == base.stages

    def test_infeasible_lp_probes_are_not_reused(self):
        cache = ProblemCache()
        context = cache.context(GEN_DESIGN)
        periods = np.linspace(context.lower_bound_ps * 0.8,
                              context.default_clock_ps * 1.5, 12)
        for period in periods:
            outcome = cache.probe(GEN_DESIGN, float(period))
            if outcome.solution_reuse:
                assert outcome.feasible

    def test_counters_partition_all_probes(self):
        cache = ProblemCache()
        context = cache.context(GEN_DESIGN)
        periods = np.linspace(context.lower_bound_ps * 0.8,
                              context.default_clock_ps * 1.5, 12)
        for period in periods:
            cache.probe(GEN_DESIGN, float(period))
        total = (cache.memo_hits + cache.warm_solves + cache.cold_solves
                 + cache.budget_skips)
        assert total == len(periods)


class TestColdProbeReference:
    def test_cold_probe_never_caches(self):
        cache = ProblemCache()
        first = cache.cold_probe(DESIGN, 2500.0)
        second = cache.cold_probe(DESIGN, 2500.0)
        assert first.feasible and second.feasible
        assert not second.memo_hit
        assert cache.cold_solves == 0 and cache.memo_hits == 0
        assert first.stages == second.stages
