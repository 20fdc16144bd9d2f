"""The DSE warm-start engine: cross-clock-point reuse for one design.

A clock-period search probes the *same* design at many periods.  Everything
expensive about one probe except the constraint build and the LP solve --
building the graph, characterising per-node delays, the all-pairs
critical-path matrix, the register weights and users map -- depends only
on the design.  The :class:`ProblemCache` exploits that:

* a :class:`DesignContext` is built once per design and shared by every
  probe (graph, delays, matrix, structural fingerprint);
* one persistent :class:`~repro.sdc.problem.ScheduleProblem` per design is
  moved to each probe's budget with
  :meth:`~repro.sdc.problem.ScheduleProblem.rebase_timing`, which sets the
  budget and rebuilds the constraint system cold from arrays;
* neighbouring periods often share a *plateau*: every ``ceil(delay /
  budget)`` bucket is the same, so the timing rows are identical.  The
  solved stages are kept per digest of the timing rows, and a probe whose
  rows match an earlier solve reuses its schedule with zero LP calls;
* repeated probes of a structurally identical design at the same period
  are memoized on the design's subgraph fingerprint and cost nothing.

Reused probes are byte-identical to cold ones: equal timing rows mean an
equal constraint system and LP, and HiGHS is deterministic.  The parity
suite under ``tests/dse/`` enforces this on every probe.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.designs.generator import case_from_name
from repro.ir.graph import DataflowGraph
from repro.sdc.constraints import ConstraintSystem
from repro.sdc.delays import critical_path_matrix, node_delays
from repro.sdc.loops import min_feasible_ii
from repro.sdc.pipeline import count_pipeline_registers
from repro.sdc.problem import ScheduleProblem
from repro.sdc.scheduler import Schedule
from repro.sdc.solver import SdcInfeasibleError, solve_problem
from repro.synth.fingerprint import subgraph_fingerprint
from repro.tech.delay_model import OperatorModel
from repro.tech.sky130 import sky130_library


@dataclass(frozen=True)
class DesignContext:
    """Everything probe evaluation needs about one design, built once.

    Attributes:
        name: registry (or ``gen:``) design name.
        graph: the built dataflow graph.
        delays: isolated per-node delays (closed-form operator model).
        matrix: all-pairs critical-path delay matrix; *identical across
            clock periods*, so only the budget moves between probes.
        index_of: node id -> matrix row/column.
        worst_delay_ps: largest single-operation delay; any budget below it
            is infeasible without touching the LP.
        register_overhead_ps: sequential overhead subtracted from the clock
            period to obtain the combinational stage budget.
        default_clock_ps: the design's registry clock period (search start).
        fingerprint: structural fingerprint of the whole graph -- the
            memoization key component that makes probe results reusable
            across structurally identical builds.
    """

    name: str
    graph: DataflowGraph
    delays: dict[int, float] = field(repr=False)
    matrix: np.ndarray = field(repr=False)
    index_of: dict[int, int] = field(repr=False)
    worst_delay_ps: float
    register_overhead_ps: float
    default_clock_ps: float
    fingerprint: str

    @property
    def lower_bound_ps(self) -> float:
        """Analytic minimum feasible clock period (worst delay + overhead)."""
        return self.worst_delay_ps + self.register_overhead_ps


def build_context(name: str) -> DesignContext:
    """Build the per-design probe context (graph, delays, matrix, fingerprint)."""
    case = case_from_name(name)
    graph = case.build()
    delays = node_delays(graph, OperatorModel())
    matrix, index_of = critical_path_matrix(graph, delays)
    fingerprint = subgraph_fingerprint(
        graph, [node.node_id for node in graph.nodes()])
    if graph.has_back_edges:
        # The forward-graph fingerprint is blind to back-edges; append their
        # signature so loop designs never collide with their DAG skeletons
        # in the probe memo.
        loops = ",".join(f"{e.src}>{e.phi}x{e.distance}"
                         for e in graph.back_edges())
        fingerprint = f"{fingerprint}|loops:{loops}"
    return DesignContext(
        name=name, graph=graph, delays=delays, matrix=matrix,
        index_of=index_of,
        worst_delay_ps=max(delays.values(), default=0.0),
        register_overhead_ps=sky130_library().register_delay_ps,
        default_clock_ps=case.clock_period_ps,
        fingerprint=fingerprint)


def timing_digest(system: ConstraintSystem) -> bytes:
    """A digest of a system's timing rows: equal rows, equal digest.

    The key of same-plateau reuse: for one design, two budgets whose
    timing rows are equal build equal constraint systems and LPs.
    """
    return hashlib.blake2b(system.rows_of("timing").tobytes(),
                           digest_size=16).digest()


@dataclass(frozen=True)
class ProbeOutcome:
    """The result of scheduling one design at one clock period.

    The schedule-describing fields (``feasible``, ``num_stages``,
    ``num_registers``, ``stages``) are deterministic: reused and cold
    probes are byte-identical, so they do not depend on which cache served
    the probe.  The provenance fields (``solution_reuse``, ``lp_rebuild``,
    ``memo_hit``, ``solve_time_s``) describe how *this* evaluation was
    served and vary with worker/cache layout.

    Attributes:
        design: design name.
        clock_period_ps: probed clock period.
        feasible: whether a schedule exists at this period.
        reason: why not, when infeasible -- ``"budget"`` (the combinational
            budget is non-positive or below the worst single-op delay; no
            LP was touched) or ``"lp"`` (the LP itself was infeasible).
        num_stages: pipeline depth of the schedule (feasible probes only).
        num_registers: pipeline register bits (feasible probes only).
        ii: initiation interval of the schedule -- the minimum feasible II
            for loop designs, 1 for DAGs (feasible probes only; also set on
            the per-candidate probes of a min-II search trace, where it is
            the *probed* candidate).
        stages: the full node id -> stage schedule (feasible probes only).
        solution_reuse: the timing rows equal an earlier solved probe's, so
            that probe's schedule was reused without an LP call (HiGHS is
            deterministic, so a cold solve would return exactly the same
            schedule).
        lp_rebuild: an LP was assembled and solved for this probe.
        memo_hit: served from the fingerprint memo without any solve.
        solve_time_s: wall-clock seconds of this evaluation (0 for memo
            hits and budget rejections).
    """

    design: str
    clock_period_ps: float
    feasible: bool
    reason: str = ""
    num_stages: int | None = None
    num_registers: int | None = None
    ii: int | None = None
    stages: dict[int, int] | None = field(default=None, repr=False)
    solution_reuse: bool = False
    lp_rebuild: bool = False
    memo_hit: bool = False
    solve_time_s: float = 0.0

    def to_payload(self) -> dict:
        """Deterministic payload row (provenance and timing excluded)."""
        return {
            "clock_period_ps": self.clock_period_ps,
            "feasible": self.feasible,
            "reason": self.reason,
            "num_stages": self.num_stages,
            "num_registers": self.num_registers,
            "ii": self.ii,
        }


class ProblemCache:
    """Per-process warm-start state of a clock-period search.

    One cache holds, per design: the :class:`DesignContext`, one persistent
    :class:`~repro.sdc.problem.ScheduleProblem`, the solved stages of each
    plateau keyed by :func:`timing_digest`, and a fingerprint-keyed memo of
    probe outcomes.  :meth:`probe` is the single evaluation entry point;
    the search driver keeps one cache per worker process so parallel
    batches warm-start independently (results are identical either way --
    see the module docstring).

    Attributes:
        latency_weight: LP tie-breaking weight, part of the memo key.
        memo_hits: probes served from the fingerprint memo.
        warm_solves: probes served by same-plateau reuse -- no LP call.
        cold_solves: probes that assembled and solved an LP.
        budget_skips: probes rejected analytically without any LP.
    """

    def __init__(self, latency_weight: float = 1e-3) -> None:
        self.latency_weight = float(latency_weight)
        self.memo_hits = 0
        self.warm_solves = 0
        self.cold_solves = 0
        self.budget_skips = 0
        self._contexts: dict[str, DesignContext] = {}
        self._problems: dict[str, ScheduleProblem] = {}
        self._plateaus: dict[str, dict[bytes, tuple[dict[int, int], int]]] = {}
        self._memo: dict[tuple, ProbeOutcome] = {}

    def context(self, design: str) -> DesignContext:
        """The design's probe context (built on first use, then cached)."""
        context = self._contexts.get(design)
        if context is None:
            context = build_context(design)
            self._contexts[design] = context
        return context

    def _problem_at(self, design: str, context: DesignContext,
                    budget: float) -> ScheduleProblem:
        """The design's persistent problem, rebuilt for ``budget``."""
        problem = self._problems.get(design)
        if problem is None:
            problem = ScheduleProblem(context.graph, context.matrix,
                                      context.index_of, budget,
                                      latency_weight=self.latency_weight)
            self._problems[design] = problem
        else:
            problem.rebase_timing(context.matrix, context.index_of, budget)
        return problem

    def probe(self, design: str, clock_period_ps: float) -> ProbeOutcome:
        """Schedule ``design`` at ``clock_period_ps``, as warmly as possible.

        The fast paths, in order: fingerprint memo (free), analytic budget
        rejection (free), same-plateau reuse (a rebuild and a digest, no
        LP), full solve.  Every solve goes through the shared
        :func:`~repro.sdc.solver.solve_problem`, so the returned schedule
        never depends on which path served the probe.
        """
        context = self.context(design)
        period = float(clock_period_ps)
        key = (context.fingerprint, context.register_overhead_ps,
               self.latency_weight, period)
        hit = self._memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return replace(hit, memo_hit=True, solution_reuse=False,
                           lp_rebuild=False, solve_time_s=0.0)

        budget = period - context.register_overhead_ps
        if budget <= 0.0 or context.worst_delay_ps > budget:
            self.budget_skips += 1
            outcome = ProbeOutcome(design=design, clock_period_ps=period,
                                   feasible=False, reason="budget")
            self._memo[key] = outcome
            return outcome

        start = time.perf_counter()
        problem = self._problem_at(design, context, budget)
        plateau = self._plateaus.setdefault(design, {})
        digest = timing_digest(problem.system)
        reused = digest in plateau
        if reused:
            self.warm_solves += 1
            stages, ii = plateau[digest]
        else:
            self.cold_solves += 1
            try:
                stages = _solve(context, problem)
            except SdcInfeasibleError:
                outcome = ProbeOutcome(
                    design=design, clock_period_ps=period, feasible=False,
                    reason="lp", lp_rebuild=True,
                    solve_time_s=time.perf_counter() - start)
                self._memo[key] = outcome
                return outcome
            ii = problem.ii
            plateau[digest] = (dict(stages), ii)

        outcome = _feasible_outcome(context, period, stages, ii, start,
                                    solution_reuse=reused,
                                    lp_rebuild=not reused)
        self._memo[key] = outcome
        return outcome

    def min_ii_search(self, design: str, clock_period_ps: float | None = None
                      ) -> tuple[ProbeOutcome, list[ProbeOutcome]]:
        """Resolve a design's minimum feasible II, recording every II probe.

        The whole search runs over *one* :class:`ScheduleProblem` -- each II
        candidate is a :meth:`~repro.sdc.problem.ScheduleProblem.rebase_ii`
        (set the II and rebuild) plus one LP solve.

        Args:
            design: design name (``loop:`` spec, ``.ir`` path, or any
                registry name -- DAGs trivially resolve to II 1).
            clock_period_ps: clock period to search at; the design's
                registry clock when omitted.

        Returns:
            ``(final, trace)`` -- the summary outcome at the minimum II,
            and one :class:`ProbeOutcome` per probed II candidate in probe
            order (``ii`` is the candidate, ``feasible`` its verdict).
        """
        context = self.context(design)
        period = float(clock_period_ps if clock_period_ps is not None
                       else context.default_clock_ps)
        budget = period - context.register_overhead_ps
        if budget <= 0.0 or context.worst_delay_ps > budget:
            self.budget_skips += 1
            return ProbeOutcome(design=design, clock_period_ps=period,
                                feasible=False, reason="budget"), []

        start = time.perf_counter()
        problem = ScheduleProblem(context.graph, context.matrix,
                                  context.index_of, budget,
                                  latency_weight=self.latency_weight)
        self.cold_solves += 1
        trace: list[ProbeOutcome] = []

        def record(ii: int, feasible: bool,
                   stages: dict[int, int] | None) -> None:
            num_stages = num_registers = None
            if feasible and stages is not None:
                probe_schedule = Schedule(graph=context.graph,
                                          clock_period_ps=period,
                                          stages=stages, ii=ii)
                num_stages = probe_schedule.num_stages
                num_registers, _ = count_pipeline_registers(probe_schedule)
            trace.append(ProbeOutcome(
                design=design, clock_period_ps=period, feasible=feasible,
                reason="" if feasible else "lp", num_stages=num_stages,
                num_registers=num_registers, ii=ii,
                stages=dict(stages) if stages is not None else None,
                lp_rebuild=True))

        try:
            min_ii, stages = min_feasible_ii(problem, on_probe=record)
        except SdcInfeasibleError:
            return ProbeOutcome(
                design=design, clock_period_ps=period, feasible=False,
                reason="lp", lp_rebuild=True,
                solve_time_s=time.perf_counter() - start), trace

        final = _feasible_outcome(context, period, stages, min_ii, start,
                                  lp_rebuild=True)
        return final, trace

    def cold_probe(self, design: str, clock_period_ps: float) -> ProbeOutcome:
        """A from-scratch reference probe bypassing every warm path.

        Used by the parity tests and the service worker: builds a fresh
        :class:`~repro.sdc.problem.ScheduleProblem` and solves it through
        the same :func:`~repro.sdc.solver.solve_problem`.  Nothing is
        cached.
        """
        context = self.context(design)
        period = float(clock_period_ps)
        budget = period - context.register_overhead_ps
        if budget <= 0.0 or context.worst_delay_ps > budget:
            return ProbeOutcome(design=design, clock_period_ps=period,
                                feasible=False, reason="budget")
        start = time.perf_counter()
        problem = ScheduleProblem(context.graph, context.matrix,
                                  context.index_of, budget,
                                  latency_weight=self.latency_weight)
        try:
            stages = _solve(context, problem)
        except SdcInfeasibleError:
            return ProbeOutcome(design=design, clock_period_ps=period,
                                feasible=False, reason="lp", lp_rebuild=True,
                                solve_time_s=time.perf_counter() - start)
        return _feasible_outcome(context, period, stages, problem.ii, start,
                                 lp_rebuild=True)


def _solve(context: DesignContext, problem: ScheduleProblem
           ) -> dict[int, int]:
    """Schedule a probe's problem: the minimum feasible II's schedule for a
    loop design (leaving the problem rebased at that II), one LP for a DAG.

    Raises:
        SdcInfeasibleError: if the period admits no schedule.
    """
    if context.graph.has_back_edges:
        _, stages = min_feasible_ii(problem)
        return stages
    return solve_problem(problem)


def _feasible_outcome(context: DesignContext, period: float,
                      stages: dict[int, int], ii: int, start: float,
                      **provenance) -> ProbeOutcome:
    """The outcome of a feasible probe, with its stage and register counts."""
    schedule = Schedule(graph=context.graph, clock_period_ps=period,
                        stages=stages, ii=ii)
    registers, _ = count_pipeline_registers(schedule)
    return ProbeOutcome(
        design=context.name, clock_period_ps=period, feasible=True,
        num_stages=schedule.num_stages, num_registers=registers, ii=ii,
        stages=dict(stages), solve_time_s=time.perf_counter() - start,
        **provenance)
