"""Persistent SDC scheduling problems.

A :class:`ScheduleProblem` owns everything the LP solve of one graph
needs -- the difference-constraint system, the register weights and users
map of the objective, and the assembled sparse LP -- and keeps the
per-graph parts alive across re-solves.  There is one way to build a
problem's constraints and LP, and every change is a cold rebuild through
it: the ISDC loop rebuilds from the updated delay matrix every iteration
(:meth:`ScheduleProblem.rebuild`), and the DSE layer moves one problem
between clock periods or IIs by setting the field and rebuilding
(:meth:`ScheduleProblem.rebase_timing`, :meth:`ScheduleProblem.rebase_ii`).

A rebuild is cheap because no step creates a per-row Python object: the
timing rows (paper Eq. 2) come from one vectorised pass over
``np.nonzero(matrix > budget)`` (:func:`timing_rows`), the system stores
them as an integer array, and :func:`assemble_lp` turns that array into
the LP's COO triplets directly.

The functions :func:`register_weights`, :func:`users_map`,
:func:`add_dependency_constraints` and :func:`add_timing_constraints` live
here (rather than in :mod:`repro.sdc.scheduler`, which re-exports them) so
the solver layer can depend on them without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import sparse

from repro.ir.graph import DataflowGraph
from repro.ir.ops import OpKind
from repro.sdc.constraints import BOUND_COL, U_COL, V_COL, ConstraintSystem
from repro.sdc.delays import NOT_CONNECTED


def register_weights(graph: DataflowGraph) -> dict[int, float]:
    """Objective weight (bit width) of each value that may need registering.

    Constants are excluded: they synthesise to tie cells, never to pipeline
    registers.
    """
    weights: dict[int, float] = {}
    for node in graph.nodes():
        if node.kind is OpKind.CONSTANT:
            continue
        if graph.users_of(node.node_id):
            weights[node.node_id] = float(node.width)
    return weights


def users_map(graph: DataflowGraph) -> dict[int, list[int]]:
    """Users of every node (convenience for the LP objective)."""
    return {node.node_id: graph.users_of(node.node_id) for node in graph.nodes()}


def add_dependency_constraints(system: ConstraintSystem, graph: DataflowGraph) -> None:
    """Add producer-before-consumer constraints for every dataflow edge."""
    producers: list[int] = []
    consumers: list[int] = []
    for node in graph.nodes():
        system.add_variable(node.node_id)
        for operand in set(node.operands):
            producers.append(operand)
            consumers.append(node.node_id)
    system.extend(producers, consumers, np.zeros(len(producers)),
                  kind="dependency")


def timing_rows(matrix: np.ndarray, index_of: Mapping[int, int],
                clock_period_ps: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Eq. 2 rows ``s_u - s_v <= -(ceil(D / T) - 1)`` of a delay matrix.

    One vectorised pass over ``np.nonzero(matrix > clock_period_ps)`` in
    row-major order.  The diagonal is skipped (a single operation cannot
    be split across cycles; an over-long operation is a clock-period
    selection problem, not a schedulable constraint), as are
    ``NOT_CONNECTED`` entries and pairs needing no stage boundary.

    Returns:
        ``(u, v, bound)`` node-id and bound arrays, aligned.
    """
    order = np.array(sorted(index_of, key=index_of.get), dtype=np.int64)
    rows, cols = np.nonzero(matrix > clock_period_ps)
    delays = matrix[rows, cols]
    min_distance = np.ceil(delays / clock_period_ps).astype(np.int64) - 1
    keep = (rows != cols) & (delays != NOT_CONNECTED) & (min_distance > 0)
    return order[rows[keep]], order[cols[keep]], -min_distance[keep]


def add_timing_constraints(system: ConstraintSystem, matrix: np.ndarray,
                           index_of: Mapping[int, int],
                           clock_period_ps: float) -> int:
    """Add Eq. 2 timing constraints for every pair whose delay exceeds the clock.

    Returns:
        The number of constraints added.
    """
    return system.extend(*timing_rows(matrix, index_of, clock_period_ps),
                         kind="timing")


def add_loop_constraints(system: ConstraintSystem, graph: DataflowGraph,
                         ii: int) -> int:
    """Add the II-scaled recurrence constraint of every loop back-edge.

    For each back-edge ``src -> phi`` at distance ``d`` this is
    ``s_src - s_phi <= II * d - 1``: the value produced in iteration ``i``
    must sit in the phi's loop register before iteration ``i + d`` (which
    starts ``II * d`` cycles later) reads it.

    Returns:
        The number of constraints added.
    """
    edges = graph.back_edges()
    return system.extend([edge.src for edge in edges],
                         [edge.phi for edge in edges],
                         [ii * edge.distance - 1 for edge in edges],
                         kind="loop")


def build_system(graph: DataflowGraph, matrix: np.ndarray,
                 index_of: Mapping[int, int], timing_budget_ps: float,
                 pin_sources: bool = True, ii: int = 1) -> ConstraintSystem:
    """Build the full constraint system of one graph from a delay matrix.

    The single construction routine shared by the baseline scheduler and
    every :class:`ScheduleProblem` build.  Constraint order is canonical:
    dependencies, source pins, timing pairs (row-major), then loop
    back-edges (by phi id).
    """
    system = ConstraintSystem()
    add_dependency_constraints(system, graph)
    if pin_sources:
        for node in graph.nodes():
            if node.is_source:
                system.pin(node.node_id, 0)
    add_timing_constraints(system, matrix, index_of, timing_budget_ps)
    add_loop_constraints(system, graph, ii)
    return system


@dataclass
class AssembledLp:
    """The register-minimisation LP of one constraint system, fully assembled.

    Rows ``0 .. num_constraint_rows - 1`` of ``a_ub``/``b_ub`` correspond
    one-to-one (and in order) to the system's difference constraints; the
    lifetime-linking rows follow.

    Attributes:
        var_index: schedule variable (node id) -> LP column.
        lifetime_index: lifetime variable (node id) -> LP column.
        num_vars: total LP columns.
        a_ub: sparse ``A_ub`` matrix (``None`` when there are no rows).
        b_ub: dense right-hand side.
        objective: dense objective vector.
        bounds: per-column ``(lower, upper)`` bounds.
        num_constraint_rows: rows occupied by difference constraints.
    """

    var_index: dict[int, int]
    lifetime_index: dict[int, int]
    num_vars: int
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray
    objective: np.ndarray
    bounds: list[tuple[float, float | None]]
    num_constraint_rows: int


def assemble_lp(system: ConstraintSystem,
                register_weights: Mapping[int, float] | None = None,
                users: Mapping[int, list[int]] | None = None,
                latency_weight: float = 1e-3) -> AssembledLp:
    """Assemble the register-lifetime-minimising LP for a constraint system.

    This is the single assembly routine shared by every solve path (one-shot
    :func:`~repro.sdc.solver.solve_lp`, the ISDC re-solve and
    :meth:`ScheduleProblem.lp`).  Each difference-constraint row becomes
    the COO entries ``(+1 at u, -1 at v)`` in one vectorised pass over the
    system's row array; the lifetime-linking rows follow, one per
    (value, user) edge.
    """
    register_weights = register_weights or {}
    users = users or {}

    variables = sorted(system.variables)
    var_index = {node_id: i for i, node_id in enumerate(variables)}
    lifetime_nodes = sorted(
        node_id for node_id, weight in register_weights.items()
        if weight > 0 and users.get(node_id) and node_id in var_index)
    lifetime_index = {node_id: len(variables) + i
                      for i, node_id in enumerate(lifetime_nodes)}
    num_vars = len(variables) + len(lifetime_nodes)

    constraint_rows = system.rows
    num_constraint_rows = len(constraint_rows)
    columns = np.searchsorted(np.array(variables, dtype=np.int64),
                              constraint_rows[:, [U_COL, V_COL]])
    lifetime_cols: list[int] = []
    for node_id in lifetime_nodes:
        for user in set(users[node_id]):
            if user in var_index:
                lifetime_cols += [var_index[user], var_index[node_id],
                                  lifetime_index[node_id]]
    num_lifetime_rows = len(lifetime_cols) // 3
    num_rows = num_constraint_rows + num_lifetime_rows

    rows = np.concatenate((
        np.repeat(np.arange(num_constraint_rows), 2),
        np.repeat(np.arange(num_constraint_rows, num_rows), 3)))
    cols = np.concatenate((columns.ravel(),
                           np.array(lifetime_cols, dtype=np.int64)))
    data = np.concatenate((np.tile([1.0, -1.0], num_constraint_rows),
                           np.tile([1.0, -1.0, -1.0], num_lifetime_rows)))
    b_ub = np.concatenate((constraint_rows[:, BOUND_COL].astype(float),
                           np.zeros(num_lifetime_rows)))

    objective = np.zeros(num_vars)
    for node_id in lifetime_nodes:
        objective[lifetime_index[node_id]] = float(register_weights[node_id])
    for node_id in variables:
        objective[var_index[node_id]] += latency_weight

    variable_bounds: list[tuple[float, float | None]] = []
    for node_id in variables:
        if node_id in system.pinned:
            pin = float(system.pinned[node_id])
            variable_bounds.append((pin, pin))
        else:
            variable_bounds.append((0.0, None))
    variable_bounds.extend([(0.0, None)] * len(lifetime_nodes))

    a_ub = None
    if num_rows:
        a_ub = sparse.coo_matrix((data, (rows, cols)),
                                 shape=(num_rows, num_vars)).tocsr()
    return AssembledLp(var_index=var_index, lifetime_index=lifetime_index,
                       num_vars=num_vars, a_ub=a_ub, b_ub=b_ub,
                       objective=objective, bounds=variable_bounds,
                       num_constraint_rows=num_constraint_rows)


class ScheduleProblem:
    """The persistent scheduling problem of one dataflow graph.

    Built once per graph (by the baseline SDC schedule, or once per design
    by the DSE cache) and kept alive for the whole ISDC loop or DSE
    search: the register weights and users map are computed exactly once,
    while the constraint system and the LP are rebuilt cold whenever the
    delay matrix, the budget or the II changes.  The assembled LP is
    cached until the next rebuild.

    Attributes:
        graph: the scheduled dataflow graph.
        timing_budget_ps: combinational budget of one stage (clock period
            minus register overhead).
        ii: initiation interval the loop (back-edge) constraints are scaled
            by; 1 and irrelevant for feed-forward graphs.
        latency_weight: tie-breaking objective weight.
        pin_sources: whether parameters/constants are pinned to cycle 0.
        register_weights: cached objective weights (computed once).
        users_map: cached consumer map (computed once).
        system: the live constraint system.
        rebuilds: number of from-scratch system rebuilds performed after
            construction.
    """

    def __init__(self, graph: DataflowGraph, matrix: np.ndarray,
                 index_of: Mapping[int, int], timing_budget_ps: float,
                 latency_weight: float = 1e-3, pin_sources: bool = True,
                 ii: int = 1) -> None:
        self.graph = graph
        self.timing_budget_ps = float(timing_budget_ps)
        self.latency_weight = float(latency_weight)
        self.pin_sources = pin_sources
        self.ii = int(ii)
        self.register_weights = register_weights(graph)
        self.users_map = users_map(graph)
        self.rebuilds = 0
        self._build_system(matrix, index_of)

    def _build_system(self, matrix: np.ndarray, index_of: Mapping[int, int]
                      ) -> None:
        """(Re)build the constraint system from scratch, dropping the LP."""
        self._matrix = matrix
        self._index_of = index_of
        self.system = build_system(self.graph, matrix, index_of,
                                   self.timing_budget_ps, self.pin_sources,
                                   ii=self.ii)
        self._lp: AssembledLp | None = None

    def rebuild(self, matrix: np.ndarray, index_of: Mapping[int, int]) -> None:
        """Rebuild everything from the current delay matrix."""
        self.rebuilds += 1
        self._build_system(matrix, index_of)

    def rebase_timing(self, matrix: np.ndarray, index_of: Mapping[int, int],
                      new_budget_ps: float) -> None:
        """Move the problem to a new combinational budget and rebuild it.

        The clock-period DSE probes one design's problem at many budgets;
        each probe sets the budget and rebuilds the system cold.
        """
        self.timing_budget_ps = float(new_budget_ps)
        self.rebuild(matrix, index_of)

    def rebase_ii(self, new_ii: int) -> None:
        """Move the problem to a new initiation interval and rebuild it.

        The minimum-II search probes one problem at many candidate IIs;
        each new II rebuilds the system cold from the delay matrix of the
        last build (the same II is a no-op).

        Raises:
            ValueError: if ``new_ii`` is not positive.
        """
        new_ii = int(new_ii)
        if new_ii < 1:
            raise ValueError(f"initiation interval must be >= 1, got {new_ii}")
        if new_ii != self.ii:
            self.ii = new_ii
            self.rebuild(self._matrix, self._index_of)

    def lp(self) -> AssembledLp:
        """The assembled LP (cached until the next rebuild)."""
        if self._lp is None:
            self._lp = assemble_lp(self.system, self.register_weights,
                                   self.users_map, self.latency_weight)
        return self._lp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleProblem({self.graph.name!r}, "
                f"{len(self.system)} constraints)")
