"""Solvers for SDC constraint systems.

Four solution paths are provided:

* :func:`solve_asap` / :func:`solve_alap` -- pure-Python least/greatest
  fixpoint propagation over the difference constraints (Bellman-Ford style).
  These need no LP solver and are used for feasibility checks, bounds and as
  a repair step after LP rounding.
* :func:`solve_lp` -- the register-lifetime-minimising linear program (the
  objective XLS's SDC scheduler uses), solved with scipy's HiGHS backend.
  The constraint matrix is totally unimodular, so the LP optimum is integral;
  rounding plus a fixpoint repair guards against floating-point noise.
* :func:`resolve` -- the ISDC loop's per-iteration re-solve: rebuild the
  persistent :class:`~repro.sdc.problem.ScheduleProblem` from the updated
  delay matrix and run :func:`solve_lp` on it.
* :func:`solve_problem` -- the DSE solve: run HiGHS on a problem's
  (cached) assembled LP.

Every LP path rounds the solution and checks it against the whole system
in one vectorised pass; the fixpoint repair only runs when that check
finds a violated row.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from repro.sdc.constraints import BOUND_COL, U_COL, V_COL, ConstraintSystem
from repro.sdc.problem import AssembledLp, ScheduleProblem, assemble_lp


class SdcInfeasibleError(Exception):
    """Raised when the SDC constraint system has no solution."""


def _propagate_lower_bounds(system: ConstraintSystem,
                            start: dict[int, int]) -> dict[int, int]:
    """Least fixpoint of the constraints above the given starting values.

    Every constraint ``s_u - s_v <= b`` is read as ``s_v >= s_u - b``; values
    are raised until all constraints hold.  Pinned variables may not move.

    Divergence is detected per variable: each relaxation records the length
    of the chain of constraints that produced the new value, and a chain
    longer than ``|V|`` must revisit some variable at a strictly larger
    value -- i.e. traverse a positive cycle -- because in a cycle-free system
    every improving chain is simple.  This keeps legitimately large systems
    (many variables, large bounds) out of the failure path that a global
    update budget would conflate with real divergence.

    Raises:
        SdcInfeasibleError: if a pinned variable would have to be raised or
            a positive cycle is detected (the error names the variable).
    """
    by_source: dict[int, list] = defaultdict(list)
    for constraint in system:
        by_source[constraint.u].append(constraint)
    values = dict(start)
    queue = deque(start)
    max_chain = len(system.variables)
    chain: dict[int, int] = defaultdict(int)
    while queue:
        u = queue.popleft()
        for constraint in by_source[u]:
            required = values[u] - constraint.bound
            if values[constraint.v] < required:
                if constraint.v in system.pinned:
                    raise SdcInfeasibleError(
                        f"pinned variable {constraint.v} violates "
                        f"s_{constraint.u} - s_{constraint.v} <= {constraint.bound}")
                values[constraint.v] = required
                chain[constraint.v] = chain[u] + 1
                if chain[constraint.v] > max_chain:
                    raise SdcInfeasibleError(
                        f"constraint propagation diverged at variable "
                        f"s_{constraint.v}: its value was derived through a "
                        f"chain of more than {max_chain} constraints, which "
                        f"implies a positive cycle through "
                        f"s_{constraint.u} - s_{constraint.v} <= "
                        f"{constraint.bound}")
                queue.append(constraint.v)
    return values


def solve_asap(system: ConstraintSystem) -> dict[int, int]:
    """Earliest feasible schedule (every variable as small as possible)."""
    start = {v: 0 for v in system.variables}
    start.update(system.pinned)
    return _propagate_lower_bounds(system, start)


def solve_alap(system: ConstraintSystem, latency: int) -> dict[int, int]:
    """Latest feasible schedule not exceeding ``latency``.

    Args:
        system: the constraint system.
        latency: maximum allowed time step.

    Raises:
        SdcInfeasibleError: if no schedule fits within ``latency``.
    """
    # Greatest fixpoint by negating the problem: t = latency - s turns every
    # constraint s_u - s_v <= b into t_v - t_u <= b, and maximising s into
    # minimising t.
    mirrored = ConstraintSystem()
    mirrored.variables.update(system.variables)
    for node_id, pin in system.pinned.items():
        mirrored.pin(node_id, latency - pin)
    rows = system.rows
    mirrored.extend(rows[:, V_COL], rows[:, U_COL], rows[:, BOUND_COL],
                    kind="user")
    mirrored_solution = solve_asap(mirrored)
    solution = {v: latency - t for v, t in mirrored_solution.items()}
    if any(value < 0 for value in solution.values()):
        raise SdcInfeasibleError(f"latency {latency} is too small for the system")
    return solution


def _solve_assembled(lp: AssembledLp) -> np.ndarray:
    """Run HiGHS on an assembled LP and return the raw solution vector."""
    if lp.a_ub is not None:
        result = linprog(lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub,
                         bounds=lp.bounds, method="highs")
    else:
        result = linprog(lp.objective, bounds=lp.bounds, method="highs")
    if not result.success:
        raise SdcInfeasibleError(f"LP solve failed: {result.message}")
    return result.x


def _solve_and_repair(system: ConstraintSystem,
                      lp: AssembledLp) -> dict[int, int]:
    """Solve an assembled LP, round it, and repair the rounding if needed.

    The rounded schedule is returned at once when a vectorised check finds
    it feasible (the common case: the LP optimum is integral); otherwise
    it is raised to the least fixpoint above it, which leaves a feasible
    rounding unchanged anyway.

    Raises:
        SdcInfeasibleError: if the LP (or the rounding repair) is infeasible.
    """
    x = _solve_assembled(lp)
    rounded = {node_id: int(round(x[index]))
               for node_id, index in lp.var_index.items()}
    for node_id, pin in system.pinned.items():
        rounded[node_id] = pin
    if system.is_feasible_schedule(rounded):
        return rounded
    repaired = _propagate_lower_bounds(system, rounded)
    if not system.is_feasible_schedule(repaired):
        raise SdcInfeasibleError("rounded LP solution could not be repaired")
    return repaired


def solve_lp(system: ConstraintSystem,
             register_weights: Mapping[int, float] | None = None,
             users: Mapping[int, list[int]] | None = None,
             latency_weight: float = 1e-3) -> dict[int, int]:
    """Solve the SDC LP minimising weighted register lifetimes.

    The objective is ``sum_v w_v * L_v + latency_weight * sum_i s_i`` where
    ``L_v >= s_u - s_v`` for every user ``u`` of value ``v`` -- i.e. the
    number of stage boundaries the value must cross, weighted by its bit
    width.  This is the standard register-minimisation objective of SDC
    pipeline scheduling.

    Args:
        system: difference constraints plus pins.
        register_weights: weight (bit width) per producing node id; nodes
            absent or with zero weight get no lifetime variable.
        users: consumer node ids per producing node id.
        latency_weight: small tie-breaking weight pulling operations earlier.

    Returns:
        Integral schedule mapping node id to time step.

    Raises:
        SdcInfeasibleError: if the LP (or the rounding repair) is infeasible.
    """
    return _solve_and_repair(
        system, assemble_lp(system, register_weights, users, latency_weight))


def solve_problem(problem: ScheduleProblem) -> dict[int, int]:
    """Solve a persistent problem on its cached (or freshly assembled) LP.

    Because :func:`~repro.sdc.problem.assemble_lp` is deterministic in the
    system, two problems with equal constraint rows produce byte-identical
    schedules.

    Raises:
        SdcInfeasibleError: if the LP (or the rounding repair) is infeasible.
    """
    return _solve_and_repair(problem.system, problem.lp())


def resolve(problem: ScheduleProblem, matrix: np.ndarray,
            index_of: Mapping[int, int]) -> dict[int, int]:
    """The ISDC loop's re-solve: rebuild the problem, then solve its LP.

    The constraint system is rebuilt from the current delay matrix and the
    LP is assembled and solved from scratch (:func:`solve_lp`); the cached
    register weights and users map of the persistent problem are reused.
    """
    problem.rebuild(matrix, index_of)
    return solve_lp(problem.system, problem.register_weights,
                    problem.users_map, problem.latency_weight)
