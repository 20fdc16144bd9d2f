"""Parity of the array-built SDC rows and LP against row-by-row references.

The timing rows (paper Eq. 2) are built in one vectorised pass and the LP
is assembled straight from the constraint system's row array.  This suite
keeps the plain-Python definitions both replaced -- a row-major
enumeration of ``s_u - s_v <= -(ceil(D / T) - 1)`` and a row-at-a-time LP
assembly -- and checks the array builders against them exactly: on random
delay matrices (``NOT_CONNECTED`` entries, delays that are exact multiples
of the budget, budgets from loose down to the worst single-op delay) and
on real designs.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

from repro.designs import build_crc32
from repro.designs.arith import build_rrot
from repro.sdc.constraints import ConstraintSystem
from repro.sdc.delays import NOT_CONNECTED, critical_path_matrix, node_delays
from repro.sdc.problem import (
    ScheduleProblem,
    add_timing_constraints,
    assemble_lp,
    timing_rows,
)
from repro.tech.delay_model import OperatorModel


def reference_timing_rows(matrix, index_of, budget):
    """Eq. 2 rows, one matrix entry at a time in row-major order."""
    order = sorted(index_of, key=index_of.get)
    rows = []
    for row in range(matrix.shape[0]):
        for col in range(matrix.shape[1]):
            delay = matrix[row, col]
            if row == col or delay == NOT_CONNECTED or not delay > budget:
                continue
            min_distance = math.ceil(delay / budget) - 1
            if min_distance > 0:
                rows.append((order[row], order[col], -min_distance))
    return rows


def reference_lp(system, register_weights, users, latency_weight):
    """The LP assembled one difference constraint (one COO row) at a time."""
    variables = sorted(system.variables)
    var_index = {node_id: i for i, node_id in enumerate(variables)}
    lifetime_nodes = sorted(
        node_id for node_id, weight in register_weights.items()
        if weight > 0 and users.get(node_id) and node_id in var_index)
    lifetime_index = {node_id: len(variables) + i
                      for i, node_id in enumerate(lifetime_nodes)}
    num_vars = len(variables) + len(lifetime_nodes)
    rows, cols, data, rhs = [], [], [], []

    def add_row(entries, bound):
        for col, coeff in entries:
            rows.append(len(rhs))
            cols.append(col)
            data.append(coeff)
        rhs.append(bound)

    for constraint in system:
        add_row([(var_index[constraint.u], 1.0),
                 (var_index[constraint.v], -1.0)], float(constraint.bound))
    for node_id in lifetime_nodes:
        for user in set(users[node_id]):
            if user in var_index:
                add_row([(var_index[user], 1.0), (var_index[node_id], -1.0),
                         (lifetime_index[node_id], -1.0)], 0.0)
    objective = np.zeros(num_vars)
    for node_id in lifetime_nodes:
        objective[lifetime_index[node_id]] = float(register_weights[node_id])
    for node_id in variables:
        objective[var_index[node_id]] += latency_weight
    bounds = [(float(system.pinned[v]),) * 2 if v in system.pinned
              else (0.0, None) for v in variables]
    bounds += [(0.0, None)] * len(lifetime_nodes)
    a_ub = None
    if rhs:
        a_ub = sparse.coo_matrix((data, (rows, cols)),
                                 shape=(len(rhs), num_vars)).tocsr()
    return var_index, lifetime_index, a_ub, np.array(rhs), objective, bounds


def assert_lp_matches_reference(system, register_weights, users,
                                latency_weight=1e-3):
    lp = assemble_lp(system, register_weights, users, latency_weight)
    var_index, lifetime_index, a_ub, b_ub, objective, bounds = reference_lp(
        system, register_weights, users, latency_weight)
    assert lp.var_index == var_index
    assert lp.lifetime_index == lifetime_index
    assert lp.num_vars == len(var_index) + len(lifetime_index)
    assert lp.num_constraint_rows == len(system)
    if a_ub is None:
        assert lp.a_ub is None
    else:
        assert lp.a_ub.shape == a_ub.shape
        np.testing.assert_array_equal(lp.a_ub.indptr, a_ub.indptr)
        np.testing.assert_array_equal(lp.a_ub.indices, a_ub.indices)
        np.testing.assert_array_equal(lp.a_ub.data, a_ub.data)
    assert lp.b_ub.dtype == b_ub.dtype
    np.testing.assert_array_equal(lp.b_ub, b_ub)
    np.testing.assert_array_equal(lp.objective, objective)
    assert lp.bounds == bounds


@st.composite
def delay_matrices(draw):
    """A random delay matrix, its node-id index and the budgets to sweep."""
    size = draw(st.integers(min_value=1, max_value=9))
    unit = draw(st.sampled_from([1.0, 3.0, 125.0, 250.5]))
    entry = st.one_of(
        st.just(NOT_CONNECTED),
        st.integers(min_value=1, max_value=7).map(lambda k: k * unit),
        st.floats(min_value=0.01, max_value=8 * unit, allow_nan=False))
    matrix = np.array(draw(st.lists(entry, min_size=size * size,
                                    max_size=size * size)),
                      dtype=float).reshape(size, size)
    diagonal = draw(st.lists(st.floats(min_value=0.01, max_value=unit),
                             min_size=size, max_size=size))
    np.fill_diagonal(matrix, diagonal)
    ids = draw(st.lists(st.integers(min_value=0, max_value=10_000),
                        min_size=size, max_size=size, unique=True))
    index_of = {node_id: index for index, node_id in enumerate(ids)}
    # Loose (no rows at all) down to the tightest feasible budget, the
    # worst single-op delay; unit multiples make delays exact multiples.
    # One budget below it puts diagonal entries over the budget, which
    # the builder must still skip.
    tightest = float(matrix.diagonal().max())
    loosest = float(matrix.max()) * 2
    budgets = sorted({loosest, tightest, *(unit * k for k in (1, 2, 3)),
                      *np.geomspace(tightest, loosest, 6).tolist()},
                     reverse=True)
    return matrix, index_of, [b for b in budgets if b >= tightest] \
        + [tightest / 2]


@settings(max_examples=150, deadline=None)
@given(case=delay_matrices())
def test_timing_rows_equal_the_row_major_enumeration(case):
    matrix, index_of, budgets = case
    for budget in budgets:
        expected = reference_timing_rows(matrix, index_of, budget)
        u, v, bound = timing_rows(matrix, index_of, budget)
        assert list(zip(u.tolist(), v.tolist(), bound.tolist())) == expected
        system = ConstraintSystem()
        assert add_timing_constraints(system, matrix, index_of, budget) \
            == len(expected)
        assert [(c.u, c.v, c.bound) for c in system] == expected
        assert all(c.kind == "timing" for c in system)
        assert system.variables == {n for row in expected for n in row[:2]}


@settings(max_examples=100, deadline=None)
@given(case=delay_matrices(), data=st.data())
def test_assemble_lp_equals_the_row_by_row_reference(case, data):
    matrix, index_of, budgets = case
    nodes = sorted(index_of)
    system = ConstraintSystem()
    for node_id in nodes:
        system.add_variable(node_id)
    for producer, consumer in data.draw(st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=12), label="dependencies"):
        system.add_dependency(producer, consumer)
    add_timing_constraints(system, matrix, index_of,
                           data.draw(st.sampled_from(budgets), label="budget"))
    for node_id in data.draw(st.lists(st.sampled_from(nodes), max_size=3),
                             label="pins"):
        system.pin(node_id, 0)
    weights = {node_id: float(width) for node_id, width in data.draw(
        st.dictionaries(st.sampled_from(nodes),
                        st.integers(min_value=0, max_value=64)),
        label="weights").items()}
    users = {node_id: data.draw(st.lists(
        st.sampled_from(nodes + [max(nodes) + 1])), label="users")
        for node_id in weights}
    assert_lp_matches_reference(system, weights, users)


def test_assemble_lp_of_an_empty_system_matches():
    system = ConstraintSystem()
    system.add_variable(3)
    assert_lp_matches_reference(system, {}, {})


@pytest.mark.parametrize("build", [
    lambda: build_rrot(width=32, num_rounds=6),
    build_crc32,
], ids=["rrot", "crc32"])
@pytest.mark.parametrize("budget_scale", [0.3, 0.6, 1.0])
def test_real_designs_match_both_references(build, budget_scale):
    graph = build()
    delays = node_delays(graph, OperatorModel())
    matrix, index_of = critical_path_matrix(graph, delays)
    budget = max(delays.values()) + \
        (float(matrix.max()) - max(delays.values())) * budget_scale
    problem = ScheduleProblem(graph, matrix, index_of, budget)
    timing = [(c.u, c.v, c.bound) for c in problem.system
              if c.kind == "timing"]
    assert timing == reference_timing_rows(matrix, index_of, budget)
    assert_lp_matches_reference(problem.system, problem.register_weights,
                                problem.users_map, problem.latency_weight)
