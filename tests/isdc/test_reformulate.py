"""Tests for delay re-propagation (Algorithm 2) and the Floyd-Warshall variant.

:func:`propagate_delays` is checked bit for bit against a literal per-node
transcription of Algorithm 2 (:func:`_alg2_oracle`) under random subgraph
feedback, on Table-I designs, seeded ``gen:`` designs and hypothesis graphs.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.designs.generator import GeneratorParams, build_generated_design
from repro.designs.suite import table1_suite
from repro.ir.builder import GraphBuilder
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.reformulate import floyd_warshall_refine, propagate_delays
from repro.sdc.delays import NOT_CONNECTED, node_delays
from repro.tech.delay_model import OperatorModel
from tests.kernel.reference import graph_adjacency, reference_topological_order


def _fresh_matrix(graph):
    delays = node_delays(graph, OperatorModel(pessimism=1.0))
    return DelayMatrix.from_graph(graph, delays)


class TestPropagateDelays:
    def test_no_feedback_is_a_fixpoint(self, adder_chain_graph):
        matrix = _fresh_matrix(adder_chain_graph)
        baseline = matrix.matrix.copy()
        propagate_delays(matrix)
        # Without any feedback the naive estimates are already consistent, so
        # nothing may increase and entries only change by tightening.
        assert np.all((matrix.matrix <= baseline + 1e-9)
                      | (baseline == NOT_CONNECTED))

    def test_feedback_propagates_to_longer_paths(self, adder_chain_graph):
        matrix = _fresh_matrix(adder_chain_graph)
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        d_s3 = matrix.individual_delay(names["s3"])
        before_long = matrix.get(names["s1"], names["s3"])
        # Feedback: the s1->s2 pair measured at 100 ps.
        matrix.update_with_subgraph([names["s1"], names["s2"]], 100.0)
        propagate_delays(matrix)
        after_long = matrix.get(names["s1"], names["s3"])
        assert after_long == pytest.approx(100.0 + d_s3)
        assert after_long < before_long

    def test_propagation_reaches_downstream_users(self, adder_chain_graph):
        matrix = _fresh_matrix(adder_chain_graph)
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        matrix.update_with_subgraph([names["s1"], names["s2"], names["s3"]], 150.0)
        propagate_delays(matrix)
        product_delay = matrix.individual_delay(names["product"])
        assert matrix.get(names["s1"], names["product"]) == \
            pytest.approx(150.0 + product_delay)

    def test_never_connects_unconnected_pairs(self, diamond_graph):
        matrix = _fresh_matrix(diamond_graph)
        params = [p.node_id for p in diamond_graph.parameters()]
        propagate_delays(matrix)
        assert not matrix.is_connected(params[0], params[1])

    def test_diagonal_untouched(self, adder_chain_graph):
        matrix = _fresh_matrix(adder_chain_graph)
        diagonal = matrix.matrix.diagonal().copy()
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        matrix.update_with_subgraph([names["s1"], names["s2"]], 100.0)
        propagate_delays(matrix)
        # The s1/s2 diagonal entries were lowered by the *feedback* itself,
        # but propagation must not lower any diagonal further.
        refreshed = matrix.matrix.diagonal()
        for index in range(len(diagonal)):
            assert refreshed[index] <= diagonal[index] + 1e-9


class TestFloydWarshall:
    def test_refine_tightens_through_intermediates(self, adder_chain_graph):
        matrix = _fresh_matrix(adder_chain_graph)
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        d_s2 = matrix.individual_delay(names["s2"])
        d_s3 = matrix.individual_delay(names["s3"])
        # Feedback above the individual delays, so only pair estimates change.
        feedback = d_s2 + 100.0
        matrix.update_with_subgraph([names["s1"], names["s2"]], feedback)
        changed = floyd_warshall_refine(matrix)
        assert changed > 0
        # Relaxation through s2: D[s1][s2] + D[s2][s3] - d(s2).
        assert matrix.get(names["s1"], names["s3"]) <= \
            feedback + (d_s2 + d_s3) - d_s2 + 1e-9

    def test_refine_is_idempotent(self, adder_chain_graph):
        matrix = _fresh_matrix(adder_chain_graph)
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        matrix.update_with_subgraph([names["s1"], names["s2"]], 100.0)
        floyd_warshall_refine(matrix)
        assert floyd_warshall_refine(matrix) == 0

    def test_both_reformulations_only_tighten(self, adder_chain_graph):
        """Alg. 2 and Floyd-Warshall are different heuristics; neither may
        ever loosen an estimate beyond the naive initialisation."""
        names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
        baseline = _fresh_matrix(adder_chain_graph).matrix.copy()
        quadratic = _fresh_matrix(adder_chain_graph)
        cubic = _fresh_matrix(adder_chain_graph)
        for target in (quadratic, cubic):
            target.update_with_subgraph([names["s1"], names["s2"]], 100.0)
        propagate_delays(quadratic)
        floyd_warshall_refine(cubic)
        connected = baseline != NOT_CONNECTED
        assert np.all(quadratic.matrix[connected] <= baseline[connected] + 1e-6)
        assert np.all(cubic.matrix[connected] <= baseline[connected] + 1e-6)


# ---------------------------------------------------------------------------
# Algorithm 2 oracle
# ---------------------------------------------------------------------------


def _alg2_oracle(graph, matrix: np.ndarray, index_of: dict[int, int]
                 ) -> tuple[np.ndarray, int]:
    """Literal per-node Algorithm 2 on a copy of ``matrix``.

    Forward pass: nodes in topological order; for every other row ``u`` the
    candidate delay into ``v`` is the worst ``D[u][p] + D[v][v]`` over the
    operands ``p`` that ``u`` reaches.  Reverse pass: nodes in reverse
    topological order; the candidate from ``u`` to every other column ``w``
    is the worst ``D[s][w] + D[u][u]`` over the users ``s`` that reach
    ``w``.  A candidate replaces the entry when it is smaller (or the entry
    is unconnected); the diagonal is never touched.

    Returns the propagated matrix and the number of entries written.
    """
    table = matrix.tolist()  # plain floats: the same IEEE sums, no numpy
    size = len(table)
    order = reference_topological_order(*graph_adjacency(graph))
    changed = 0

    def lower(row: int, col: int, best: float) -> int:
        current = table[row][col]
        if best != NOT_CONNECTED and (current == NOT_CONNECTED
                                      or current > best):
            table[row][col] = best
            return 1
        return 0

    for v in order:
        operands = [index_of[p] for p in graph.node(v).operands]
        if not operands:
            continue
        col = index_of[v]
        own = table[col][col]
        for row in range(size):
            if row == col:
                continue
            best = NOT_CONNECTED
            for p in operands:
                if table[row][p] != NOT_CONNECTED:
                    best = max(best, table[row][p] + own)
            changed += lower(row, col, best)

    for u in reversed(order):
        users = [index_of[s] for s in graph.users_of(u)]
        if not users:
            continue
        row = index_of[u]
        own = table[row][row]
        for col in range(size):
            if col == row:
                continue
            best = NOT_CONNECTED
            for s in users:
                if table[s][col] != NOT_CONNECTED:
                    best = max(best, table[s][col] + own)
            changed += lower(row, col, best)

    return np.asarray(table, dtype=float), changed


def _random_feedback(matrix: DelayMatrix, rng: random.Random,
                     rounds: int = 4) -> None:
    """Seeded subgraph measurements: small operand cones, each reported at
    0.6--1.6x the slowest covered node, folded in by Alg. 1."""
    graph = matrix.graph
    ids = matrix.node_order()
    for _ in range(rounds):
        cone = {rng.choice(ids)}
        for _depth in range(rng.randint(1, 3)):
            cone |= {p for nid in cone for p in graph.node(nid).operands}
        slowest = max(matrix.individual_delay(nid) for nid in cone)
        matrix.update_with_subgraph(cone, slowest * rng.uniform(0.6, 1.6))


def _assert_matches_oracle(matrix: DelayMatrix) -> int:
    """Propagate ``matrix`` in place and check it against the oracle."""
    expected, expected_count = _alg2_oracle(matrix.graph, matrix.matrix,
                                            matrix.index_of)
    count = propagate_delays(matrix)
    assert np.array_equal(matrix.matrix, expected)
    assert count == expected_count
    return count


def _gen_params(seed: int) -> GeneratorParams:
    """Seeded ``gen:`` shape: one of three depth/width/fan-in mixes."""
    depth, width, fanout = [(8, 6, 2), (6, 10, 1), (12, 4, 3)][seed % 3]
    return GeneratorParams(seed=seed, depth=depth, width=width, fanout=fanout)


_ORACLE_DESIGNS = ([case.name for case in table1_suite()]
                   + [_gen_params(seed).name for seed in range(12)])


def _oracle_design(name: str):
    if name.startswith("gen:"):
        return build_generated_design(GeneratorParams.from_name(name))
    return next(case.build() for case in table1_suite() if case.name == name)


@pytest.mark.parametrize("design_name", _ORACLE_DESIGNS)
class TestAlgorithm2Oracle:
    def _matrix(self, design_name) -> DelayMatrix:
        graph = _oracle_design(design_name)
        return DelayMatrix.from_graph(graph, node_delays(graph,
                                                         OperatorModel()))

    def test_feedback_round_matches_oracle(self, design_name):
        matrix = self._matrix(design_name)
        _random_feedback(matrix, random.Random(design_name))
        _assert_matches_oracle(matrix)

    def test_isdc_rounds_match_oracle(self, design_name):
        """Feedback and re-propagation alternate on one running matrix, as
        across ISDC iterations."""
        matrix = self._matrix(design_name)
        rng = random.Random(f"rounds:{design_name}")
        changed = 0
        for _ in range(3):
            _random_feedback(matrix, rng)
            changed += _assert_matches_oracle(matrix)
        assert changed > 0  # the feedback actually exercised the sweeps

    def test_connectivity_is_preserved(self, design_name):
        matrix = self._matrix(design_name)
        holes = matrix.matrix == NOT_CONNECTED
        _random_feedback(matrix, random.Random(design_name))
        propagate_delays(matrix)
        assert np.array_equal(matrix.matrix == NOT_CONNECTED, holes)

    def test_entries_only_lowered(self, design_name):
        matrix = self._matrix(design_name)
        _random_feedback(matrix, random.Random(design_name))
        before = matrix.matrix.copy()
        propagate_delays(matrix)
        assert np.all(matrix.matrix <= before)
        assert np.array_equal(np.diagonal(matrix.matrix),
                              np.diagonal(before))


def test_large_design_matches_oracle():
    """A design past 512 nodes, sparsely connected (one-layer fan-in)."""
    graph = build_generated_design(GeneratorParams(seed=7, depth=10, width=56,
                                                   fanout=1, num_inputs=16))
    assert len(graph.node_ids()) >= 512
    matrix = DelayMatrix.from_graph(graph, node_delays(graph, OperatorModel()))
    _random_feedback(matrix, random.Random(7), rounds=12)
    assert _assert_matches_oracle(matrix) > 0


_BINARY_OPS = ["add", "sub", "xor", "and_", "or_", "mul"]


@st.composite
def random_graphs(draw):
    builder = GraphBuilder("random_alg2")
    pool = [builder.param(f"p{i}", 8) for i in range(3)]
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        method = draw(st.sampled_from(_BINARY_OPS))
        left = draw(st.sampled_from(pool))
        right = draw(st.sampled_from(pool))
        pool.append(getattr(builder, method)(left, right))
    builder.output(pool[-1])
    return builder.graph


class TestRandomGraphOracle:
    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), seed=st.integers(0, 2**16),
           rounds=st.integers(1, 6))
    def test_propagation_matches_oracle(self, graph, seed, rounds):
        matrix = DelayMatrix.from_graph(graph, node_delays(graph,
                                                           OperatorModel()))
        _random_feedback(matrix, random.Random(seed), rounds=rounds)
        _assert_matches_oracle(matrix)

    @settings(max_examples=30, deadline=None)
    @given(graph=random_graphs(), seed=st.integers(0, 2**16))
    def test_permuted_index_map_matches_oracle(self, graph, seed):
        """Hand-built index maps need not follow the kernel's order."""
        base = DelayMatrix.from_graph(graph, node_delays(graph,
                                                         OperatorModel()))
        rng = random.Random(seed)
        ids = base.node_order()
        shuffled = ids[:]
        rng.shuffle(shuffled)
        index_of = {nid: index for index, nid in enumerate(shuffled)}
        rows = [base.index_of[nid] for nid in shuffled]
        matrix = DelayMatrix(graph, base.matrix[np.ix_(rows, rows)].copy(),
                             index_of)
        _random_feedback(matrix, rng)
        _assert_matches_oracle(matrix)

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), seed=st.integers(0, 2**16))
    def test_arbitrary_matrix_matches_oracle(self, graph, seed):
        """Alg. 2 is a function of the matrix alone: the sweeps agree with
        the oracle even on entries the graph cannot produce (paths against
        the edges, unconnected diagonals), which pins down the diagonal
        mask and the unconnected-entry rule."""
        rng = np.random.default_rng(seed)
        size = len(graph.node_ids())
        values = rng.uniform(0.0, 1000.0, size=(size, size))
        values[rng.random((size, size)) < 0.3] = NOT_CONNECTED
        index_of = {nid: index for index, nid
                    in enumerate(sorted(graph.node_ids()))}
        _assert_matches_oracle(DelayMatrix(graph, values, index_of))
