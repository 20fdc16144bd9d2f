"""Sparse vs dense Algorithm 2 re-propagation parity.

When the delay matrix carries the connectivity pattern the sparse sweep
produced, :func:`~repro.isdc.reformulate.propagate_delays` iterates over
connected pairs only -- which must lower *exactly* the entries the dense
whole-row sweeps lower, to the same floats, with the same change count.  These tests run both paths side by side on generated
designs under feedback, and pin down the pattern's lifecycle (sharing across
:meth:`DelayMatrix.copy`, invalidation on out-of-pattern edits).
"""

import random

import numpy as np
import pytest

from repro.designs.generator import GeneratorParams, build_generated_design
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.reformulate import propagate_delays
from repro.kernel import kernel_config, set_kernel_config
from repro.sdc.delays import NOT_CONNECTED, node_delays
from repro.tech.delay_model import OperatorModel


@pytest.fixture(autouse=True)
def _restore_kernel_config():
    saved = kernel_config()
    yield
    set_kernel_config(saved)


def _graph(seed: int = 6):
    return build_generated_design(GeneratorParams(seed=seed, depth=8,
                                                  width=6))


def _matrix(graph, mode: str) -> DelayMatrix:
    """A fresh matrix built under a forced dense or sparse kernel config."""
    set_kernel_config(kernel_config(), matrix_mode=mode)
    delays = node_delays(graph, OperatorModel())
    return DelayMatrix.from_graph(graph, delays)


def _apply_feedback(matrix: DelayMatrix, seed: int = 0, rounds: int = 4
                    ) -> None:
    """Deterministic random subgraph measurements, identical per seed."""
    rng = random.Random(seed)
    ids = matrix.node_order()
    for _ in range(rounds):
        covered = rng.sample(ids, k=min(6, len(ids)))
        reference = max(matrix.individual_delay(nid) for nid in covered)
        matrix.update_with_subgraph(covered, reference * 1.5)


@pytest.mark.parametrize("seed", [6, 17, 40])
class TestSparseDensePropagationParity:
    def test_same_matrix_same_count(self, seed):
        graph = _graph(seed)
        sparse_matrix = _matrix(graph, "sparse")
        assert sparse_matrix.connectivity_pattern() is not None
        dense_matrix = _matrix(graph, "dense")
        assert dense_matrix.connectivity_pattern() is None
        assert np.array_equal(sparse_matrix.matrix, dense_matrix.matrix)

        _apply_feedback(sparse_matrix, seed=seed)
        _apply_feedback(dense_matrix, seed=seed)

        set_kernel_config(kernel_config(), matrix_mode="sparse",
                          min_sparse_nodes=0)
        changed_sparse = propagate_delays(sparse_matrix)
        set_kernel_config(kernel_config(), matrix_mode="dense")
        changed_dense = propagate_delays(dense_matrix)

        assert changed_sparse == changed_dense
        assert np.array_equal(sparse_matrix.matrix, dense_matrix.matrix)

    def test_sparse_sweep_never_connects_new_pairs(self, seed):
        graph = _graph(seed)
        matrix = _matrix(graph, "sparse")
        holes = matrix.matrix == NOT_CONNECTED
        _apply_feedback(matrix, seed=seed)
        set_kernel_config(kernel_config(), matrix_mode="sparse",
                          min_sparse_nodes=0)
        propagate_delays(matrix)
        assert np.array_equal(matrix.matrix == NOT_CONNECTED, holes)


class TestPatternLifecycle:
    def test_copy_shares_order_and_pattern(self):
        matrix = _matrix(_graph(), "sparse")
        matrix.node_order()  # force the derived order into existence
        duplicate = matrix.copy()
        assert duplicate._order is matrix._order
        assert duplicate._pattern is matrix._pattern
        assert duplicate.connectivity_pattern() is \
            matrix.connectivity_pattern()
        # The matrix itself must NOT be shared: feedback on the copy may not
        # leak back into the source.
        duplicate.matrix[0, 0] = -123.0
        assert matrix.matrix[0, 0] != -123.0

    def test_descendant_pattern_is_cached_and_shared(self):
        matrix = _matrix(_graph(), "sparse")
        first = matrix.descendant_pattern()
        assert first is matrix.descendant_pattern()
        assert matrix.copy().descendant_pattern() is first

    def test_lowering_a_connected_entry_keeps_the_pattern(self):
        matrix = _matrix(_graph(), "sparse")
        ids = matrix.node_order()
        u, v = next((u, v) for u in ids for v in ids
                    if u != v and matrix.is_connected(u, v))
        matrix.set(u, v, matrix.get(u, v) * 0.5)
        assert matrix.connectivity_pattern() is not None

    def test_disconnecting_an_entry_drops_the_pattern(self):
        matrix = _matrix(_graph(), "sparse")
        ids = matrix.node_order()
        u, v = next((u, v) for u in ids for v in ids
                    if u != v and matrix.is_connected(u, v))
        matrix.set(u, v, NOT_CONNECTED)
        assert matrix.connectivity_pattern() is None
        assert matrix.descendant_pattern() is None

    def test_structural_edit_invalidates_the_pattern(self):
        from repro.ir.ops import OpKind

        graph = _graph()
        matrix = _matrix(graph, "sparse")
        assert matrix.connectivity_pattern() is not None
        ids = graph.node_ids()
        graph.add_node(OpKind.ADD, (ids[0], ids[1]))
        # The graph's view moved on, so the stale pattern must not be served.
        assert matrix.connectivity_pattern() is None

    def test_pattern_survives_feedback_lowering(self):
        matrix = _matrix(_graph(), "sparse")
        _apply_feedback(matrix)
        assert matrix.connectivity_pattern() is not None
