"""GraphView rebuilds after structural edits to an already-viewed container.

Once a view is cached on a container, a structural edit must make the next
``from_*`` call return a view that is indistinguishable, *field by field*,
from one built on a container that was never viewed: same Kahn order, same
CSR arrays (operand order and duplicates included), same levels and level
grouping, same source mask.  Orders and levels are also checked against the
pure-Python references.  These tests drive single edits and random edit
sequences through all three containers (dataflow graph, netlist, AIG).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.aig.aig import Aig, literal_node
from repro.designs.generator import GeneratorParams, build_generated_design
from repro.ir.ops import OpKind
from repro.kernel import GraphView
from tests.kernel.reference import (
    graph_adjacency,
    netlist_adjacency,
    reference_longest_path_lengths,
    reference_topological_order,
)
from repro.kernel.view import _CACHE_ATTR
from repro.netlist.gates import GateKind
from repro.netlist.netlist import Netlist

_FIELDS = ("order", "pred_indptr", "pred_indices", "succ_indptr",
           "succ_indices", "levels", "level_order", "level_starts",
           "source_mask")

_EDIT_OPS = (OpKind.ADD, OpKind.SUB, OpKind.XOR, OpKind.AND, OpKind.OR)

_GATE_KINDS = (GateKind.AND2, GateKind.OR2, GateKind.XOR2, GateKind.NAND2)


def assert_views_equal(actual: GraphView, expected: GraphView) -> None:
    assert actual.order_ids() == expected.order_ids()
    assert actual.index_of == expected.index_of
    assert actual.num_levels == expected.num_levels
    for field in _FIELDS:
        assert np.array_equal(getattr(actual, field),
                              getattr(expected, field)), field


def _uncached(container, from_view) -> GraphView:
    """Build ``container``'s view from scratch, ignoring any cached view."""
    if hasattr(container, _CACHE_ATTR):
        delattr(container, _CACHE_ATTR)
    return from_view(container)


def _assert_matches_reference(view: GraphView, adjacency) -> None:
    ids, operands, users = adjacency
    assert view.order_ids() == reference_topological_order(ids, operands,
                                                            users)
    expected = reference_longest_path_lengths(view.order_ids(), operands)
    assert {nid: int(view.levels[view.index_of[nid]]) for nid in ids} == \
        expected


def _base_graph(seed: int = 2):
    return build_generated_design(GeneratorParams(seed=seed, depth=5,
                                                  width=4))


def _random_netlist(seed: int = 3, num_inputs: int = 4,
                    num_gates: int = 20) -> Netlist:
    netlist = Netlist(f"random{seed}")
    rng = random.Random(seed)
    pool = [netlist.add_input(f"in{i}") for i in range(num_inputs)]
    for _ in range(num_gates):
        pool.append(netlist.add_gate(rng.choice(_GATE_KINDS),
                                     (rng.choice(pool), rng.choice(pool))))
    netlist.mark_output(pool[-1])
    return netlist


def _random_aig(seed: int = 5, num_inputs: int = 4,
                num_ands: int = 16) -> tuple[Aig, list[int]]:
    aig = Aig(f"random{seed}")
    rng = random.Random(seed)
    literals = [aig.add_input(f"in{i}") for i in range(num_inputs)]
    for _ in range(num_ands):
        literals.append(aig.add_and(rng.choice(literals),
                                    rng.choice(literals)))
    return aig, literals


def _direct_aig_levels(aig: Aig) -> dict[int, int]:
    """AND-level of every AIG node by the recurrence, without a view."""
    levels: dict[int, int] = {}
    for node in aig.nodes():
        levels[node.node_id] = 0 if not node.is_and else 1 + max(
            levels[literal_node(node.fanin0)],
            levels[literal_node(node.fanin1)])
    return levels


class TestDataflowRebuild:
    def _rebuilt_and_fresh(self, graph, edit):
        view = GraphView.from_dataflow(graph)
        edit(graph)
        rebuilt = GraphView.from_dataflow(graph)
        assert rebuilt is not view  # a structural edit really happened
        _assert_matches_reference(rebuilt, graph_adjacency(graph))
        return rebuilt, _uncached(graph, GraphView.from_dataflow)

    def test_adds_on_old_nodes(self):
        graph = _base_graph()
        old_ids = graph.node_ids()
        rng = random.Random(0)

        def edit(g):
            for _ in range(12):
                g.add_node(OpKind.XOR,
                           (rng.choice(old_ids), rng.choice(old_ids)))

        rebuilt, fresh = self._rebuilt_and_fresh(graph, edit)
        assert_views_equal(rebuilt, fresh)

    def test_chained_adds_consume_new_nodes(self):
        graph = _base_graph()
        rng = random.Random(1)

        def edit(g):
            made = []
            for _ in range(10):
                pool = g.node_ids() if not made else made
                node = g.add_node(OpKind.ADD, (rng.choice(g.node_ids()),
                                               rng.choice(pool)))
                made.append(node.node_id)

        rebuilt, fresh = self._rebuilt_and_fresh(graph, edit)
        assert_views_equal(rebuilt, fresh)

    def test_duplicate_operands_survive_rebuild(self):
        graph = _base_graph()
        target = graph.node_ids()[-1]

        def edit(g):
            node = g.add_node(OpKind.ADD, (target, target))  # u + u
            g.add_node(OpKind.XOR, (node.node_id, node.node_id))

        rebuilt, fresh = self._rebuilt_and_fresh(graph, edit)
        assert_views_equal(rebuilt, fresh)
        dense = rebuilt.index_of[graph.node_ids()[-1]]
        preds = rebuilt.pred_indices[rebuilt.pred_indptr[dense]:
                                     rebuilt.pred_indptr[dense + 1]]
        assert len(preds) == 2 and preds[0] == preds[1]

    def test_new_parameter_is_a_source(self):
        graph = _base_graph()
        GraphView.from_dataflow(graph)
        param = graph.add_node(OpKind.PARAM, width=4, name="late")
        view = GraphView.from_dataflow(graph)
        dense = view.index_of[param.node_id]
        assert view.source_mask[dense]
        assert view.levels[dense] == 0
        assert_views_equal(view, _uncached(graph, GraphView.from_dataflow))

    def test_deeper_node_adds_a_level(self):
        graph = _base_graph()
        before = GraphView.from_dataflow(graph)
        deepest = int(before.order[before.level_order[-1]])
        node = graph.add_node(OpKind.XOR, (deepest, deepest))
        after = GraphView.from_dataflow(graph)
        assert after.num_levels == before.num_levels + 1
        assert after.levels[after.index_of[node.node_id]] == \
            before.num_levels

    def test_repeated_edit_rounds_rebuild_each_time(self):
        graph = _base_graph()
        rng = random.Random(6)
        views = [GraphView.from_dataflow(graph)]
        for _ in range(3):
            ids = graph.node_ids()
            graph.add_node(OpKind.SUB, (rng.choice(ids), rng.choice(ids)))
            views.append(GraphView.from_dataflow(graph))
            assert views[-1] is not views[-2]
            assert views[-1].num_nodes == views[-2].num_nodes + 1
        assert_views_equal(views[-1],
                           _uncached(graph, GraphView.from_dataflow))

    def test_rebuilt_view_is_cached_until_next_edit(self):
        graph = _base_graph()
        GraphView.from_dataflow(graph)
        ids = graph.node_ids()
        graph.add_node(OpKind.ADD, (ids[0], ids[1]))
        rebuilt = GraphView.from_dataflow(graph)
        assert GraphView.from_dataflow(graph) is rebuilt
        graph.set_name(ids[0], "renamed")  # not structural
        assert GraphView.from_dataflow(graph) is rebuilt
        graph.add_node(OpKind.ADD, (ids[1], ids[0]))
        assert GraphView.from_dataflow(graph) is not rebuilt

    def test_editing_a_copy_keeps_the_original_view(self):
        graph = _base_graph()
        view = GraphView.from_dataflow(graph)
        clone = graph.copy()
        ids = clone.node_ids()
        node = clone.add_node(OpKind.AND, (ids[0], ids[-1]))
        clone_view = GraphView.from_dataflow(clone)
        assert node.node_id in clone_view.index_of
        assert GraphView.from_dataflow(graph) is view
        assert node.node_id not in view.index_of


class TestNetlistRebuild:
    def test_gate_adds_rebuild(self):
        netlist = _random_netlist()
        before = GraphView.from_netlist(netlist)
        rng = random.Random(4)
        ids = netlist.gate_ids()
        for _ in range(8):
            netlist.add_gate(GateKind.XOR2, (rng.choice(ids),
                                             rng.choice(ids)))
        rebuilt = GraphView.from_netlist(netlist)
        assert rebuilt is not before
        _assert_matches_reference(rebuilt, netlist_adjacency(netlist))
        assert_views_equal(rebuilt,
                           _uncached(netlist, GraphView.from_netlist))

    def test_chained_gates_rebuild(self):
        netlist = _random_netlist(seed=7)
        GraphView.from_netlist(netlist)
        tail = netlist.gate_ids()[-1]
        for _ in range(5):
            tail = netlist.add_gate(GateKind.INV, (tail,))
        rebuilt = GraphView.from_netlist(netlist)
        assert rebuilt.levels[rebuilt.index_of[tail]] == \
            rebuilt.num_levels - 1
        _assert_matches_reference(rebuilt, netlist_adjacency(netlist))
        assert_views_equal(rebuilt,
                           _uncached(netlist, GraphView.from_netlist))

    def test_new_input_is_a_source(self):
        netlist = _random_netlist()
        GraphView.from_netlist(netlist)
        late = netlist.add_input("late")
        gate = netlist.add_gate(GateKind.AND2, (late, netlist.gate_ids()[0]))
        view = GraphView.from_netlist(netlist)
        assert view.source_mask[view.index_of[late]]
        assert not view.source_mask[view.index_of[gate]]
        assert_views_equal(view, _uncached(netlist, GraphView.from_netlist))

    def test_editing_a_copy_keeps_the_original_view(self):
        netlist = _random_netlist()
        view = GraphView.from_netlist(netlist)
        clone = netlist.copy()
        gate = clone.add_gate(GateKind.INV, (clone.gate_ids()[-1],))
        assert gate in GraphView.from_netlist(clone).index_of
        assert GraphView.from_netlist(netlist) is view
        assert gate not in view.index_of

    def test_output_marking_after_edit_keeps_rebuilt_view(self):
        netlist = _random_netlist()
        GraphView.from_netlist(netlist)
        gate = netlist.add_gate(GateKind.INV, (netlist.gate_ids()[-1],))
        rebuilt = GraphView.from_netlist(netlist)
        netlist.mark_output(gate)
        assert GraphView.from_netlist(netlist) is rebuilt


class TestAigRebuild:
    def test_and_adds_rebuild(self):
        aig, literals = _random_aig()
        before = GraphView.from_aig(aig)
        rng = random.Random(8)
        for _ in range(6):
            literals.append(aig.add_xor(rng.choice(literals),
                                        rng.choice(literals)))
        rebuilt = GraphView.from_aig(aig)
        assert rebuilt is not before
        assert_views_equal(rebuilt, _uncached(aig, GraphView.from_aig))

    def test_new_input_is_a_source(self):
        aig, literals = _random_aig()
        GraphView.from_aig(aig)
        late = aig.add_input("late")
        aig.add_and(late, literals[-1])
        view = GraphView.from_aig(aig)
        late_node = aig.inputs()[-1]
        assert view.source_mask[view.index_of[late_node]]
        assert view.levels[view.index_of[late_node]] == 0
        assert_views_equal(view, _uncached(aig, GraphView.from_aig))

    def test_levels_after_edit_match_direct_recurrence(self):
        aig, literals = _random_aig(seed=9)
        before = aig.levels()  # caches the view behind the level query
        for _ in range(4):
            literals.append(aig.add_and(literals[-1], literals[0] ^ 1))
        aig.mark_output(literals[-1])
        after = aig.levels()
        assert len(after) == len(before) + 4
        assert after == _direct_aig_levels(aig)
        assert aig.depth() == after[literal_node(literals[-1])]

    def test_strash_hit_after_edit_keeps_rebuilt_view(self):
        aig, literals = _random_aig()
        GraphView.from_aig(aig)
        made = aig.add_and(literals[0], literals[-1] ^ 1)
        rebuilt = GraphView.from_aig(aig)
        assert aig.add_and(literals[0], literals[-1] ^ 1) == made
        assert GraphView.from_aig(aig) is rebuilt


class TestRandomEditSequences:
    """The core property: any edit sequence rebuilds to the fresh view."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           num_edits=st.integers(min_value=1, max_value=24),
           chain=st.booleans())
    def test_dataflow_rebuilt_equals_fresh(self, seed, num_edits, chain):
        graph = _base_graph(seed=seed % 7)
        GraphView.from_dataflow(graph)
        rng = random.Random(seed)
        made: list[int] = []
        for _ in range(num_edits):
            pool = graph.node_ids()
            if chain and made and rng.random() < 0.5:
                operands = (rng.choice(pool), rng.choice(made))
            else:
                operands = (rng.choice(pool), rng.choice(pool))
            node = graph.add_node(rng.choice(_EDIT_OPS), operands)
            made.append(node.node_id)
            if rng.random() < 0.3:  # view mid-sequence, as a loop would
                GraphView.from_dataflow(graph)
        rebuilt = GraphView.from_dataflow(graph)
        _assert_matches_reference(rebuilt, graph_adjacency(graph))
        assert_views_equal(rebuilt,
                           _uncached(graph, GraphView.from_dataflow))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_netlist_rebuilt_equals_fresh(self, seed):
        netlist = _random_netlist(seed=seed)
        GraphView.from_netlist(netlist)
        rng = random.Random(100 + seed)
        for _ in range(15):
            if rng.random() < 0.2:
                netlist.add_input()
            ids = netlist.gate_ids()
            netlist.add_gate(rng.choice(_GATE_KINDS),
                             (rng.choice(ids), rng.choice(ids)))
            if rng.random() < 0.3:
                GraphView.from_netlist(netlist)
        rebuilt = GraphView.from_netlist(netlist)
        _assert_matches_reference(rebuilt, netlist_adjacency(netlist))
        assert_views_equal(rebuilt,
                           _uncached(netlist, GraphView.from_netlist))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aig_rebuilt_equals_fresh(self, seed):
        aig, literals = _random_aig(seed=seed)
        GraphView.from_aig(aig)
        rng = random.Random(200 + seed)
        for _ in range(15):
            if rng.random() < 0.2:
                literals.append(aig.add_input())
            a, b = rng.choice(literals), rng.choice(literals)
            literals.append(aig.add_and(a ^ rng.randint(0, 1),
                                        b ^ rng.randint(0, 1)))
            if rng.random() < 0.3:
                GraphView.from_aig(aig)
        rebuilt = GraphView.from_aig(aig)
        assert aig.levels() == _direct_aig_levels(aig)
        assert_views_equal(rebuilt, _uncached(aig, GraphView.from_aig))
