"""Tests for the directed capacitated NetworkGraph."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graph.flow_cache import graph_signature
from repro.graph.network_graph import NetworkGraph


def _edge_set(graph):
    return {(tail, head) for tail, head, _capacity in graph.edges()}


@pytest.fixture()
def small_graph():
    return NetworkGraph.from_edges({(1, 2): 2, (2, 3): 1, (1, 3): 3, (3, 1): 1})


class TestConstruction:
    def test_from_edges_mapping(self, small_graph):
        assert small_graph.node_count() == 3
        assert len(list(small_graph.edges())) == 4

    def test_from_edges_triples(self):
        graph = NetworkGraph.from_edges([(1, 2, 5), (2, 1, 7)])
        assert graph.capacity(1, 2) == 5
        assert graph.capacity(2, 1) == 7

    def test_add_node_idempotent(self):
        graph = NetworkGraph()
        graph.add_node(5)
        graph.add_node(5)
        assert graph.nodes() == [5]

    def test_self_loop_rejected(self):
        graph = NetworkGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1, 1)

    def test_nonpositive_capacity_rejected(self):
        graph = NetworkGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 2, 0)
        with pytest.raises(GraphError):
            graph.add_edge(1, 2, -3)

    def test_non_integer_capacity_rejected(self):
        graph = NetworkGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 2, 1.5)
        with pytest.raises(GraphError):
            graph.add_edge(1, 2, True)

    def test_duplicate_edge_rejected(self):
        graph = NetworkGraph()
        graph.add_edge(1, 2, 1)
        with pytest.raises(GraphError):
            graph.add_edge(1, 2, 2)

    def test_antiparallel_edges_allowed(self):
        graph = NetworkGraph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 1, 4)
        assert graph.capacity(2, 1) == 4

    def test_freeze_prevents_mutation(self, small_graph):
        small_graph.freeze()
        with pytest.raises(GraphError):
            small_graph.add_edge(5, 6, 1)

    def test_copy_is_mutable_and_equal(self, small_graph):
        small_graph.freeze()
        clone = small_graph.copy()
        assert graph_signature(clone) == graph_signature(small_graph)
        clone.add_edge(3, 2, 1)
        assert graph_signature(clone) != graph_signature(small_graph)


class TestAccessors:
    def test_nodes_sorted(self):
        graph = NetworkGraph.from_edges({(5, 1): 1, (3, 5): 2})
        assert graph.nodes() == [1, 3, 5]

    def test_capacity_missing_edge(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.capacity(2, 1)

    def test_has_edge(self, small_graph):
        assert small_graph.has_edge(1, 2)
        assert not small_graph.has_edge(2, 1)

    def test_edges_sorted_iteration(self, small_graph):
        assert list(small_graph.edges()) == [(1, 2, 2), (1, 3, 3), (2, 3, 1), (3, 1, 1)]

    def test_successors_predecessors(self, small_graph):
        assert small_graph.successors(1) == [2, 3]
        assert small_graph.predecessors(3) == [1, 2]

    def test_out_in_edges(self, small_graph):
        assert small_graph.out_edges(1) == [(1, 2, 2), (1, 3, 3)]
        assert small_graph.in_edges(3) == [(1, 3, 3), (2, 3, 1)]

    def test_missing_node_queries_raise(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.successors(99)
        with pytest.raises(GraphError):
            small_graph.in_edges(99)


class TestSurgery:
    def test_induced_subgraph(self, small_graph):
        sub = small_graph.induced_subgraph([1, 3])
        assert sub.nodes() == [1, 3]
        assert _edge_set(sub) == {(1, 3), (3, 1)}

    def test_induced_subgraph_missing_node(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.induced_subgraph([1, 42])

    def test_remove_nodes(self, small_graph):
        pruned = small_graph.remove_nodes([2])
        assert pruned.nodes() == [1, 3]
        assert not pruned.has_edge(1, 2)

    def test_remove_nodes_ignores_absent(self, small_graph):
        pruned = small_graph.remove_nodes([99])
        assert graph_signature(pruned) == graph_signature(small_graph)

    def test_remove_edges(self, small_graph):
        pruned = small_graph.remove_edges([(1, 3)])
        assert not pruned.has_edge(1, 3)
        assert pruned.has_edge(3, 1)
        assert pruned.node_count() == 3

    def test_remove_links_between(self, small_graph):
        pruned = small_graph.remove_links_between([frozenset((1, 3))])
        assert not pruned.has_edge(1, 3)
        assert not pruned.has_edge(3, 1)
        assert pruned.has_edge(1, 2)

    def test_surgery_preserves_original(self, small_graph):
        small_graph.remove_nodes([2])
        assert small_graph.has_node(2)


class TestSignatureEquality:
    """Structural equality is ``graph_signature``: the graphs define none."""

    def test_equal_graphs(self):
        a = NetworkGraph.from_edges({(1, 2): 1})
        b = NetworkGraph.from_edges({(1, 2): 1})
        assert graph_signature(a) == graph_signature(b)
        assert hash(graph_signature(a)) == hash(graph_signature(b))

    def test_capacity_difference_breaks_equality(self):
        a = NetworkGraph.from_edges({(1, 2): 1})
        b = NetworkGraph.from_edges({(1, 2): 2})
        assert graph_signature(a) != graph_signature(b)

    def test_isolated_node_breaks_equality(self):
        a = NetworkGraph.from_edges({(1, 2): 1})
        b = a.copy()
        b.add_node(3)
        assert graph_signature(a) != graph_signature(b)
