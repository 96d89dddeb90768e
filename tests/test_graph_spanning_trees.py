"""Tests for arborescence packing and the topology generators.

Every packing is held to the frozen validator of ``tests/_oracles/graph.py``,
and the generators' connectivity to its exact ``vertex_connectivity``.
"""

from __future__ import annotations

import random

import pytest
from _oracles.graph import packing_edge_usage, validate_packing, vertex_connectivity
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, InfeasibleError
from repro.graph.flow_cache import graph_signature
from repro.graph.generators import (
    complete_graph,
    figure1a,
    figure1b,
    figure2_tree_packing,
    figure2a,
    heterogeneous_bottleneck,
    layered_pipeline,
    random_connected_network,
    ring_with_chords,
)
from repro.graph.maxflow import max_flow_value
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.spanning_trees import Arborescence, pack_arborescences
from repro.graph.undirected import UndirectedView


class TestArborescenceObject:
    def test_edges(self):
        tree = Arborescence(1, {2: 1, 3: 2})
        assert tree.edges() == [(1, 2), (2, 3)]

    def test_children_and_depth(self):
        tree = Arborescence(1, {2: 1, 3: 1, 4: 3})
        assert tree.children_of(1) == [2, 3]
        assert tree.depth_of(4) == 2
        assert tree.depth() == 2

    def test_single_node_tree_depth(self):
        assert Arborescence(1, {}).depth() == 0

    def test_cycle_detection(self):
        tree = Arborescence(1, {2: 3, 3: 2})
        with pytest.raises(GraphError):
            tree.depth_of(2)


class TestPacking:
    def test_figure2a_packs_two_trees(self):
        graph = figure2a()
        trees = pack_arborescences(graph, 1)
        assert len(trees) == 2
        validate_packing(graph, 1, trees)

    def test_figure2a_both_trees_use_link_1_2(self):
        """Appendix A: link (1,2) is used by both spanning trees, 2 units total."""
        graph = figure2a()
        trees = pack_arborescences(graph, 1, 2)
        usage = packing_edge_usage(trees)
        assert usage[(1, 2)] == 2

    def test_figure2_reference_packing_is_valid(self):
        graph = figure2a()
        trees = [Arborescence(1, parents) for parents in figure2_tree_packing()]
        validate_packing(graph, 1, trees)

    def test_figure1a_packs_gamma_trees(self):
        graph = figure1a()
        trees = pack_arborescences(graph, 1)
        assert len(trees) == broadcast_mincut(graph, 1) == 2
        validate_packing(graph, 1, trees)

    def test_complete_graph_packing(self):
        graph = complete_graph(5, capacity=1)
        trees = pack_arborescences(graph, 1)
        assert len(trees) == 4
        validate_packing(graph, 1, trees)

    def test_requesting_fewer_trees_is_allowed(self):
        graph = complete_graph(4, capacity=2)
        trees = pack_arborescences(graph, 1, 2)
        assert len(trees) == 2
        validate_packing(graph, 1, trees)

    def test_requesting_more_than_gamma_raises(self):
        graph = figure2a()
        with pytest.raises(InfeasibleError):
            pack_arborescences(graph, 1, 3)

    def test_zero_trees_raises(self):
        with pytest.raises(InfeasibleError):
            pack_arborescences(figure2a(), 1, 0)

    def test_missing_root_raises(self):
        with pytest.raises(GraphError):
            pack_arborescences(figure2a(), 99)

    def test_single_node_graph_raises(self):
        graph = NetworkGraph()
        graph.add_node(1)
        with pytest.raises(GraphError):
            pack_arborescences(graph, 1)

    def test_high_capacity_single_path_topology(self):
        graph = NetworkGraph.from_edges({(1, 2): 3, (2, 3): 3})
        trees = pack_arborescences(graph, 1)
        assert len(trees) == 3
        validate_packing(graph, 1, trees)

    def test_validate_packing_detects_overuse(self):
        graph = figure2a()
        tree = Arborescence(1, {2: 1, 3: 2, 4: 2})
        with pytest.raises(GraphError):
            validate_packing(graph, 1, [tree, tree, tree])

    def test_validate_packing_detects_wrong_root(self):
        graph = figure2a()
        tree = Arborescence(2, {3: 2, 4: 2, 1: 4})
        with pytest.raises(GraphError):
            validate_packing(graph, 1, [tree])

    def test_validate_packing_detects_nonspanning(self):
        graph = figure2a()
        tree = Arborescence(1, {2: 1})
        with pytest.raises(GraphError):
            validate_packing(graph, 1, [tree])

    def test_validate_packing_detects_foreign_edge(self):
        graph = figure2a()
        tree = Arborescence(1, {2: 1, 4: 1, 3: 1})  # (1, 3) is not an edge of figure2a
        with pytest.raises(GraphError):
            validate_packing(graph, 1, [tree])

    def test_packing_on_random_networks(self):
        rng = random.Random(5)
        for _ in range(5):
            graph = random_connected_network(6, 3, rng, max_capacity=3)
            trees = pack_arborescences(graph, 1)
            assert len(trees) == broadcast_mincut(graph, 1)
            validate_packing(graph, 1, trees)


class TestGenerators:
    def test_figure1a_has_no_link_between_2_and_4(self):
        graph = figure1a()
        assert not graph.has_edge(2, 4)
        assert not graph.has_edge(4, 2)

    def test_figure1b_removes_dispute_links(self):
        graph = figure1b()
        assert not graph.has_edge(2, 3)
        assert not graph.has_edge(3, 2)
        assert graph.has_edge(1, 2)

    def test_figure1b_uk_value_from_paper(self):
        """Paper: with nodes 2,3 in dispute, Omega_k = {{1,2,4},{1,3,4}} and U_k = 2."""
        graph = figure1b()
        candidates = [
            UndirectedView(graph.induced_subgraph(nodes)).min_pairwise_mincut()
            for nodes in ([1, 2, 4], [1, 3, 4])
        ]
        assert min(candidates) == 2

    def test_figure2a_contains_appendix_c_edges(self):
        graph = figure2a()
        for edge in [(2, 3), (1, 4), (4, 3)]:
            assert graph.has_edge(*edge)

    def test_figure2a_gamma(self):
        assert broadcast_mincut(figure2a(), 1) == 2

    def test_complete_graph_structure(self):
        graph = complete_graph(4, capacity=3)
        assert len(list(graph.edges())) == 12
        assert all(capacity == 3 for _, _, capacity in graph.edges())

    def test_complete_graph_too_small(self):
        with pytest.raises(GraphError):
            complete_graph(1)

    def test_ring_with_chords_connectivity(self):
        graph = ring_with_chords(7, chord_span=2)
        assert vertex_connectivity(graph) >= 3

    def test_ring_too_small(self):
        with pytest.raises(GraphError):
            ring_with_chords(2)

    def test_heterogeneous_bottleneck_capacities(self):
        graph = heterogeneous_bottleneck(4, fast_capacity=10, slow_capacity=1)
        assert graph.capacity(1, 2) == 10
        assert graph.capacity(1, 4) == 1
        assert graph.capacity(4, 2) == 1

    def test_heterogeneous_bottleneck_validation(self):
        with pytest.raises(GraphError):
            heterogeneous_bottleneck(2, 1, 1)
        with pytest.raises(GraphError):
            heterogeneous_bottleneck(4, 0, 1)

    def test_layered_pipeline_diameter_grows(self):
        shallow = layered_pipeline(1, 3)
        deep = layered_pipeline(4, 3)
        assert deep.node_count() == 1 + 4 * 3
        assert shallow.node_count() == 1 + 3
        assert max_flow_value(deep, 1, deep.node_count()) >= 1

    def test_layered_pipeline_validation(self):
        with pytest.raises(GraphError):
            layered_pipeline(0, 3)

    def test_random_connected_network_meets_connectivity(self):
        rng = random.Random(11)
        graph = random_connected_network(7, 3, rng)
        assert vertex_connectivity(graph) >= 3

    def test_random_connected_network_validation(self):
        rng = random.Random(0)
        with pytest.raises(GraphError):
            random_connected_network(3, 3, rng)
        with pytest.raises(GraphError):
            random_connected_network(3, 0, rng)

    def test_random_network_is_reproducible_with_seed(self):
        a = random_connected_network(6, 3, random.Random(21))
        b = random_connected_network(6, 3, random.Random(21))
        assert graph_signature(a) == graph_signature(b)


@st.composite
def packable_graphs(draw):
    """Random bidirectional capacitated graphs with a guaranteed spanning structure."""
    node_count = draw(st.integers(min_value=3, max_value=5))
    edges = {}
    for node in range(2, node_count + 1):
        edges[(1, node)] = draw(st.integers(min_value=1, max_value=3))
        edges[(node, 1)] = draw(st.integers(min_value=1, max_value=3))
    for a in range(2, node_count + 1):
        for b in range(2, node_count + 1):
            if a != b and draw(st.booleans()):
                edges[(a, b)] = draw(st.integers(min_value=1, max_value=3))
    return NetworkGraph.from_edges(edges)


class TestPackingProperties:
    @given(packable_graphs())
    @settings(max_examples=25, deadline=None)
    def test_packing_always_validates(self, graph):
        trees = pack_arborescences(graph, 1)
        assert len(trees) == broadcast_mincut(graph, 1)
        validate_packing(graph, 1, trees)

    @given(packable_graphs())
    @settings(max_examples=25, deadline=None)
    def test_usage_never_exceeds_capacity(self, graph):
        trees = pack_arborescences(graph, 1)
        usage = packing_edge_usage(trees)
        for (tail, head), used in usage.items():
            assert used <= graph.capacity(tail, head)
