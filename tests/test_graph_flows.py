"""Tests for max-flow, min-cut, undirected views and connectivity.

The exact connectivity (``vertex_connectivity`` / ``local_connectivity``) is
the frozen oracle of ``tests/_oracles/graph.py``; ``TestConnectivity`` holds
it to networkx, so the threshold check can be held to it.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from _oracles.graph import local_connectivity, vertex_connectivity
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, InfeasibleError
from repro.graph.connectivity import meets_connectivity_requirement, vertex_disjoint_paths
from repro.graph.flow_cache import cached_all_target_mincuts
from repro.graph.generators import complete_graph, figure1a, figure1b, figure2a
from repro.graph.maxflow import _build_solver, max_flow_value
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView


def _value_and_cut(graph, source, sink):
    """The flow value and the source side of a minimum cut, on the one kernel."""
    solver = _build_solver(graph.nodes(), graph.edges())
    return solver.max_flow(source, sink), solver.min_cut_reachable(source)


class TestMaxFlow:
    def test_single_edge(self):
        graph = NetworkGraph.from_edges({(1, 2): 7})
        assert max_flow_value(graph, 1, 2) == 7

    def test_series_bottleneck(self):
        graph = NetworkGraph.from_edges({(1, 2): 5, (2, 3): 2})
        assert max_flow_value(graph, 1, 3) == 2

    def test_parallel_paths_add(self):
        graph = NetworkGraph.from_edges({(1, 2): 2, (2, 4): 2, (1, 3): 3, (3, 4): 3})
        assert max_flow_value(graph, 1, 4) == 5

    def test_no_path_gives_zero(self):
        graph = NetworkGraph.from_edges({(2, 1): 1})
        graph_with_sink = graph.copy()
        graph_with_sink.add_node(3)
        assert max_flow_value(graph_with_sink, 1, 3) == 0

    def test_missing_nodes_raise(self):
        graph = NetworkGraph.from_edges({(1, 2): 1})
        with pytest.raises(GraphError):
            max_flow_value(graph, 1, 99)

    def test_same_source_sink_raises(self):
        graph = NetworkGraph.from_edges({(1, 2): 1})
        with pytest.raises(GraphError):
            max_flow_value(graph, 1, 1)

    def test_classic_diamond_with_cross_edge(self):
        graph = NetworkGraph.from_edges(
            {(1, 2): 10, (1, 3): 10, (2, 3): 1, (2, 4): 10, (3, 4): 10}
        )
        assert max_flow_value(graph, 1, 4) == 20

    def test_cut_side_contains_source(self):
        graph = NetworkGraph.from_edges({(1, 2): 1, (2, 3): 5})
        value, cut = _value_and_cut(graph, 1, 3)
        assert value == 1
        assert 1 in cut and 3 not in cut

    def test_figure1a_mincuts_match_paper(self):
        graph = figure1a()
        assert max_flow_value(graph, 1, 2) == 2
        assert max_flow_value(graph, 1, 3) == 3
        assert max_flow_value(graph, 1, 4) == 2

    def test_figure1a_gamma_is_two(self):
        assert broadcast_mincut(figure1a(), 1) == 2

    def test_all_target_mincuts(self):
        cuts = cached_all_target_mincuts(figure1a(), 1)
        assert cuts == {2: 2, 3: 3, 4: 2}

    def test_broadcast_mincut_requires_other_nodes(self):
        graph = NetworkGraph()
        graph.add_node(1)
        with pytest.raises(GraphError):
            broadcast_mincut(graph, 1)

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(10):
            node_count = rng.randint(4, 8)
            graph = NetworkGraph()
            nx_graph = nx.DiGraph()
            for node in range(1, node_count + 1):
                graph.add_node(node)
                nx_graph.add_node(node)
            for tail in range(1, node_count + 1):
                for head in range(1, node_count + 1):
                    if tail != head and rng.random() < 0.5:
                        capacity = rng.randint(1, 6)
                        graph.add_edge(tail, head, capacity)
                        nx_graph.add_edge(tail, head, capacity=capacity)
            source, sink = 1, node_count
            expected = nx.maximum_flow_value(nx_graph, source, sink)
            assert max_flow_value(graph, source, sink) == expected


class TestUndirectedView:
    def test_capacities_sum_both_directions(self):
        graph = NetworkGraph.from_edges({(1, 2): 2, (2, 1): 3, (2, 3): 1})
        view = UndirectedView(graph)
        assert list(view.edges()) == [(1, 2, 5), (2, 3, 1)]

    def test_edges_listing(self):
        graph = NetworkGraph.from_edges({(2, 1): 3, (1, 3): 1})
        view = UndirectedView(graph)
        assert list(view.edges()) == [(1, 2, 3), (1, 3, 1)]

    def test_is_connected(self):
        connected = UndirectedView(NetworkGraph.from_edges({(1, 2): 1, (3, 2): 1}))
        assert connected.is_connected()
        graph = NetworkGraph.from_edges({(1, 2): 1})
        graph.add_node(3)
        assert not UndirectedView(graph).is_connected()

    def test_symmetric_digraph_carries_the_summed_capacities(self):
        view = UndirectedView(NetworkGraph.from_edges({(1, 2): 2, (2, 3): 1, (3, 2): 1}))
        digraph = view.as_symmetric_digraph()
        assert list(digraph.edges()) == [(1, 2, 2), (2, 1, 2), (2, 3, 2), (3, 2, 2)]
        assert max_flow_value(digraph, 1, 3) == 2
        assert view.min_pairwise_mincut() == 2

    def test_min_pairwise_mincut_requires_two_nodes(self):
        graph = NetworkGraph()
        graph.add_node(1)
        with pytest.raises(GraphError):
            UndirectedView(graph).min_pairwise_mincut()

    def test_min_pairwise_mincut_disconnected_is_zero(self):
        graph = NetworkGraph.from_edges({(1, 2): 1})
        graph.add_node(3)
        assert UndirectedView(graph).min_pairwise_mincut() == 0

    def test_figure1b_subgraph_pairwise_mincuts(self):
        """The Omega_k subgraphs of Figure 1(b) have pairwise min-cuts 2 and 3 -> U_k = 2."""
        graph = figure1b()
        sub_124 = UndirectedView(graph.induced_subgraph([1, 2, 4]))
        sub_134 = UndirectedView(graph.induced_subgraph([1, 3, 4]))
        assert sub_124.min_pairwise_mincut() == 2
        assert sub_134.min_pairwise_mincut() == 3

    def test_matches_networkx_global_mincut(self):
        rng = random.Random(7)
        for _ in range(8):
            node_count = rng.randint(4, 7)
            graph = NetworkGraph()
            nx_graph = nx.Graph()
            for node in range(1, node_count + 1):
                graph.add_node(node)
                nx_graph.add_node(node)
            for a in range(1, node_count + 1):
                for b in range(a + 1, node_count + 1):
                    if rng.random() < 0.7:
                        capacity = rng.randint(1, 5)
                        graph.add_edge(a, b, capacity)
                        nx_graph.add_edge(a, b, weight=capacity)
            if not nx.is_connected(nx_graph):
                continue
            expected = nx.stoer_wagner(nx_graph)[0]
            assert UndirectedView(graph).min_pairwise_mincut() == expected


class TestConnectivity:
    def test_complete_graph_connectivity(self):
        assert vertex_connectivity(complete_graph(4)) == 3
        assert vertex_connectivity(complete_graph(5)) == 4

    def test_path_graph_connectivity_one(self):
        graph = NetworkGraph.from_edges({(1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1})
        assert vertex_connectivity(graph) == 1

    def test_local_connectivity_direct_edge_counts(self):
        graph = NetworkGraph.from_edges({(1, 2): 5})
        assert local_connectivity(graph, 1, 2) == 1

    def test_local_connectivity_requires_distinct(self):
        graph = NetworkGraph.from_edges({(1, 2): 1})
        with pytest.raises(GraphError):
            local_connectivity(graph, 1, 1)

    def test_local_connectivity_missing_node(self):
        graph = NetworkGraph.from_edges({(1, 2): 1})
        with pytest.raises(GraphError):
            local_connectivity(graph, 1, 9)

    def test_small_graph_connectivity(self):
        assert vertex_connectivity(NetworkGraph.from_edges({(1, 2): 1})) == 0

    def test_single_node_graph(self):
        graph = NetworkGraph()
        graph.add_node(1)
        assert vertex_connectivity(graph) == 1

    def test_meets_connectivity_requirement(self):
        assert meets_connectivity_requirement(complete_graph(4), 1)
        assert not meets_connectivity_requirement(complete_graph(4), 2)
        with pytest.raises(GraphError):
            meets_connectivity_requirement(complete_graph(4), -1)

    def test_matches_networkx_vertex_connectivity(self):
        rng = random.Random(13)
        compared = 0
        while compared < 6:
            node_count = rng.randint(4, 7)
            nx_graph = nx.DiGraph()
            graph = NetworkGraph()
            for node in range(1, node_count + 1):
                nx_graph.add_node(node)
                graph.add_node(node)
            for tail in range(1, node_count + 1):
                for head in range(1, node_count + 1):
                    if tail != head and rng.random() < 0.6:
                        nx_graph.add_edge(tail, head)
                        graph.add_edge(tail, head, rng.randint(1, 3))
            if not nx.is_strongly_connected(nx_graph):
                # networkx's global node_connectivity is only meaningful (and
                # comparable to ours) for strongly connected digraphs.
                continue
            expected = nx.node_connectivity(nx_graph)
            assert vertex_connectivity(graph) == expected
            compared += 1


class TestVertexDisjointPaths:
    def test_paths_in_complete_graph(self):
        graph = complete_graph(5)
        paths = vertex_disjoint_paths(graph, 1, 4, 3)
        assert len(paths) == 3
        self._assert_disjoint_and_valid(graph, paths, 1, 4)

    def test_paths_in_figure2a(self):
        graph = figure2a()
        paths = vertex_disjoint_paths(graph, 1, 3, 2)
        assert len(paths) == 2
        self._assert_disjoint_and_valid(graph, paths, 1, 3)

    def test_requesting_too_many_paths_raises(self):
        graph = NetworkGraph.from_edges({(1, 2): 1, (2, 3): 1})
        with pytest.raises(InfeasibleError):
            vertex_disjoint_paths(graph, 1, 3, 2)

    def test_too_few_paths_is_infeasible_and_bad_endpoints_are_graph_errors(self):
        # The relay turns exactly the first into its connectivity ProtocolError.
        ring = NetworkGraph.from_edges(
            {(1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1, (3, 4): 1, (4, 3): 1, (4, 1): 1, (1, 4): 1}
        )
        assert len(vertex_disjoint_paths(ring, 1, 3, 2)) == 2
        with pytest.raises(InfeasibleError):
            vertex_disjoint_paths(ring, 1, 3, 3)
        for source, target in ((1, 1), (1, 9)):
            with pytest.raises(GraphError):
                vertex_disjoint_paths(ring, source, target, 1)

    def test_invalid_count_raises(self):
        graph = complete_graph(4)
        with pytest.raises(GraphError):
            vertex_disjoint_paths(graph, 1, 2, 0)

    def test_direct_edge_is_one_of_the_paths(self):
        graph = complete_graph(4)
        paths = vertex_disjoint_paths(graph, 1, 2, 3)
        assert [1, 2] in paths

    def test_paths_on_random_graphs_are_disjoint(self):
        rng = random.Random(99)
        for _ in range(5):
            graph = complete_graph(6)
            paths = vertex_disjoint_paths(graph, 1, 6, 5)
            self._assert_disjoint_and_valid(graph, paths, 1, 6)

    @staticmethod
    def _assert_disjoint_and_valid(graph, paths, source, target):
        internal_nodes = []
        for path in paths:
            assert path[0] == source and path[-1] == target
            for tail, head in zip(path, path[1:]):
                assert graph.has_edge(tail, head)
            internal_nodes.extend(path[1:-1])
        assert len(internal_nodes) == len(set(internal_nodes))


@st.composite
def random_capacitated_digraphs(draw):
    node_count = draw(st.integers(min_value=3, max_value=6))
    edges = {}
    for tail in range(1, node_count + 1):
        for head in range(1, node_count + 1):
            if tail != head and draw(st.booleans()):
                edges[(tail, head)] = draw(st.integers(min_value=1, max_value=5))
    # Guarantee a path from 1 to node_count exists so flows are interesting.
    for node in range(1, node_count):
        edges.setdefault((node, node + 1), draw(st.integers(min_value=1, max_value=5)))
    return NetworkGraph.from_edges(edges), node_count


class TestFlowProperties:
    @given(random_capacitated_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_flow_bounded_by_degree_cuts(self, data):
        graph, node_count = data
        value = max_flow_value(graph, 1, node_count)
        assert value <= sum(capacity for _, _, capacity in graph.out_edges(1))
        assert value <= sum(capacity for _, _, capacity in graph.in_edges(node_count))

    @given(random_capacitated_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_cut_capacity_equals_flow(self, data):
        graph, node_count = data
        value, cut = _value_and_cut(graph, 1, node_count)
        cut_capacity = sum(
            capacity
            for tail, head, capacity in graph.edges()
            if tail in cut and head not in cut
        )
        assert cut_capacity == value

    @given(random_capacitated_digraphs())
    @settings(max_examples=30, deadline=None)
    def test_broadcast_mincut_is_min_of_st_cuts(self, data):
        graph, _ = data
        gamma = broadcast_mincut(graph, 1)
        assert gamma == min(cached_all_target_mincuts(graph, 1).values())
