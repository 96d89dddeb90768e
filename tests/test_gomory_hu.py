"""Tests for the global min-cut contraction and the cached cut tree.

Every run takes its global min-cut from one maximum-adjacency contraction
(``cached_global_mincut``).  It is held to two exact references: a fresh,
uncached Gusfield build (the frozen ``gomory_hu_tree`` of
``tests/_oracles/graph.py``) and the minimum over all node pairs of the
frozen recursive solver in ``tests/_reference_dinic.py``.  The cached cut
tree (``cached_gomory_hu``), which only the reference benchmark resolves, is
held to per-pair Dinic solves.
"""

from __future__ import annotations

import random

import pytest
from _oracles.graph import CutTree, gomory_hu_tree
from _reference_dinic import _DinicSolver as _ReferenceSolver
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dispute_state import DisputeState
from repro.engine import runner as engine_runner
from repro.exceptions import GraphError
from repro.graph.flow_cache import (
    all_cache_stats,
    cached_all_target_mincuts,
    clear_mincut_cache,
    graph_signature,
)
from repro.graph.generators import figure1a, random_connected_network, torus_2d
from repro.graph.gomory_hu import (
    adjacency_rows,
    cached_global_mincut,
    cached_gomory_hu,
    clear_gomory_hu_cache,
    global_mincut_without,
    incremental_repair_stats,
    is_symmetric,
)
from repro.graph.maxflow import _DinicSolver, max_flow_value
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView
from repro.types import node_pair
from repro.workloads.topologies import topology


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_mincut_cache()
    clear_gomory_hu_cache()
    yield
    clear_mincut_cache()
    clear_gomory_hu_cache()


def _symmetric_random(node_count: int, seed: int, min_connectivity: int = 2) -> NetworkGraph:
    return random_connected_network(
        node_count,
        min_connectivity,
        random.Random(seed),
        max_capacity=6,
        symmetric=True,
    )


def _oracle_mincut(graph: NetworkGraph, a, b) -> int:
    return max_flow_value(graph, a, b)


def _reference_global_mincut(graph: NetworkGraph) -> int:
    """``min`` over all node pairs of the frozen recursive solver's max-flow."""
    reference = _ReferenceSolver()
    for node in graph.nodes():
        reference.add_node(node)
    for tail, head, capacity in graph.edges():
        reference.add_edge(tail, head, capacity)
    reference.snapshot()
    nodes = graph.nodes()
    values = []
    for index, a in enumerate(nodes):
        for b in nodes[index + 1 :]:
            reference.reset()
            values.append(reference.max_flow(a, b))
    return min(values)


def _graph(node_count: int, links) -> NetworkGraph:
    """The symmetric graph on nodes ``1..node_count`` with the given ``(a, b, capacity)`` links."""
    graph = NetworkGraph()
    for node in range(1, node_count + 1):
        graph.add_node(node)
    for a, b, capacity in links:
        graph.add_edge(a, b, capacity)
        graph.add_edge(b, a, capacity)
    return graph


def gomory_hu_cache_stats():
    return all_cache_stats()["gomory_hu"]


@st.composite
def symmetric_graphs(draw, max_nodes=24):
    """Symmetric graphs on 2-``max_nodes`` nodes, from empty to complete, capacities 1-50.

    Sparse draws leave isolated nodes and disconnected graphs behind.
    """
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    density = draw(st.sampled_from((0.0, 0.05, 0.15, 0.3, 0.5, 0.8, 1.0)))
    max_capacity = draw(st.sampled_from((1, 2, 7, 50)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    graph = NetworkGraph()
    for node in range(1, node_count + 1):
        graph.add_node(node)
    for a in range(1, node_count + 1):
        for b in range(a + 1, node_count + 1):
            if rng.random() < density:
                capacity = rng.randint(1, max_capacity)
                graph.add_edge(a, b, capacity)
                graph.add_edge(b, a, capacity)
    return graph


#: Global min-cuts of the 1024-node fabrics, as Gusfield trees measured them
#: (~37 s together, too slow to rebuild here; the smaller fabrics are
#: rebuilt below).  The ``datacenter_scale`` grid digest pins them too.
LARGE_FABRIC_MINCUTS = {"torus-32x32": 8, "ring-rings-32x32": 16, "octopus-32x32": 62}
FABRICS = (
    "fat-tree-8",
    "fat-tree-16",
    "torus-8x8",
    "torus-16x16",
    "torus-32x32",
    "ring-rings-8x8",
    "ring-rings-16x16",
    "ring-rings-32x32",
    "octopus-8x8",
    "octopus-16x16",
    "octopus-32x32",
)


class TestGlobalMinCut:
    @settings(max_examples=120, deadline=None)
    @given(symmetric_graphs())
    def test_contraction_equals_both_oracles(self, graph):
        clear_gomory_hu_cache()
        value = cached_global_mincut(graph_signature(graph))
        assert value == gomory_hu_tree(graph).min_weight()
        assert value == _reference_global_mincut(graph)

    @settings(max_examples=60, deadline=None)
    @given(symmetric_graphs(max_nodes=16), st.lists(st.integers(0, 15), max_size=3))
    @example(_graph(2, [(1, 2, 3)]), [])
    @example(_graph(2, []), [])
    @example(_graph(6, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 2), (5, 6, 2), (6, 4, 2)]), [0])
    def test_in_place_kernel_minus_nodes_equals_the_reference(self, graph, picks):
        nodes = graph.nodes()
        removed = sorted({pick for pick in picks if pick < len(nodes)})[: len(nodes) - 2]
        rows, scale = adjacency_rows(graph_signature(graph))
        copy = [dict(row) for row in rows]
        value = scale * global_mincut_without(rows, removed)
        assert rows == copy
        member = graph.remove_nodes([nodes[index] for index in removed])
        assert value == _reference_global_mincut(member)

    @pytest.mark.parametrize("name", FABRICS)
    def test_every_fabric(self, name):
        graph = topology(name)
        expected = LARGE_FABRIC_MINCUTS.get(name)
        if expected is None:
            expected = gomory_hu_tree(graph).min_weight()
        assert cached_global_mincut(graph_signature(graph)) == expected

    @pytest.mark.parametrize("name", ["fat-tree-8", "torus-8x8", "ring-rings-8x8", "octopus-8x8"])
    def test_every_node_deleted_subgraph_of_a_small_fabric(self, name):
        graph = topology(name)
        for node in graph.nodes():
            smaller = graph.remove_nodes([node])
            expected = gomory_hu_tree(smaller).min_weight()
            assert cached_global_mincut(graph_signature(smaller)) == expected, node

    def test_global_min_solves_no_flow_and_builds_no_tree(self, monkeypatch, contractions):
        solves = []
        original = _DinicSolver.max_flow

        def counted(self, source, sink, limit=None):
            solves.append((source, sink))
            return original(self, source, sink, limit)

        monkeypatch.setattr(_DinicSolver, "max_flow", counted)
        graph = torus_2d(4, 4)
        assert cached_global_mincut(graph_signature(graph)) == 8
        assert cached_global_mincut(graph_signature(torus_2d(4, 4))) == 8  # fresh object: a hit
        assert solves == [] and len(contractions) == 1
        stats = gomory_hu_cache_stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_edge_cases(self, contractions):
        # An asymmetric graph never reaches the contraction: it is solved per target.
        assert broadcast_mincut(figure1a(), 1) == 2 and contractions == []
        single = NetworkGraph()
        single.add_node(1)
        with pytest.raises(GraphError):
            cached_global_mincut(graph_signature(single))
        isolated = NetworkGraph()
        isolated.add_node(1)
        isolated.add_node(2)
        assert cached_global_mincut(graph_signature(isolated)) == 0
        # The uncached entry point: a disconnected member reads 0.
        rows, scale = adjacency_rows(graph_signature(_graph(2, [(1, 2, 3)])))
        assert (scale * global_mincut_without(rows, ()), scale) == (3, 3)
        triangles = [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 2), (5, 6, 2), (6, 4, 2)]
        rows, scale = adjacency_rows(graph_signature(_graph(6, triangles)))
        assert global_mincut_without(rows, ()) == global_mincut_without(rows, (3,)) == 0
        assert global_mincut_without(rows, (0, 1, 2)) == 4

    def test_dispute_path_values_match_a_fresh_analysis(self):
        graph = torus_2d(3, 4)
        state = DisputeState(max_faults=3)
        disputes = [(1, 2), (2, 3), (5, 6)]
        for index, (a, b) in enumerate(disputes):
            state.add_disputes([node_pair(a, b)])
            derived = state.instance_graph(graph)
            for source in (1, 4, 8):
                assert broadcast_mincut(derived, source) == min(
                    _oracle_mincut(derived, source, j) for j in derived.nodes() if j != source
                ), disputes[: index + 1]

    def test_repair_counters_read_zero_with_their_key_set(self):
        cached_global_mincut(graph_signature(torus_2d(3, 3)))
        stats = incremental_repair_stats()
        assert stats == {
            key: 0
            for base in ("pairs", "adjusted", "certified", "resolved")
            for key in (base, f"lifetime_{base}")
        }


class TestTreeVsOracle:
    @pytest.mark.parametrize("node_count,seed", [(4, 0), (8, 1), (16, 2), (32, 3), (64, 4)])
    def test_all_pairs_match_dinic_oracle(self, node_count, seed):
        graph = _symmetric_random(node_count, seed)
        tree = CutTree(cached_gomory_hu(graph))
        nodes = graph.nodes()
        rng = random.Random(seed + 100)
        # Exhaustive below 16 nodes, sampled pairs above.
        if node_count <= 16:
            pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        else:
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(120)]
        for a, b in pairs:
            assert tree.mincut(a, b) == _oracle_mincut(graph, a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_ordered_pair_matches_oracle(self, seed):
        graph = _symmetric_random(10, seed, min_connectivity=3)
        tree = gomory_hu_tree(graph)
        for source in graph.nodes():
            for target in graph.nodes():
                if target != source:
                    assert tree.mincut(source, target) == _oracle_mincut(graph, source, target)

    def test_tree_validity(self):
        graph = _symmetric_random(12, 7)
        tree = gomory_hu_tree(graph)
        edges = tree.tree_edges()
        # n - 1 edges, each an exact adjacent-pair min-cut, forming one tree.
        assert len(edges) == graph.node_count() - 1
        parents = {child for child, _, _ in edges}
        assert len(parents) == len(edges)
        for child, parent, weight in edges:
            assert weight == _oracle_mincut(graph, child, parent)
            side = tree.cut_side(child)
            assert child in side and parent not in side
        assert tree.min_weight() == min(weight for _, _, weight in edges)

    def test_global_min_equals_broadcast_mincut_everywhere(self):
        graph = _symmetric_random(9, 11, min_connectivity=3)
        tree = gomory_hu_tree(graph)
        for source in graph.nodes():
            oracle = min(
                _oracle_mincut(graph, source, j) for j in graph.nodes() if j != source
            )
            assert tree.min_weight() == oracle
            assert broadcast_mincut(graph, source) == oracle

    def test_asymmetric_graph_rejected_and_falls_back(self):
        graph = figure1a()  # genuinely directed: (1,2) has no reverse edge
        assert not is_symmetric(graph.edges())
        with pytest.raises(GraphError):
            gomory_hu_tree(graph)
        assert cached_gomory_hu(graph) is None
        # The public min-cut entry points still answer via the Dinic oracle.
        oracle = min(_oracle_mincut(graph, 1, t) for t in graph.nodes() if t != 1)
        assert broadcast_mincut(graph, 1) == oracle == 2
        assert UndirectedView(graph).min_pairwise_mincut() >= 1

    def test_tree_queries_reach_the_root_and_reject_strangers(self):
        graph = _symmetric_random(8, 17)
        tree = gomory_hu_tree(graph)
        root = graph.nodes()[0]
        for other in graph.nodes()[1:]:
            assert tree.mincut(root, other) == tree.mincut(other, root)
            assert tree.mincut(root, other) == _oracle_mincut(graph, root, other)
        for u, v in ((root, 99), (99, root), (root, root)):
            with pytest.raises(GraphError):
                tree.mincut(u, v)


class TestCaching:
    def test_cached_tree_hits_on_structural_equality(self):
        graph = torus_2d(3, 3)
        first = cached_gomory_hu(graph)
        stats = gomory_hu_cache_stats()
        assert stats["misses"] >= 1 and stats["hits"] == 0
        second = cached_gomory_hu(torus_2d(3, 3))  # fresh graph object
        # torus links have capacity 2: the cache holds the unit-form tree and
        # hands out a copy scaled by the gcd, so equality is by content.
        assert second == first and set(first.weight.values()) == {8}
        assert second.signature == first.signature == graph_signature(graph)
        assert gomory_hu_cache_stats()["hits"] == 1
        unit = torus_2d(3, 3, capacity=1)
        assert cached_gomory_hu(unit) is cached_gomory_hu(unit)

    def test_all_targets_on_a_symmetric_graph_build_no_tree(self):
        # Per-target values are asked of directed graphs (broadcast_mincut
        # answers symmetric ones from the global min): a symmetric graph is
        # solved per target on one residual build, and no tree is cached.
        graph = torus_2d(3, 3)
        values = cached_all_target_mincuts(graph, 1)
        assert gomory_hu_cache_stats()["entries"] == 0
        assert values == {target: _oracle_mincut(graph, 1, target) for target in range(2, 10)}

    def test_clear_hook_empties_cache(self):
        cached_global_mincut(graph_signature(torus_2d(3, 3)))
        cached_gomory_hu(torus_2d(3, 3))
        assert gomory_hu_cache_stats()["entries"] == 2
        clear_gomory_hu_cache()
        stats = gomory_hu_cache_stats()
        assert stats["entries"] == 0 and stats["hits"] == 0 and stats["misses"] == 0

    def test_runner_clears_gomory_hu_cache_between_topologies(self, monkeypatch):
        cached_global_mincut(graph_signature(torus_2d(3, 3)))
        assert gomory_hu_cache_stats()["entries"] >= 1
        monkeypatch.setattr(engine_runner, "_LAST_TOPOLOGY", None)
        monkeypatch.setattr(engine_runner, "run_cell", lambda cell: {"cell_id": "x"})

        class _FakeCell:
            topology = "k4-fast"

        engine_runner._execute_cell(_FakeCell())
        assert gomory_hu_cache_stats()["entries"] == 0
