"""Tests for the PR 8 Gomory–Hu layer: trees, caching, and decremental repair.

The per-pair Dinic solvers in ``repro.graph.maxflow`` are the frozen
correctness oracle: every property test here asserts the tree (or a repaired
tree) reproduces the oracle's values exactly.  A fresh, uncached Gusfield
build is the frozen ``gomory_hu_tree`` of ``tests/_oracles/graph.py``.
"""

from __future__ import annotations

import random

import pytest
from _oracles.graph import gomory_hu_tree

from repro.core.dispute_state import DisputeState
from repro.engine import runner as engine_runner
from repro.exceptions import GraphError
from repro.graph import gomory_hu
from repro.graph.flow_cache import (
    all_cache_stats,
    cache_stats,
    cached_all_target_mincuts,
    cached_st_mincut,
    clear_mincut_cache,
    graph_signature,
)
from repro.graph.generators import figure1a, random_connected_network, torus_2d
from repro.graph.gomory_hu import (
    cached_global_mincut,
    cached_gomory_hu,
    clear_gomory_hu_cache,
    derive_trees_after_pair_removals,
    incremental_repair_stats,
    is_symmetric,
    repair_tree_after_pair_removal,
    tree_if_cached,
)
from repro.graph.maxflow import _DinicSolver, max_flow_value
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView


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


def gomory_hu_cache_stats():
    return all_cache_stats()["gomory_hu"]


class TestTreeVsOracle:
    @pytest.mark.parametrize("node_count,seed", [(4, 0), (8, 1), (16, 2), (32, 3), (64, 4)])
    def test_all_pairs_match_dinic_oracle(self, node_count, seed):
        graph = _symmetric_random(node_count, seed)
        tree = gomory_hu_tree(graph)
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
        assert tree.flow_equivalent
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
        assert not is_symmetric(graph)
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

    def test_repaired_tree_refuses_pairwise_queries(self):
        graph = _symmetric_random(8, 13)
        tree = gomory_hu_tree(graph)
        pair = frozenset(sorted({frozenset((t, h)) for t, h, _ in graph.edges()},
                                key=lambda p: tuple(sorted(p)))[0])
        a, b = sorted(pair)
        repaired = repair_tree_after_pair_removal(
            graph, tree, graph.remove_links_between([pair]), a, b
        )
        assert not repaired.flow_equivalent
        with pytest.raises(GraphError):
            repaired.mincut(a, b)


class TestDecrementalRepair:
    @pytest.mark.parametrize("seed", range(5))
    def test_single_removal_matches_full_resolve(self, seed):
        graph = _symmetric_random(10, seed, min_connectivity=3)
        tree = gomory_hu_tree(graph)
        pairs = sorted(
            {frozenset((t, h)) for t, h, _ in graph.edges()},
            key=lambda p: tuple(sorted(p)),
        )
        for pair in pairs:
            a, b = sorted(pair)
            smaller = graph.remove_links_between([pair])
            repaired = repair_tree_after_pair_removal(graph, tree, smaller, a, b)
            for child, parent, weight in repaired.tree_edges():
                assert weight == _oracle_mincut(smaller, child, parent)
            assert repaired.min_weight() == gomory_hu_tree(smaller).min_weight()

    def test_chained_removals_stay_exact(self):
        graph = torus_2d(4, 4)
        tree = gomory_hu_tree(graph)
        current = graph
        pairs = sorted(
            {frozenset((t, h)) for t, h, _ in graph.edges()},
            key=lambda p: tuple(sorted(p)),
        )[:6]
        for pair in pairs:
            a, b = sorted(pair)
            smaller = current.remove_links_between([pair])
            tree = repair_tree_after_pair_removal(current, tree, smaller, a, b)
            assert tree.min_weight() == gomory_hu_tree(smaller).min_weight()
            current = smaller

    def test_torus_repair_counters_are_pinned(self):
        # 12x12 torus, its first 24 link pairs removed in sorted order: every
        # step equals a full rebuild, and the repair outcomes are exact.
        graph = torus_2d(12, 12)
        pairs = sorted(
            {frozenset((t, h)) for t, h, _ in graph.edges()},
            key=lambda p: tuple(sorted(p)),
        )[:24]
        graphs = [graph]
        for pair in pairs:
            graphs.append(graphs[-1].remove_links_between([pair]))
        rebuilt = [gomory_hu_tree(smaller).min_weight() for smaller in graphs[1:]]
        clear_gomory_hu_cache()
        tree = gomory_hu_tree(graph)
        repaired = []
        for step, pair in enumerate(pairs):
            a, b = sorted(pair)
            tree = repair_tree_after_pair_removal(graphs[step], tree, graphs[step + 1], a, b)
            repaired.append(tree.min_weight())
        assert repaired == rebuilt
        stats = incremental_repair_stats()
        assert {key: stats[key] for key in ("pairs", "adjusted", "certified", "resolved")} == {
            "pairs": 24,
            "adjusted": 429,
            "certified": 2860,
            "resolved": 143,
        }

    def test_repair_counters_account_every_tree_edge(self):
        clear_gomory_hu_cache()
        graph = _symmetric_random(12, 21, min_connectivity=3)
        tree = gomory_hu_tree(graph)
        pair = sorted(
            {frozenset((t, h)) for t, h, _ in graph.edges()},
            key=lambda p: tuple(sorted(p)),
        )[0]
        a, b = sorted(pair)
        repair_tree_after_pair_removal(
            graph, tree, graph.remove_links_between([pair]), a, b
        )
        stats = incremental_repair_stats()
        assert stats["pairs"] == 1
        assert (
            stats["adjusted"] + stats["certified"] + stats["resolved"]
            == graph.node_count() - 1
        )
        # Epoch counters reset with the cache clear; lifetime counters survive.
        clear_gomory_hu_cache()
        after = incremental_repair_stats()
        assert after["pairs"] == 0
        assert after["lifetime_pairs"] == stats["lifetime_pairs"]

    def test_derive_seeds_global_min_for_final_graph(self):
        graph = torus_2d(3, 4)
        cached_gomory_hu(graph)
        pairs = [frozenset((1, 2)), frozenset((2, 3))]
        final = graph.remove_links_between(pairs)
        derived = derive_trees_after_pair_removals(graph, pairs, final)
        assert derived is not None and not derived.flow_equivalent
        assert derived.min_weight() == gomory_hu_tree(final).min_weight()
        # cached_global_mincut now answers from the seeded value.
        assert cached_global_mincut(final) == derived.min_weight()

    def test_derive_without_cached_tree_is_noop(self):
        graph = torus_2d(3, 3)
        pairs = [frozenset((1, 2))]
        final = graph.remove_links_between(pairs)
        assert derive_trees_after_pair_removals(graph, pairs, final) is None


class TestCaching:
    def test_cached_tree_hits_on_structural_equality(self):
        graph = torus_2d(3, 3)
        first = cached_gomory_hu(graph)
        stats = gomory_hu_cache_stats()
        assert stats["misses"] >= 1 and stats["hits"] == 0
        second = cached_gomory_hu(torus_2d(3, 3))  # fresh graph object
        # torus links have capacity 2: the cache holds the unit-form tree and
        # hands out a view scaled by the gcd, so equality is by content.
        assert second.tree_edges() == first.tree_edges()
        assert second.signature == first.signature == graph_signature(graph)
        assert gomory_hu_cache_stats()["hits"] == 1
        unit = torus_2d(3, 3, capacity=1)
        assert cached_gomory_hu(unit) is cached_gomory_hu(unit)

    def test_cached_tree_answers_st_queries_with_no_new_solve(self, monkeypatch):
        graph = torus_2d(3, 3)
        tree = cached_gomory_hu(graph)
        # A build stores nothing in the flow LRU; its queries ask the tree.
        assert cache_stats()["entries"] == 0
        solves = []
        original = _DinicSolver.max_flow

        def counted(self, source, sink, limit=None):
            solves.append((source, sink))
            return original(self, source, sink, limit)

        monkeypatch.setattr(_DinicSolver, "max_flow", counted)
        nodes = graph.nodes()
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for child, parent, weight in tree.tree_edges():
            assert cached_st_mincut(graph, child, parent) == weight
            assert cached_st_mincut(graph, parent, child) == weight
        # Tree-adjacent or not, every pair is a path minimum: no solve.
        values = {pair: cached_st_mincut(graph, *pair) for pair in pairs}
        assert solves == []
        monkeypatch.setattr(_DinicSolver, "max_flow", original)
        assert values == {pair: _oracle_mincut(graph, *pair) for pair in pairs}

    def test_st_query_uses_existing_tree_without_building_one(self):
        graph = torus_2d(3, 3)
        signature = graph_signature(graph)
        # No tree cached: a plain st query must NOT trigger a build.
        value = cached_st_mincut(graph, 1, 9)
        assert tree_if_cached(signature) is None
        assert value == _oracle_mincut(graph, 1, 9)
        # With a tree cached, a fresh st query is answered from the tree.
        cached_gomory_hu(graph)
        clear_mincut_cache()  # drop the seeded st keys, keep the tree
        assert cached_st_mincut(graph, 2, 8) == _oracle_mincut(graph, 2, 8)

    def test_all_targets_on_a_symmetric_graph_build_no_tree(self):
        # Per-target values are asked of directed graphs (broadcast_mincut
        # answers symmetric ones from the global min): a symmetric graph is
        # solved per target on one residual build, and no tree is cached.
        graph = torus_2d(3, 3)
        values = cached_all_target_mincuts(graph, 1)
        assert gomory_hu_cache_stats()["entries"] == 0
        assert values == {target: _oracle_mincut(graph, 1, target) for target in range(2, 10)}

    def test_clear_hook_empties_cache(self):
        cached_gomory_hu(torus_2d(3, 3))
        assert gomory_hu_cache_stats()["entries"] >= 1
        clear_gomory_hu_cache()
        stats = gomory_hu_cache_stats()
        assert stats["entries"] == 0 and stats["hits"] == 0 and stats["misses"] == 0

    def test_peek_counts_nothing(self):
        cache = gomory_hu._GH_CACHE
        before = gomory_hu_cache_stats()
        assert cache.peek(("tree", ("nope",))) is None
        after = gomory_hu_cache_stats()
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])

    def test_runner_clears_gomory_hu_cache_between_topologies(self, monkeypatch):
        cached_gomory_hu(torus_2d(3, 3))
        assert gomory_hu_cache_stats()["entries"] >= 1
        monkeypatch.setattr(engine_runner, "_LAST_TOPOLOGY", None)
        monkeypatch.setattr(engine_runner, "run_cell", lambda cell: {"cell_id": "x"})

        class _FakeCell:
            topology = "k4-fast"

        engine_runner._execute_cell(_FakeCell())
        assert gomory_hu_cache_stats()["entries"] == 0


class TestDisputePathIntegration:
    def test_instance_graph_seeds_incremental_repair(self):
        graph = torus_2d(3, 4)
        state = DisputeState(max_faults=2)
        first = state.instance_graph(graph)
        assert graph_signature(first) == graph_signature(graph)
        # Analyse G_0 so its tree is cached (as gamma_k derivation would).
        assert broadcast_mincut(first, 1) == gomory_hu_tree(graph).min_weight()
        state.add_dispute(1, 2)
        before = incremental_repair_stats()["pairs"]
        second = state.instance_graph(graph)
        assert incremental_repair_stats()["pairs"] == before + 1
        # The repaired tree seeds the global-min used by gamma_{k+1}.
        expected = gomory_hu_tree(second).min_weight()
        assert broadcast_mincut(second, 1) == expected
        assert gomory_hu_cache_stats()["entries"] >= 2

    def test_incremental_values_match_full_analysis(self):
        graph = torus_2d(3, 4)
        incremental = DisputeState(max_faults=3)
        incremental.instance_graph(graph)
        disputes = [(1, 2), (2, 3), (5, 6)]
        for a, b in disputes:
            incremental.add_dispute(a, b)
            derived = incremental.instance_graph(graph)
            clear_mincut_cache()
            clear_gomory_hu_cache()
            fresh = DisputeState(max_faults=3)
            fresh.add_disputes([frozenset((x, y)) for x, y in disputes if (x, y) <= (a, b)])
            expected_graph = fresh.instance_graph(graph)
            assert graph_signature(derived) == graph_signature(expected_graph)
            for source in (1, 4, 8):
                assert broadcast_mincut(derived, source) == broadcast_mincut(
                    expected_graph, source
                )
