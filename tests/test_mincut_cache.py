"""Cached min-cut values must match fresh Dinic solves, and the capacity
layer's memoisation must be invisible to callers (same values, fresh dicts,
correct gamma*)."""

from __future__ import annotations

import random

import pytest

from repro.capacity.gamma_star import construct_gamma_family, gamma_star
from repro.exceptions import GraphError
from repro.graph.flow_cache import (
    cache_stats,
    cached_all_target_mincuts,
    clear_mincut_cache,
    graph_signature,
)
from repro.graph.generators import complete_graph, random_connected_network
from repro.graph.maxflow import all_max_flow_values, max_flow_value
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_mincut_cache()
    yield
    clear_mincut_cache()


def _random_graphs():
    for seed in range(5):
        yield random_connected_network(6, 3, random.Random(seed), max_capacity=4)


class TestCachedValuesMatchFreshSolves:
    def test_cached_all_target_mincuts_matches_per_target_solves(self):
        for graph in _random_graphs():
            source = graph.nodes()[0]
            expected = {
                node: max_flow_value(graph, source, node)
                for node in graph.nodes()
                if node != source
            }
            assert cached_all_target_mincuts(graph, source) == expected
            assert broadcast_mincut(graph, source) == min(expected.values())

    def test_solver_reuse_matches_fresh_builds(self):
        for graph in _random_graphs():
            source = graph.nodes()[0]
            sinks = [node for node in graph.nodes() if node != source]
            shared = all_max_flow_values(graph, source, sinks)
            fresh = {sink: max_flow_value(graph, source, sink) for sink in sinks}
            assert shared == fresh

    def test_undirected_pairwise_mincut_matches_naive(self):
        for graph in _random_graphs():
            view = UndirectedView(graph)
            digraph = view.as_symmetric_digraph()
            nodes = graph.nodes()
            naive = min(
                max_flow_value(digraph, a, b)
                for index, a in enumerate(nodes)
                for b in nodes[index + 1 :]
            )
            assert view.min_pairwise_mincut() == naive


class TestCacheBehaviour:
    def test_hits_accumulate_on_identical_graphs(self):
        graph = complete_graph(4, capacity=2)
        cached_all_target_mincuts(graph, 1)
        before = cache_stats()
        # A structurally identical but distinct object still hits.
        clone = graph.copy()
        cached_all_target_mincuts(clone, 1)
        after = cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_returned_dict_mutation_does_not_poison_cache(self):
        graph = complete_graph(4, capacity=2)
        first = cached_all_target_mincuts(graph, 1)
        first[2] = 999
        assert cached_all_target_mincuts(graph, 1)[2] != 999

    def test_clear_resets_counters_and_entries(self):
        graph = complete_graph(4)
        cached_all_target_mincuts(graph, 1)
        clear_mincut_cache()
        stats = cache_stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_rejects_bad_endpoints(self):
        graph = complete_graph(4)
        with pytest.raises(GraphError):
            cached_all_target_mincuts(graph, 99)
        with pytest.raises(GraphError):
            max_flow_value(graph, 1, 99)

    def test_cache_stats_lifetime_counters_survive_clear(self):
        graph = complete_graph(4, capacity=2)
        before = cache_stats()
        cached_all_target_mincuts(graph, 1)
        cached_all_target_mincuts(graph.copy(), 1)  # hit
        clear_mincut_cache()
        cached_all_target_mincuts(graph, 1)  # miss again after the clear
        after = cache_stats()
        # Epoch counters were reset by the clear...
        assert after["hits"] == 0
        assert after["misses"] == 1
        # ...but the lifetime counters cover the whole sequence.
        assert after["lifetime_hits"] == before["lifetime_hits"] + 1
        assert after["lifetime_misses"] == before["lifetime_misses"] + 2
        assert after["lifetime_hit_rate"] is not None

    def test_signature_distinguishes_capacities_and_structure(self):
        base = complete_graph(4, capacity=2)
        assert graph_signature(base) == graph_signature(base.copy())
        assert graph_signature(base) != graph_signature(complete_graph(4, capacity=3))
        assert graph_signature(base) != graph_signature(complete_graph(5, capacity=2))


class TestGammaStarWithDeduplication:
    def _naive_gamma_star(self, graph: NetworkGraph, source, max_faults) -> int:
        family = construct_gamma_family(graph, source, max_faults)
        values = []
        for candidate in family.values():
            values.append(
                min(
                    max_flow_value(candidate, source, node)
                    for node in candidate.nodes()
                    if node != source
                )
            )
        return min(values)

    def test_gamma_star_equals_naive_per_candidate_solves(self):
        for graph in _random_graphs():
            source = graph.nodes()[0]
            assert gamma_star(graph, source, 1) == self._naive_gamma_star(graph, source, 1)

    def test_gamma_star_complete_graph_reference_value(self):
        assert gamma_star(complete_graph(4, capacity=2), 1, 1) == 4

    def test_empty_fault_set_maps_to_full_graph(self):
        graph = complete_graph(4, capacity=2)
        family = construct_gamma_family(graph, 1, 1)
        assert graph_signature(family[frozenset()]) == graph_signature(graph)
        # The family entry is a detached copy, not the caller's object.
        assert family[frozenset()] is not graph
