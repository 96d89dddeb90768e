"""Tests for the PR 4 process-wide structure caches.

Two caches ride on the canonical graph-signature contract of
``repro.graph.flow_cache``:

* arborescence packings (``repro.graph.spanning_trees``) keyed on
  ``(graph_signature, root, count)``;
* vertex-disjoint relay paths (``repro.classical.relay``) keyed on
  ``(graph_signature, sender, receiver, path_count)``.

The tests pin down: re-lookups return graph-signature-correct (identical)
results without recomputing, structurally different graphs never share
entries, returned objects are fresh (mutating them cannot poison the cache),
and clearing the ``"topology"`` scope of the cache registry invalidates —
including through the engine runner's per-topology hygiene.  Stats are read
through the registry (``all_cache_stats()[name]``), the one cache surface.
"""

from __future__ import annotations

import pytest

from _oracles.graph import validate_packing

from repro.classical.relay import DisjointPathRelay, relay_path_cache_stats
from repro.engine import runner as engine_runner
from repro.graph.connectivity import vertex_disjoint_paths
from repro.graph.flow_cache import all_cache_stats, clear_scope
from repro.graph.generators import complete_graph, figure2a
from repro.graph.maxflow import _DinicSolver
from repro.graph.spanning_trees import clear_pack_cache, pack_arborescences
from repro.transport.faults import FaultModel
from repro.transport.network import SynchronousNetwork
from repro.workloads.topologies import topology


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_scope("topology")
    yield
    clear_scope("topology")


def pack_cache_stats():
    return all_cache_stats()["arborescence_packs"]


def _packing_shape(trees):
    return [sorted(tree.parents.items()) for tree in trees]


class TestPackCache:
    def test_relookup_returns_identical_packing(self):
        graph = figure2a()
        first = pack_arborescences(graph, 1)
        stats = pack_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = pack_arborescences(graph, 1)
        stats = pack_cache_stats()
        assert stats["hits"] == 1
        assert _packing_shape(first) == _packing_shape(second)
        validate_packing(graph, 1, second)

    def test_structurally_equal_graph_hits_without_identity(self):
        first = pack_arborescences(figure2a(), 1)
        second = pack_arborescences(figure2a(), 1)  # a *fresh* graph object
        assert pack_cache_stats()["hits"] == 1
        assert _packing_shape(first) == _packing_shape(second)

    def test_different_roots_and_graphs_do_not_share_entries(self):
        graph = complete_graph(4, capacity=2)
        pack_arborescences(graph, 1)
        pack_arborescences(graph, 2)
        pack_arborescences(complete_graph(5, capacity=2), 1)
        stats = pack_cache_stats()
        assert stats["misses"] == 3 and stats["hits"] == 0

    def test_cached_trees_are_fresh_objects(self):
        graph = figure2a()
        first = pack_arborescences(graph, 1)
        first[0].parents.clear()  # vandalise the returned tree
        second = pack_arborescences(graph, 1)
        validate_packing(graph, 1, second)  # cache must be unaffected

    def test_clear_invalidates(self):
        graph = figure2a()
        pack_arborescences(graph, 1)
        clear_pack_cache()
        assert pack_cache_stats()["entries"] == 0
        pack_arborescences(graph, 1)
        stats = pack_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0


class TestRelayPathCache:
    def _relay(self, graph=None):
        graph = graph if graph is not None else topology("k7-unit")
        network = SynchronousNetwork(graph, FaultModel())
        return DisjointPathRelay(network, max_faults=1)

    def test_shared_cache_across_relay_objects(self):
        first = self._relay()
        second = self._relay()  # fresh relay over a structurally equal graph
        paths_a = first.paths_between(2, 5)
        assert relay_path_cache_stats()["misses"] == 1
        paths_b = second.paths_between(2, 5)
        stats = relay_path_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert paths_a == paths_b

    def test_returned_paths_are_fresh_copies(self):
        relay = self._relay()
        relay.paths_between(2, 5)[0].append("vandalised")
        other = self._relay()
        for path in other.paths_between(2, 5):
            assert "vandalised" not in path

    def test_cold_pair_costs_one_flow_solve(self, monkeypatch):
        # The node-split flow that decides whether 2f + 1 paths exist is the
        # one the routes are decomposed from: a cold pair is one solve.
        relay = self._relay()
        solves = []
        original = _DinicSolver.max_flow

        def counted(self, source, sink, limit=None):
            solves.append((source, sink))
            return original(self, source, sink, limit)

        monkeypatch.setattr(_DinicSolver, "max_flow", counted)
        paths = relay.paths_between(2, 5)
        assert len(solves) == 1
        assert len(paths) == 3

    def test_routes_are_the_flow_decomposition_of_every_pair(self):
        # One solve both decides and routes: the routes are exactly what
        # vertex_disjoint_paths decomposes for each ordered pair.
        graph = topology("k7-unit")
        relay = self._relay(graph)
        for sender in graph.nodes():
            for receiver in graph.nodes():
                if sender != receiver:
                    assert relay.paths_between(sender, receiver) == vertex_disjoint_paths(
                        graph, sender, receiver, 3
                    )

    def test_a_direct_link_is_the_whole_route_at_f0(self, monkeypatch):
        relay = DisjointPathRelay(
            SynchronousNetwork(topology("k7-unit"), FaultModel()), max_faults=0
        )
        solves = []
        original = _DinicSolver.max_flow

        def counted(self, source, sink, limit=None):
            solves.append((source, sink))
            return original(self, source, sink, limit)

        monkeypatch.setattr(_DinicSolver, "max_flow", counted)
        assert relay.paths_between(2, 5) == [[2, 5]]
        assert solves == []

    def test_per_object_cache_skips_shared_lookup(self):
        relay = self._relay()
        relay.paths_between(2, 5)
        lookups = relay_path_cache_stats()
        relay.paths_between(2, 5)  # served from the relay's own dict
        assert relay_path_cache_stats() == lookups

    def test_distinct_pairs_and_path_counts_are_distinct_entries(self):
        graph = topology("k7-unit")
        network = SynchronousNetwork(graph, FaultModel())
        DisjointPathRelay(network, max_faults=1).paths_between(2, 5)
        DisjointPathRelay(network, max_faults=1).paths_between(5, 2)
        DisjointPathRelay(network, max_faults=2).paths_between(2, 5)
        stats = relay_path_cache_stats()
        assert stats["misses"] == 3 and stats["entries"] == 3

    def test_clear_invalidates(self):
        relay = self._relay()
        relay.paths_between(2, 5)
        clear_scope("topology")
        assert relay_path_cache_stats()["entries"] == 0
        self._relay().paths_between(2, 5)
        assert relay_path_cache_stats()["misses"] == 1


class TestRunnerCacheHygiene:
    def test_topology_switch_clears_structure_caches(self, monkeypatch):
        pack_arborescences(figure2a(), 1)
        self_relay = DisjointPathRelay(
            SynchronousNetwork(topology("k7-unit"), FaultModel()), max_faults=1
        )
        self_relay.paths_between(2, 5)
        assert pack_cache_stats()["entries"] == 1
        assert relay_path_cache_stats()["entries"] == 1

        monkeypatch.setattr(engine_runner, "_LAST_TOPOLOGY", None)
        monkeypatch.setattr(engine_runner, "run_cell", lambda cell: {"cell_id": "x"})

        class _Cell:
            topology = "k4-fast"

        engine_runner._execute_cell(_Cell())
        assert pack_cache_stats()["entries"] == 0
        assert relay_path_cache_stats()["entries"] == 0


class TestCacheRegistry:
    """``all_cache_stats`` / ``clear_scope`` are the one cache surface."""

    #: The stats and clear functions the reference benchmark resolves by
    #: name (``benchmarks/layers/seams.py`` and ``workloads.py``).
    BENCHMARK_NAMES = (
        "repro.gf.field:kernel_cache_stats",
        "repro.coding.verification:verification_cache_stats",
        "repro.core.parameters:instance_parameter_cache_stats",
        "repro.classical.relay:relay_path_cache_stats",
        "repro.graph.flow_cache:cache_stats",
        "repro.service.session:topology_context_stats",
        "repro.graph.gomory_hu:incremental_repair_stats",
        "repro.graph.flow_cache:clear_mincut_cache",
        "repro.graph.gomory_hu:clear_gomory_hu_cache",
        "repro.graph.spanning_trees:clear_pack_cache",
    )

    def test_benchmark_names_resolve(self):
        import importlib

        for target in self.BENCHMARK_NAMES:
            module, name = target.split(":")
            assert callable(getattr(importlib.import_module(module), name)), target

    def test_clearing_the_topology_scope_empties_every_topology_cache(self):
        import repro.engine  # noqa: F401 - registers every cache family
        import repro.service  # noqa: F401
        from repro.graph import flow_cache

        pack_arborescences(figure2a(), 1)
        DisjointPathRelay(
            SynchronousNetwork(topology("k7-unit"), FaultModel()), max_faults=1
        ).paths_between(2, 5)
        topology_scoped = sorted(
            name for name, (scope, _clear, _stats) in flow_cache._REGISTRY.items()
            if scope == "topology"
        )
        assert {"mincut", "gomory_hu", "arborescence_packs", "relay_paths"} <= set(
            topology_scoped
        )
        assert all_cache_stats()["arborescence_packs"]["entries"] == 1
        clear_scope("topology")
        stats = all_cache_stats()
        assert {name: stats[name]["entries"] for name in topology_scoped} == {
            name: 0 for name in topology_scoped
        }
