"""Metamorphic tests on the graph / capacity analysis (ROADMAP item 4).

Multiplying every capacity by ``g`` multiplies every cut value by exactly
``g``; relabelling nodes changes nothing.  The global min-cut cache relies
on the first fact (it is keyed on the unit form of the graph), so the
scaling tests also count work: once the unit graph is analysed, no scaled
copy may run another contraction (``_ma_global_mincut``) or, for the cut
tree, another ``_DinicSolver.max_flow``.
"""

from __future__ import annotations

import random

import pytest
from _oracles.graph import CutTree, gomory_hu_tree
from _reference_dinic import _DinicSolver as _ReferenceSolver

from repro.capacity.gamma_star import gamma_star
from repro.capacity.rho_star import u1_value
from repro.graph.flow_cache import all_cache_stats, clear_mincut_cache
from repro.graph.generators import (
    random_connected_network,
    ring_of_rings,
    torus_2d,
)
from repro.graph.gomory_hu import cached_gomory_hu, clear_gomory_hu_cache
from repro.graph.maxflow import _DinicSolver
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView

SCALES = (2, 3, 64)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_mincut_cache()
    clear_gomory_hu_cache()
    yield
    clear_mincut_cache()
    clear_gomory_hu_cache()


@pytest.fixture
def solves(monkeypatch):
    """The ``(source, sink)`` of every ``_DinicSolver.max_flow`` call made so far."""
    calls = []
    original = _DinicSolver.max_flow

    def counted(self, source, sink, limit=None):
        calls.append((source, sink))
        return original(self, source, sink, limit)

    monkeypatch.setattr(_DinicSolver, "max_flow", counted)
    return calls


def _mapped(graph: NetworkGraph, scale: int = 1, relabel=lambda node: node) -> NetworkGraph:
    mapped = NetworkGraph()
    for node in graph.nodes():
        mapped.add_node(relabel(node))
    for tail, head, capacity in graph.edges():
        mapped.add_edge(relabel(tail), relabel(head), capacity * scale)
    return mapped


def _symmetric_graphs():
    yield "torus-3x3-unit", torus_2d(3, 3, capacity=1)
    yield "ring-rings-3x4", ring_of_rings(3, 4, uplinks=2, local_capacity=1, express_capacity=3)
    for seed in range(3):
        yield f"random-{seed}", random_connected_network(
            9, 3, random.Random(seed), max_capacity=5, symmetric=True
        )


SYMMETRIC = list(_symmetric_graphs())


@pytest.mark.parametrize("name,graph", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_capacity_scaling_scales_every_value_and_solves_nothing(
    name, graph, solves, contractions
):
    source = graph.nodes()[0]
    gamma = gamma_star(graph, source, 1)
    after_gamma = len(contractions)
    # Omega_1 at f = 1 is the node-deleted subgraphs, each seen through its
    # undirected view 2 * H.  gamma* just analysed every one of them (same
    # unit form: no contraction) except G minus the source, which Gamma
    # excludes: one contraction on n - 1 nodes.
    u1 = u1_value(graph, 1)
    assert len(contractions) - after_gamma == 1
    assert solves == []
    edges = CutTree(cached_gomory_hu(graph)).tree_edges()
    built, ran = len(solves), len(contractions)
    for scale in SCALES:
        scaled = _mapped(graph, scale=scale)
        assert gamma_star(scaled, source, 1) == gamma * scale
        assert u1_value(scaled, 1) == u1 * scale
        assert CutTree(cached_gomory_hu(scaled)).tree_edges() == [
            (child, parent, weight * scale) for child, parent, weight in edges
        ]
        assert broadcast_mincut(scaled, source) == broadcast_mincut(graph, source) * scale
    assert (len(solves), len(contractions)) == (built, ran)


@pytest.mark.parametrize("name,graph", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_node_relabelling_is_invisible(name, graph):
    nodes = graph.nodes()
    shuffled = list(nodes)
    random.Random(name).shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    relabelled = _mapped(graph, relabel=mapping.__getitem__)
    assert gamma_star(relabelled, mapping[nodes[0]], 1) == gamma_star(graph, nodes[0], 1)
    assert u1_value(relabelled, 1) == u1_value(graph, 1)
    tree, relabelled_tree = gomory_hu_tree(graph), gomory_hu_tree(relabelled)
    # The shapes may differ (Gusfield follows node order) but every cut tree
    # of one graph has the same weights, and answers every pair alike.
    assert sorted(w for _, _, w in relabelled_tree.tree_edges()) == sorted(
        w for _, _, w in tree.tree_edges()
    )
    reference = _ReferenceSolver()
    for tail, head, capacity in relabelled.edges():
        reference.add_edge(tail, head, capacity)
    reference.snapshot()
    for index, a in enumerate(nodes):
        for b in nodes[index + 1 :]:
            reference.reset()
            assert (
                relabelled_tree.mincut(mapping[a], mapping[b])
                == tree.mincut(a, b)
                == reference.max_flow(mapping[a], mapping[b])
            )


@pytest.mark.parametrize("name,graph", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_undirected_view_of_a_symmetric_graph_hits_its_value(name, graph, contractions):
    gamma = broadcast_mincut(graph, graph.nodes()[0])
    before, ran = all_cache_stats()["gomory_hu"], len(contractions)
    assert UndirectedView(graph).min_pairwise_mincut() == 2 * gamma
    after = all_cache_stats()["gomory_hu"]
    assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])
    assert len(contractions) == ran
