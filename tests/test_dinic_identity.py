"""The flow kernel in ``src/`` against the frozen recursive reference.

``repro.graph.maxflow._DinicSolver`` must leave the *same residual graph*
behind as ``tests/_reference_dinic.py`` — same value, same residual-capacity
array, same ``min_cut_reachable`` — because ``vertex_disjoint_paths``
decomposes that residual into the relay routes every persisted row depends
on.  Equal values alone would let the routes drift.
"""

from __future__ import annotations

import random

import pytest
from _oracles.graph import local_connectivity
from _reference_dinic import _DinicSolver as _ReferenceSolver

from repro.graph import connectivity
from repro.graph.generators import random_connected_network
from repro.graph.maxflow import _DinicSolver
from repro.workloads.topologies import named_topologies, topology

LIMITS = (None, 1, 2, 3)
HEADLINE_TOPOLOGIES = [
    name
    for name in named_topologies()
    if name in ("k7-unit", "k7-fast", "ring7-chords", "bottleneck4", "bottleneck5")
    or name.startswith("pipeline-")
]


class _ReferenceWithFlows(_ReferenceSolver):
    """The frozen solver plus the one accessor route extraction reads flows through."""

    def edge_flows(self):
        for edge in range(0, len(self._to), 2):
            if self._capacity[edge + 1] > 0:
                yield self._to[edge + 1], self._to[edge], self._capacity[edge + 1]


def _both(graph):
    solvers = (_ReferenceSolver(), _DinicSolver())
    for solver in solvers:
        for node in graph.nodes():
            solver.add_node(node)
        for tail, head, capacity in graph.edges():
            solver.add_edge(tail, head, capacity)
        solver.snapshot()
    return solvers


def _assert_same_solve(reference, kernel, source, sink, limit):
    reference.reset()
    kernel.reset()
    assert kernel.max_flow(source, sink, limit) == reference.max_flow(source, sink, limit)
    assert kernel._capacity == reference._capacity
    assert kernel.min_cut_reachable(source) == reference.min_cut_reachable(source)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("node_count", [4, 7, 12, 24, 40, 64])
def test_random_graphs_leave_identical_residuals(node_count, symmetric):
    for seed in range(6):
        rng = random.Random(1000 * node_count + 2 * seed + symmetric)
        graph = random_connected_network(
            node_count, rng.choice((1, 2, 3)), rng, max_capacity=6, symmetric=symmetric
        )
        reference, kernel = _both(graph)
        for _ in range(8):
            source, sink = rng.sample(graph.nodes(), 2)
            _assert_same_solve(reference, kernel, source, sink, rng.choice(LIMITS))


def test_consecutive_solves_without_reset_match():
    # Not a pattern src/ uses, but the early exit on the source's residual
    # out-capacity must be taken from the residual as it stands, not from
    # the snapshot.
    rng = random.Random(7)
    graph = random_connected_network(16, 2, rng, max_capacity=6, symmetric=False)
    reference, kernel = _both(graph)
    for _ in range(12):
        source, sink = rng.sample(graph.nodes(), 2)
        limit = rng.choice(LIMITS)
        assert kernel.max_flow(source, sink, limit) == reference.max_flow(source, sink, limit)
        assert kernel._capacity == reference._capacity


@pytest.mark.parametrize("seed", range(6))
def test_node_split_graphs_leave_identical_residuals(seed, monkeypatch):
    rng = random.Random(seed)
    graph = random_connected_network(
        rng.choice((8, 16, 32)), 3, rng, max_capacity=6, symmetric=bool(seed % 2)
    )
    kernel, names = connectivity._node_split_solver(graph)
    monkeypatch.setattr(connectivity, "_DinicSolver", _ReferenceSolver)
    reference, _ = connectivity._node_split_solver(graph)
    reference.snapshot()
    kernel.snapshot()
    for _ in range(12):
        source, sink = rng.sample(graph.nodes(), 2)
        _assert_same_solve(
            reference, kernel, names[source][1], names[sink][0], rng.choice(LIMITS)
        )


@pytest.mark.parametrize("name", HEADLINE_TOPOLOGIES)
def test_relay_routes_are_the_reference_routes(name, monkeypatch):
    graph = topology(name)
    pairs = [(a, b) for a in graph.nodes() for b in graph.nodes() if a != b]
    counts = {pair: local_connectivity(graph, *pair) for pair in pairs}
    routes = {
        pair: connectivity.vertex_disjoint_paths(graph, *pair, counts[pair]) for pair in pairs
    }
    monkeypatch.setattr(connectivity, "_DinicSolver", _ReferenceWithFlows)
    for pair in pairs:
        assert connectivity.vertex_disjoint_paths(graph, *pair, counts[pair]) == routes[pair]


def test_headline_topologies_are_all_covered():
    assert {"k7-unit", "k7-fast", "ring7-chords", "bottleneck4", "bottleneck5"} <= set(
        HEADLINE_TOPOLOGIES
    )
    assert sum(name.startswith("pipeline-") for name in HEADLINE_TOPOLOGIES) >= 4
