"""Packing capacity-disjoint spanning arborescences (Phase 1 transport).

Appendix A of the paper relies on the classical result (Edmonds' disjoint
arborescence theorem, cited via [16]) that a directed graph ``G_k`` with
``gamma_k = min_j MINCUT(G_k, 1, j)`` contains ``gamma_k`` unit-capacity
spanning trees rooted at the source such that the combined usage of every link
stays within its capacity.  Phase 1 then ships one ``L / gamma_k``-bit symbol
down each tree.

This module provides a *constructive* packing: arborescences are peeled off
one at a time following Lovász's proof of Edmonds' theorem.  While growing an
arborescence we only add an edge ``(u, v)`` (from a spanned vertex ``u`` to an
unspanned ``v``) if removing one unit of its capacity keeps
``MINCUT(root, w) >= remaining`` for every other vertex ``w``, where
``remaining`` is the number of arborescences still to be packed afterwards.
Lovász's lemma guarantees that such an edge always exists, so the peeling
never gets stuck as long as the initial min-cut condition holds.

Performance notes:
    The peeling is expensive (hundreds of max-flow feasibility probes), yet a
    NAB run re-packs the *same* instance graph for every instance until the
    dispute state changes it.  Packings are therefore memoised process-wide in
    an LRU keyed on ``(graph_signature, root, count)`` — the same canonical-
    signature contract as :mod:`repro.graph.flow_cache` — and the feasibility
    probes themselves run through the min-cut cache, so even a cold packing
    shares solves with every other analysis of the same graph.
    :func:`clear_pack_cache` resets the packing cache (the engine runner calls
    it between topologies) and :func:`pack_cache_stats` exposes its counters.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.exceptions import GraphError, InfeasibleError
from repro.graph.flow_cache import (
    MinCutCache,
    cached_all_target_mincuts,
    graph_signature,
)
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.types import Edge, NodeId


class Arborescence:
    """A spanning arborescence rooted at ``root``, stored as child -> parent."""

    def __init__(self, root: NodeId, parents: Dict[NodeId, NodeId]) -> None:
        self.root = root
        self.parents = dict(parents)

    def edges(self) -> List[Edge]:
        """Directed tree edges as ``(parent, child)`` pairs, sorted by child."""
        return [(parent, child) for child, parent in sorted(self.parents.items())]

    def nodes(self) -> List[NodeId]:
        """All vertices spanned by the arborescence (root included), sorted."""
        return sorted(set(self.parents) | {self.root})

    def children_of(self, node: NodeId) -> List[NodeId]:
        """Children of ``node`` in the arborescence, sorted."""
        return sorted(child for child, parent in self.parents.items() if parent == node)

    def depth_of(self, node: NodeId) -> int:
        """Number of edges on the path from the root to ``node``."""
        depth = 0
        current = node
        while current != self.root:
            current = self.parents[current]
            depth += 1
            if depth > len(self.parents) + 1:
                raise GraphError("arborescence parent map contains a cycle")
        return depth

    def path_from_root(self, node: NodeId) -> List[NodeId]:
        """The node sequence from the root to ``node`` (inclusive)."""
        path = [node]
        while path[-1] != self.root:
            path.append(self.parents[path[-1]])
        return list(reversed(path))

    def depth(self) -> int:
        """Maximum depth over all spanned vertices (0 for a single-node tree)."""
        if not self.parents:
            return 0
        return max(self.depth_of(node) for node in self.parents)

    def __repr__(self) -> str:
        return f"Arborescence(root={self.root}, nodes={len(self.parents) + 1})"


def _residual_copy(graph: NetworkGraph) -> Dict[Edge, int]:
    return {(tail, head): capacity for tail, head, capacity in graph.edges()}


def _graph_from_capacities(nodes: Sequence[NodeId], capacities: Dict[Edge, int]) -> NetworkGraph:
    graph = NetworkGraph()
    for node in nodes:
        graph.add_node(node)
    for (tail, head), capacity in capacities.items():
        if capacity > 0:
            graph.add_edge(tail, head, capacity)
    return graph


def _satisfies_mincut(
    nodes: Sequence[NodeId],
    capacities: Dict[Edge, int],
    root: NodeId,
    threshold: int,
) -> bool:
    """Whether ``MINCUT(root, w) >= threshold`` for every other vertex ``w``.

    Routed through the process-wide min-cut cache: peeling repeatedly probes
    the same residual capacity states (every rejected candidate edge is
    restored, and successive packings of one instance graph replay the same
    sequence), so structurally identical probes become dictionary lookups.
    """
    if threshold <= 0:
        return True
    graph = _graph_from_capacities(nodes, capacities)
    cuts = cached_all_target_mincuts(graph, root)
    return all(
        cuts[node] >= threshold
        for node in nodes
        if node != root
    )


def _peel_one_arborescence(
    nodes: Sequence[NodeId],
    capacities: Dict[Edge, int],
    root: NodeId,
    remaining_after: int,
) -> Arborescence:
    """Extract one spanning arborescence, preserving min-cut >= ``remaining_after``.

    Mutates ``capacities`` in place by decrementing each used edge by one unit.
    """
    spanned = {root}
    parents: Dict[NodeId, NodeId] = {}
    total_nodes = len(nodes)
    while len(spanned) < total_nodes:
        chosen: Edge | None = None
        for (tail, head), capacity in sorted(capacities.items()):
            if capacity <= 0 or tail not in spanned or head in spanned:
                continue
            capacities[(tail, head)] = capacity - 1
            if _satisfies_mincut(nodes, capacities, root, remaining_after):
                chosen = (tail, head)
                break
            capacities[(tail, head)] = capacity
        if chosen is None:
            raise InfeasibleError(
                "arborescence peeling got stuck; the min-cut precondition does not hold"
            )
        parents[chosen[1]] = chosen[0]
        spanned.add(chosen[1])
    return Arborescence(root, parents)


#: Process-wide memo of arborescence packings.  Values are tuples of
#: child -> parent maps (never handed out directly: every lookup constructs
#: fresh :class:`Arborescence` objects, which copy the maps, so cached
#: packings cannot be mutated through a returned tree).
_PACK_CACHE = MinCutCache(max_entries=256, name="arborescence_packs")


def pack_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of the packing cache (``MinCutCache.stats`` shape).

    The ``lifetime_*`` counters survive :func:`clear_pack_cache`, so a sweep
    that clears between topologies can still report whole-run efficacy.
    """
    return _PACK_CACHE.stats()


def clear_pack_cache() -> None:
    """Reset the process-wide arborescence-packing cache."""
    _PACK_CACHE.clear()


def pack_arborescences(
    graph: NetworkGraph, root: NodeId, count: int | None = None
) -> List[Arborescence]:
    """Pack ``count`` capacity-disjoint spanning arborescences rooted at ``root``.

    Args:
        graph: The directed capacitated network.
        root: The root (source) node.
        count: Number of arborescences to pack.  Defaults to the broadcast
            min-cut ``gamma = min_j MINCUT(graph, root, j)``, the maximum
            possible by Edmonds' theorem.

    Returns:
        A list of :class:`Arborescence` objects.  The combined per-edge usage
        (each arborescence uses one capacity unit of each of its edges) never
        exceeds the edge capacities.  Results are memoised on
        ``(graph_signature(graph), root, count)``; the peeling is deterministic,
        so a cached packing is identical to a freshly computed one.

    Raises:
        InfeasibleError: if ``count`` exceeds the broadcast min-cut.
        GraphError: if the root is not a node of the graph or the graph has a
            single node.
    """
    if not graph.has_node(root):
        raise GraphError(f"root {root} is not in the graph")
    if graph.node_count() < 2:
        raise GraphError("packing requires at least two nodes")
    gamma = broadcast_mincut(graph, root)
    if count is None:
        count = gamma
    if count < 1:
        raise InfeasibleError(f"cannot pack {count} arborescences")
    if count > gamma:
        raise InfeasibleError(
            f"requested {count} arborescences but the broadcast min-cut is only {gamma}"
        )
    key = ("pack", graph_signature(graph), root, count)
    cached = _PACK_CACHE.lookup(key)
    if cached is None:
        nodes = graph.nodes()
        capacities = _residual_copy(graph)
        parent_maps: List[Dict[NodeId, NodeId]] = []
        for index in range(count):
            remaining_after = count - index - 1
            parent_maps.append(
                _peel_one_arborescence(nodes, capacities, root, remaining_after).parents
            )
        cached = tuple(parent_maps)
        _PACK_CACHE.store(key, cached)
    return [Arborescence(root, parents) for parents in cached]


def packing_edge_usage(trees: Sequence[Arborescence]) -> Dict[Edge, int]:
    """Total number of arborescences using each directed edge."""
    usage: Dict[Edge, int] = {}
    for tree in trees:
        for edge in tree.edges():
            usage[edge] = usage.get(edge, 0) + 1
    return usage


def validate_packing(
    graph: NetworkGraph, root: NodeId, trees: Sequence[Arborescence]
) -> None:
    """Validate that ``trees`` is a capacity-respecting spanning arborescence packing.

    Raises:
        GraphError: if any tree is not a spanning arborescence of ``graph``
            rooted at ``root``, uses an edge absent from the graph, or the
            combined usage of some edge exceeds its capacity.
    """
    expected_nodes = set(graph.nodes())
    for tree in trees:
        if tree.root != root:
            raise GraphError(f"arborescence rooted at {tree.root}, expected {root}")
        if set(tree.nodes()) != expected_nodes:
            raise GraphError("arborescence does not span all graph nodes")
        for parent, child in tree.edges():
            if not graph.has_edge(parent, child):
                raise GraphError(f"arborescence uses edge ({parent}, {child}) not in the graph")
        # Reaching every node from the root also rules out cycles.
        for node in tree.nodes():
            tree.depth_of(node)
    for (tail, head), used in packing_edge_usage(trees).items():
        if used > graph.capacity(tail, head):
            raise GraphError(
                f"edge ({tail}, {head}) used {used} times but has capacity "
                f"{graph.capacity(tail, head)}"
            )
