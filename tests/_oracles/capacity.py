"""The frozen capacity oracles: Theorem 2's families built member by member.

``repro.capacity`` computes ``gamma*`` and ``U_k`` in closed form: every
member of ``Gamma`` and of ``Omega_k`` is some ``G - F``, read straight off
one signature (the lemma in ``repro/capacity/gamma_star.py``).  This module
keeps what that replaced, verbatim, so the closed form has a fixed
reference: Appendix E's ``Gamma`` family enumerated through explaining sets
(``construct_gamma_family``, O(n^{2f}) set checks, two graphs per member),
and ``U_k`` through the per-member chain of an induced subgraph, its
undirected view and the view's symmetric digraph.  Both answer with fresh,
uncached Dinic solves.  ``tests/test_capacity.py`` holds ``analyse_network``,
``gamma_star``, ``u1_value`` and ``compute_uk`` to them.  Don't optimise them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.exceptions import ProtocolError
from repro.graph.maxflow import max_flow_value
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView
from repro.types import Edge, NodeId


def _edges_incident_on(graph: NetworkGraph, nodes: FrozenSet[NodeId]) -> Set[Edge]:
    return {
        (tail, head)
        for tail, head, _capacity in graph.edges()
        if tail in nodes or head in nodes
    }


def _explaining_sets(
    graph: NetworkGraph, removed_edges: Set[Edge], max_faults: int
) -> List[FrozenSet[NodeId]]:
    """All node sets of size at most ``f`` such that every removed edge touches the set."""
    nodes = graph.nodes()
    explaining = []
    for size in range(0, max_faults + 1):
        for candidate in combinations(nodes, size):
            candidate_set = frozenset(candidate)
            if all(tail in candidate_set or head in candidate_set for tail, head in removed_edges):
                explaining.append(candidate_set)
    return explaining


def construct_gamma_family(
    graph: NetworkGraph, source: NodeId, max_faults: int
) -> Dict[FrozenSet[NodeId], NetworkGraph]:
    """The graphs ``Psi_W`` for the maximal explainable edge set of each candidate fault set.

    Returns:
        Mapping from candidate faulty set ``F`` to the corresponding
        ``Psi_{W_F}`` (only entries whose graph still contains the source).

    Raises:
        ProtocolError: if the source is not in the graph or ``max_faults`` is
            negative.
    """
    if not graph.has_node(source):
        raise ProtocolError(f"source {source} is not in the graph")
    if max_faults < 0:
        raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
    family: Dict[FrozenSet[NodeId], NetworkGraph] = {}
    candidates = [
        frozenset(candidate)
        for size in range(0, max_faults + 1)
        for candidate in combinations(graph.nodes(), size)
    ]
    full_copy: NetworkGraph | None = None
    for faulty_set in candidates:
        removed_edges = _edges_incident_on(graph, faulty_set)
        if not removed_edges:
            # Nothing removed: every candidate set explains the empty edge
            # set, so no node is certainly faulty and Psi_W is the full
            # graph itself.  One detached *frozen* copy (never the caller's
            # graph object, which may be mutated later) is shared by all
            # such candidates instead of rebuilding an identical graph per
            # set; freezing makes the sharing safe against caller mutation.
            if graph.node_count() >= 2:
                if full_copy is None:
                    full_copy = graph.copy().freeze()
                family[faulty_set] = full_copy
            continue
        explaining = _explaining_sets(graph, removed_edges, max_faults)
        if not explaining:
            continue
        certainly_faulty: Set[NodeId] = set(explaining[0])
        for other in explaining[1:]:
            certainly_faulty &= other
        if source in certainly_faulty:
            continue
        candidate_graph = graph.remove_edges(removed_edges).remove_nodes(certainly_faulty)
        if not candidate_graph.has_node(source) or candidate_graph.node_count() < 2:
            continue
        family[faulty_set] = candidate_graph
    return family




def gamma_star_by_family(graph: NetworkGraph, source: NodeId, max_faults: int) -> int:
    """``gamma*`` over the literal ``Gamma`` family, one Dinic solve per member and target."""
    family = construct_gamma_family(graph, source, max_faults)
    return min(
        max_flow_value(candidate, source, target)
        for candidate in family.values()
        for target in candidate.nodes()
        if target != source
    )


def as_symmetric_digraph(view: UndirectedView) -> NetworkGraph:
    """Represent the undirected view as a symmetric directed graph.

    Each undirected edge of capacity ``c`` becomes two anti-parallel
    directed edges of capacity ``c``.  Under this encoding a directed
    ``s``-``t`` max flow equals the undirected ``s``-``t`` min cut.
    """
    nodes, edges = view.signature
    digraph = NetworkGraph()
    for node in nodes:
        digraph.add_node(node)
    for low, high, capacity in edges:
        if low < high:
            digraph.add_edge(low, high, capacity)
            digraph.add_edge(high, low, capacity)
    return digraph


def uk_by_members(graph: NetworkGraph, subgraphs: Iterable[Sequence[NodeId]]) -> int:
    """``U_k`` through a graph per member: induced subgraph, view, symmetric digraph.

    A member's minimum over all node pairs is its minimum over the pairs
    holding its first node, since every cut separates that node from some
    other.
    """
    values: List[int] = []
    for nodes in subgraphs:
        digraph = as_symmetric_digraph(UndirectedView(graph.induced_subgraph(nodes)))
        first, *others = digraph.nodes()
        values.append(min(max_flow_value(digraph, first, other) for other in others))
    if not values:
        raise ProtocolError("Omega_k is empty; cannot compute U_k")
    return min(values)
