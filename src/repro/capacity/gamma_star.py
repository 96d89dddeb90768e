"""``gamma*``: the worst-case Phase 1 broadcast rate over all reachable instance graphs.

Appendix E constructs the family ``Gamma`` of graphs that some execution of
NAB could use as its instance graph ``G_k``: for every *explainable* edge set
``W`` (one that some candidate faulty set ``F`` of at most ``f`` nodes is
incident to), the graph ``Psi_W`` is obtained by removing ``W`` and the nodes
that every explanation of ``W`` contains; graphs that still contain the source
belong to ``Gamma``.  Then

    ``gamma* = min over Psi in Gamma of min_j MINCUT(Psi, 1, j)``.

Enumerating every explainable edge subset is exponential in the number of
edges, but the minimum is attained on *maximal* explainable sets: for a fixed
candidate faulty set ``F``, removing additional ``F``-incident edges only
lowers min-cuts (and can only grow the set of removed nodes, which are by
construction not min-cut targets the adversary can use to its advantage).
This module therefore iterates over candidate faulty sets ``F`` with
``|F| <= f`` and uses ``W_F`` = all edges incident on ``F``, which yields the
same minimum while keeping the computation polynomial for the network sizes
the simulator targets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.exceptions import ProtocolError
from repro.graph.flow_cache import graph_signature
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
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


def gamma_star(graph: NetworkGraph, source: NodeId, max_faults: int) -> int:
    """``gamma* = min over Gamma of min_j MINCUT(Psi, source, j)``.

    Raises:
        ProtocolError: if the family is empty (e.g. the graph is too small or
            too sparse to run NAB at all).
    """
    family = construct_gamma_family(graph, source, max_faults)
    if not family:
        raise ProtocolError("the Gamma family is empty; gamma* is undefined")
    # Distinct fault sets frequently produce structurally identical candidate
    # graphs; deduplicate on the canonical signature so each unique graph is
    # solved once (the min-cut cache then absorbs repeats across calls too).
    unique: Dict[tuple, NetworkGraph] = {}
    for candidate_graph in family.values():
        unique.setdefault(graph_signature(candidate_graph), candidate_graph)
    values: List[int] = [
        broadcast_mincut(candidate_graph, source) for candidate_graph in unique.values()
    ]
    return min(values)
