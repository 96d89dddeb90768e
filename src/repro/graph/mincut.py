"""The broadcast min-cut ``gamma_k``, the quantity Phase 1 runs at.

``MINCUT(G, i, j)`` — the directed ``i``-``j`` min-cut, equal to the ``i``-``j``
max-flow — enters the paper's analysis through its minimum over targets:
``gamma_k = min_j MINCUT(G_k, 1, j)``, the highest rate at which Phase 1 can
deliver the input to every node (:func:`broadcast_mincut`).  The per-target
values are :func:`repro.graph.flow_cache.cached_all_target_mincuts`, and on
a symmetric graph the minimum is one global min-cut
(:func:`repro.graph.gomory_hu.cached_global_mincut`).  The undirected
pairwise minimum inside ``U_k`` is
:meth:`repro.graph.undirected.UndirectedView.min_pairwise_mincut`.
"""

from __future__ import annotations

from repro.exceptions import GraphError
from repro.graph.flow_cache import cached_all_target_mincuts, graph_signature
from repro.graph.gomory_hu import cached_global_mincut, is_symmetric
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId


def broadcast_mincut(graph: NetworkGraph, source: NodeId) -> int:
    """``gamma = min_j MINCUT(G, source, j)`` — the broadcast (multicast) capacity.

    By Edmonds' theorem this is also the maximum number of capacity-disjoint
    spanning arborescences rooted at ``source``, i.e. the rate at which
    Phase 1 can broadcast unreliably.

    Raises:
        GraphError: if the source is missing or the graph has no other node.
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source} is not in the graph")
    if graph.node_count() < 2:
        raise GraphError("broadcast min-cut needs at least one node besides the source")
    # On an undirected-equivalent graph the broadcast min-cut equals the
    # *global* undirected min-cut for every source (min_j mincut(s, j) is at
    # least the global minimum, and every global cut separates the source
    # from someone), which one contraction answers for all sources at once.
    signature = graph_signature(graph)
    if is_symmetric(signature[1]):
        return cached_global_mincut(signature)
    cuts = cached_all_target_mincuts(graph, source, signature)
    return min(cuts.values())
