"""Undirected view of a directed capacitated graph.

Section 3 of the paper associates with every directed graph ``H(V, E)`` an
undirected graph ``\\bar H(V, \\bar E)`` in which the undirected edge
``{i, j}`` exists whenever either directed edge exists, and its capacity is
the *sum* of the capacities of ``(i, j)`` and ``(j, i)`` (a missing directed
edge counts as capacity 0).  The quantity ``U_k`` — which controls the
equality-check parameter ``rho_k`` — is defined via pairwise min-cuts in these
undirected views.
"""

from __future__ import annotations

from typing import Collection, Dict, Tuple

from repro.exceptions import GraphError
from repro.graph.flow_cache import GraphSignature, induced_signature
from repro.graph.gomory_hu import cached_global_mincut
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId


class UndirectedView:
    """The undirected, capacity-summed view ``\\bar H`` of a directed graph ``H``.

    It is held as the signature of its symmetric digraph (:attr:`signature`):
    the link ``{i, j}`` of capacity ``c`` is the two directed edges ``(i, j,
    c)`` and ``(j, i, c)``.  Under this encoding a directed ``s``-``t``
    max-flow equals the undirected ``s``-``t`` min-cut, and a view of a
    symmetric ``H`` is ``2 H``, whose global min-cut is cached under ``H``'s
    unit form.  The view of an induced subgraph is :meth:`induced`, a filter
    of this one's tuples: ``U_k`` reads every ``Omega_k`` member through it
    without building a graph.
    """

    def __init__(self, directed: NetworkGraph) -> None:
        capacities: Dict[Tuple[NodeId, NodeId], int] = {}
        for tail, head, capacity in directed.edges():
            pair = (tail, head) if tail < head else (head, tail)
            capacities[pair] = capacities.get(pair, 0) + capacity
        links = [(low, high, capacity) for (low, high), capacity in capacities.items()]
        links += [(high, low, capacity) for low, high, capacity in links]
        links.sort()
        self.signature: GraphSignature = (tuple(directed.nodes()), tuple(links))

    def induced(self, nodes: Collection[NodeId]) -> "UndirectedView":
        """The view of the subgraph induced by ``nodes``: ``\\bar H[S]`` is ``\\bar{H[S]}``."""
        view = object.__new__(UndirectedView)
        view.signature = induced_signature(self.signature, set(nodes))
        return view

    def min_pairwise_mincut(self) -> int:
        """``min_{i, j} MINCUT(\\bar H, i, j)`` over all node pairs.

        This is the inner minimum in the definition of ``U_k``.  The minimum
        over *all* pairs is the undirected global min-cut (every cut
        separates some pair, and every pair cut is a cut), so one cached
        contraction answers it; a disconnected view reads 0.

        Raises:
            GraphError: if the graph has fewer than two nodes.
        """
        if len(self.signature[0]) < 2:
            raise GraphError("pairwise min-cut requires at least two nodes")
        return cached_global_mincut(self.signature)
