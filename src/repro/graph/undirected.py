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

from typing import Dict, Iterator, List, Tuple

from repro.exceptions import GraphError
from repro.graph.flow_cache import graph_signature
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId, NodePair, node_pair


class UndirectedView:
    """The undirected, capacity-summed view ``\\bar H`` of a directed graph ``H``."""

    def __init__(self, directed: NetworkGraph) -> None:
        self._nodes = directed.nodes()
        capacities: Dict[NodePair, int] = {}
        for tail, head, capacity in directed.edges():
            pair = node_pair(tail, head)
            capacities[pair] = capacities.get(pair, 0) + capacity
        self._capacities = capacities
        # Built once: is_connected() asks for the neighbours of every node.
        neighbors: Dict[NodeId, List[NodeId]] = {node: [] for node in self._nodes}
        for a, b in capacities:
            neighbors[a].append(b)
            neighbors[b].append(a)
        for adjacent in neighbors.values():
            adjacent.sort()
        self._neighbors = neighbors
        # Lazily built symmetric digraph (and its cache signature) shared by
        # all min-cut queries on this view (the view itself is immutable
        # once constructed).
        self._digraph: NetworkGraph | None = None
        self._signature = None

    def _symmetric_digraph(self) -> NetworkGraph:
        if self._digraph is None:
            self._digraph = self.as_symmetric_digraph()
            self._signature = graph_signature(self._digraph)
        return self._digraph

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, int]]:
        """Iterate over undirected edges as ``(min_node, max_node, capacity)``."""
        for pair in sorted(self._capacities, key=lambda p: tuple(sorted(p))):
            low, high = sorted(pair)
            yield low, high, self._capacities[pair]

    def is_connected(self) -> bool:
        """Whether the undirected view is connected (vacuously true when empty)."""
        if not self._nodes:
            return True
        seen = {self._nodes[0]}
        frontier = [self._nodes[0]]
        while frontier:
            node = frontier.pop()
            for neighbor in self._neighbors[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    # ---------------------------------------------------------------- min-cuts

    def as_symmetric_digraph(self) -> NetworkGraph:
        """Represent the undirected view as a symmetric directed graph.

        Each undirected edge of capacity ``c`` becomes two anti-parallel
        directed edges of capacity ``c``.  Under this encoding a directed
        ``s``-``t`` max flow equals the undirected ``s``-``t`` min cut, which
        is how :meth:`min_pairwise_mincut` is computed.
        """
        digraph = NetworkGraph()
        for node in self._nodes:
            digraph.add_node(node)
        for low, high, capacity in self.edges():
            digraph.add_edge(low, high, capacity)
            digraph.add_edge(high, low, capacity)
        return digraph

    def min_pairwise_mincut(self) -> int:
        """``min_{i, j} MINCUT(\\bar H, i, j)`` over all node pairs.

        This is the inner minimum in the definition of ``U_k``.  For a graph
        with fewer than two nodes the quantity is undefined.

        Raises:
            GraphError: if the graph has fewer than two nodes.
        """
        if len(self._nodes) < 2:
            raise GraphError("pairwise min-cut requires at least two nodes")
        if not self.is_connected():
            return 0
        digraph = self._symmetric_digraph()
        # The minimum over *all* pairs equals the undirected global min-cut
        # (every cut separates some pair, and every pair cut is a cut), which
        # the Gomory-Hu layer serves as the smallest tree edge — memoised per
        # signature, and exact even on decrementally repaired trees.  The
        # symmetric digraph is undirected-equivalent by construction, so the
        # layer always answers.
        from repro.graph.gomory_hu import cached_global_mincut

        return cached_global_mincut(digraph, signature=self._signature)
