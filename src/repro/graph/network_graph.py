"""The directed, capacitated, simple network graph ``G(V, E)``.

This is the central data structure of the library: the point-to-point network
on which NAB runs.  It matches the paper's network model exactly:

* vertices are node identifiers (integers);
* edges are *directed* and simple (at most one edge per ordered pair, no
  self-loops);
* each edge ``e`` carries a positive integer capacity ``z_e`` expressed in
  bits per time unit.

The class also provides the graph-surgery operations that NAB's graph
evolution needs (removing nodes found faulty, removing links between disputed
node pairs, taking induced subgraphs), all of which return new graphs and
never mutate the original once it has been frozen via
:meth:`NetworkGraph.freeze`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.exceptions import GraphError
from repro.types import Edge, NodeId, NodePair, node_pair


class NetworkGraph:
    """A directed simple graph with positive integer edge capacities."""

    def __init__(self) -> None:
        self._successors: Dict[NodeId, Dict[NodeId, int]] = {}
        self._predecessors: Dict[NodeId, Dict[NodeId, int]] = {}
        self._frozen = False

    # ----------------------------------------------------------- construction

    @classmethod
    def from_edges(
        cls, edges: Mapping[Edge, int] | Iterable[Tuple[NodeId, NodeId, int]]
    ) -> "NetworkGraph":
        """Build a graph from ``{(tail, head): capacity}`` or ``(tail, head, capacity)`` triples."""
        graph = cls()
        if isinstance(edges, Mapping):
            items: Iterable[Tuple[NodeId, NodeId, int]] = (
                (tail, head, capacity) for (tail, head), capacity in edges.items()
            )
        else:
            items = edges
        for tail, head, capacity in items:
            graph.add_edge(tail, head, capacity)
        return graph

    def _require_mutable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen; derive a copy before mutating")

    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (no-op if it already exists)."""
        self._require_mutable()
        self._successors.setdefault(node, {})
        self._predecessors.setdefault(node, {})

    def add_edge(self, tail: NodeId, head: NodeId, capacity: int) -> None:
        """Add a directed edge with the given positive integer capacity.

        Raises:
            GraphError: on self loops, non-positive or non-integer capacities,
                or duplicate edges (the graph is simple).
        """
        self._require_mutable()
        if tail == head:
            raise GraphError(f"self loops are not allowed (node {tail})")
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity <= 0:
            raise GraphError(f"capacity must be a positive integer, got {capacity!r}")
        self.add_node(tail)
        self.add_node(head)
        if head in self._successors[tail]:
            raise GraphError(f"duplicate edge ({tail}, {head}); the graph is simple")
        self._successors[tail][head] = capacity
        self._predecessors[head][tail] = capacity

    def freeze(self) -> "NetworkGraph":
        """Mark the graph immutable and return it (for fluent use)."""
        self._frozen = True
        return self

    @property
    def is_frozen(self) -> bool:
        """Whether the graph has been frozen against further mutation."""
        return self._frozen

    def copy(self) -> "NetworkGraph":
        """Return a mutable deep copy of this graph."""
        clone = NetworkGraph()
        for node in self._successors:
            clone.add_node(node)
        for tail, head, capacity in self.edges():
            clone.add_edge(tail, head, capacity)
        return clone

    # -------------------------------------------------------------- accessors

    def nodes(self) -> List[NodeId]:
        """All node identifiers, in sorted order."""
        return sorted(self._successors)

    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._successors)

    def has_node(self, node: NodeId) -> bool:
        """Whether the node exists in the graph."""
        return node in self._successors

    def has_edge(self, tail: NodeId, head: NodeId) -> bool:
        """Whether the directed edge ``(tail, head)`` exists."""
        return tail in self._successors and head in self._successors[tail]

    def capacity(self, tail: NodeId, head: NodeId) -> int:
        """Capacity of the directed edge ``(tail, head)``.

        Raises:
            GraphError: if the edge does not exist.
        """
        try:
            return self._successors[tail][head]
        except KeyError:
            raise GraphError(f"edge ({tail}, {head}) is not in the graph") from None

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, int]]:
        """Iterate over ``(tail, head, capacity)`` triples in sorted order."""
        for tail in sorted(self._successors):
            for head in sorted(self._successors[tail]):
                yield tail, head, self._successors[tail][head]

    def successors(self, node: NodeId) -> List[NodeId]:
        """Heads of edges leaving ``node`` in sorted order."""
        self._require_node(node)
        return sorted(self._successors[node])

    def predecessors(self, node: NodeId) -> List[NodeId]:
        """Tails of edges entering ``node`` in sorted order."""
        self._require_node(node)
        return sorted(self._predecessors[node])

    def out_edges(self, node: NodeId) -> List[Tuple[NodeId, NodeId, int]]:
        """Outgoing ``(tail, head, capacity)`` triples of ``node`` in sorted order."""
        self._require_node(node)
        return [(node, head, cap) for head, cap in sorted(self._successors[node].items())]

    def in_edges(self, node: NodeId) -> List[Tuple[NodeId, NodeId, int]]:
        """Incoming ``(tail, head, capacity)`` triples of ``node`` in sorted order."""
        self._require_node(node)
        return [(tail, node, cap) for tail, cap in sorted(self._predecessors[node].items())]

    def _require_node(self, node: NodeId) -> None:
        if node not in self._successors:
            raise GraphError(f"node {node} is not in the graph")

    # ----------------------------------------------------------- graph surgery

    def induced_subgraph(self, nodes: Iterable[NodeId]) -> "NetworkGraph":
        """The subgraph induced by ``nodes`` (edges with both endpoints kept).

        Raises:
            GraphError: if any requested node is absent from the graph.
        """
        keep = set(nodes)
        for node in keep:
            self._require_node(node)
        subgraph = NetworkGraph()
        for node in keep:
            subgraph.add_node(node)
        for tail, head, capacity in self.edges():
            if tail in keep and head in keep:
                subgraph.add_edge(tail, head, capacity)
        return subgraph

    def remove_nodes(self, nodes: Iterable[NodeId]) -> "NetworkGraph":
        """A new graph without the given nodes (and their incident edges).

        Nodes not present are ignored, which is convenient when applying a set
        of identified-faulty nodes to successive instance graphs.
        """
        drop = set(nodes)
        keep = [node for node in self.nodes() if node not in drop]
        return self.induced_subgraph(keep)

    def remove_edges(self, edges: Iterable[Edge]) -> "NetworkGraph":
        """A new graph without the given directed edges (missing edges ignored)."""
        drop = set(edges)
        result = NetworkGraph()
        for node in self.nodes():
            result.add_node(node)
        for tail, head, capacity in self.edges():
            if (tail, head) not in drop:
                result.add_edge(tail, head, capacity)
        return result

    def remove_links_between(self, pairs: Iterable[NodePair]) -> "NetworkGraph":
        """A new graph with both directions removed for each unordered node pair.

        This is the operation dispute control applies: for a node pair found
        in dispute, the links between them (in both directions) are excluded
        from the next instance graph.
        """
        pair_set = {frozenset(pair) for pair in pairs}
        drop: Set[Edge] = set()
        for tail, head, _ in self.edges():
            if node_pair(tail, head) in pair_set:
                drop.add((tail, head))
        return self.remove_edges(drop)
