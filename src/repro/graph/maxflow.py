"""Maximum flow on capacitated directed graphs (Dinic's algorithm).

The paper's throughput analysis is built almost entirely on min-cut values:
``MINCUT(G_k, 1, j)`` bounds Phase 1, and the pairwise undirected min-cuts
``U_k`` bound Phase 2.  By the max-flow/min-cut theorem those quantities are
computed here as maximum flows.  Dinic's algorithm is exact for integer
capacities, and :class:`_DinicSolver` is the *only* flow kernel in ``src/``:
the directed min-cuts, the node-split threshold flows, relay routes
(one solve per ordered pair both decides that ``2f + 1`` paths exist and
yields them) and the two per-pair functions below all run on it.  One
residual build is reused across many queries (``snapshot`` / ``reset``), and
the kernel is sized for the datacenter fabrics of the graph layer — hundreds
of nodes, thousands of solves per analysis.

**Identical-residual contract.**  The kernel augments along exactly the paths
the frozen recursive reference (``tests/_reference_dinic.py``) would, in the
same order, so it leaves the same residual capacities behind — not merely
the same flow value.  That matters beyond values: ``vertex_disjoint_paths``
decomposes the residual into the relay routes that fix per-link bits in
every persisted row.  ``tests/test_dinic_identity.py`` holds both solvers to
equal value, equal residual array and equal ``min_cut_reachable``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.exceptions import GraphError
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId


class _DinicSolver:
    """A reusable Dinic max-flow solver on flat, int-indexed residual arrays.

    Nodes are interned to dense indices as they are added; edge ``i`` has
    head ``_head[i]`` and residual capacity ``_capacity[i]``, and its reverse
    edge is ``i ^ 1``.  Each node's adjacency list keeps edge-insertion
    order, which (with the first-fit edge scan) fixes the augmenting-path
    order the identical-residual contract relies on.
    """

    def __init__(self) -> None:
        self._index: Dict[NodeId, int] = {}
        self._names: List[NodeId] = []
        self._adjacency: List[List[int]] = []
        self._head: List[int] = []
        self._capacity: List[int] = []
        self._initial_capacity: List[int] | None = None

    def snapshot(self) -> None:
        """Record the current capacities so :meth:`reset` can restore them.

        Lets one residual-graph build (nodes, edge arrays, adjacency lists)
        be reused across several max-flow queries on the same graph.
        """
        self._initial_capacity = list(self._capacity)

    def reset(self) -> None:
        """Restore the capacities recorded by :meth:`snapshot`."""
        if self._initial_capacity is None:
            raise GraphError("snapshot() must be called before reset()")
        self._capacity = list(self._initial_capacity)

    def add_node(self, node: NodeId) -> int:
        index = self._index.get(node)
        if index is None:
            index = self._index[node] = len(self._names)
            self._names.append(node)
            self._adjacency.append([])
        return index

    def add_edge(self, tail: NodeId, head: NodeId, capacity: int) -> None:
        tail_index = self.add_node(tail)
        head_index = self.add_node(head)
        self._adjacency[tail_index].append(len(self._head))
        self._head.append(head_index)
        self._capacity.append(capacity)
        self._adjacency[head_index].append(len(self._head))
        self._head.append(tail_index)
        self._capacity.append(0)

    def max_flow(self, source: NodeId, sink: NodeId, limit: int | None = None) -> int:
        """Maximum flow value, optionally stopping once ``limit`` is reached.

        With a ``limit``, augmentation stops as soon as the accumulated flow
        reaches it and that flow is returned — the exact value is then only
        known to be ``>= limit``.  Threshold queries (is the connectivity at
        least ``k``?) use this to avoid saturating large cuts.
        """
        if source not in self._index or sink not in self._index:
            raise GraphError("source or sink not present in the flow network")
        if source == sink:
            raise GraphError("source and sink must differ")
        source_index = self._index[source]
        sink_index = self._index[sink]
        adjacency = self._adjacency
        head = self._head
        capacity = self._capacity
        node_count = len(adjacency)
        total = 0
        # Level-increasing paths never re-enter the source, so every
        # augmentation lowers its residual out-capacity by what it pushed:
        # at zero the sink is unreachable and the flow is maximum.
        source_room = sum(capacity[edge] for edge in adjacency[source_index])
        while source_room and (limit is None or total < limit):
            # Level graph by layered BFS, abandoned the moment the sink is
            # labelled: nodes at or beyond its level cannot lie on a
            # shortest augmenting path, so leaving them unlabelled only
            # skips dead ends.
            level = [-1] * node_count
            level[source_index] = 0
            frontier = [source_index]
            depth = 0
            while frontier and level[sink_index] < 0:
                depth += 1
                reached: List[int] = []
                for node in frontier:
                    for edge in adjacency[node]:
                        if capacity[edge] > 0:
                            target = head[edge]
                            if level[target] < 0:
                                level[target] = depth
                                reached.append(target)
                frontier = reached
            if level[sink_index] < 0:
                break
            # Blocking flow on an explicit edge stack.  Each node scans its
            # adjacency list first-fit from a cursor that only moves past an
            # edge once it is saturated, off-level or a dead end.
            cursor = [0] * node_count
            path: List[int] = []
            node = source_index
            while True:
                if node == sink_index:
                    pushed = min([capacity[edge] for edge in path])
                    for edge in path:
                        capacity[edge] -= pushed
                        capacity[edge ^ 1] += pushed
                    total += pushed
                    source_room -= pushed
                    if not source_room or (limit is not None and total >= limit):
                        return total
                    # Resume at the tail of the first saturated edge: the
                    # prefix before it is what a restart from the source
                    # would walk again.
                    for kept, edge in enumerate(path):
                        if capacity[edge] == 0:
                            break
                    del path[kept:]
                    node = head[edge ^ 1]
                    continue
                edges = adjacency[node]
                position = cursor[node]
                wanted = level[node] + 1
                edge_count = len(edges)
                while position < edge_count:
                    edge = edges[position]
                    if capacity[edge] > 0 and level[head[edge]] == wanted:
                        break
                    position += 1
                cursor[node] = position
                if position < edge_count:
                    path.append(edge)
                    node = head[edge]
                elif path:
                    # Dead end: step back and move the parent past this edge.
                    node = head[path.pop() ^ 1]
                    cursor[node] += 1
                else:
                    break
        return total

    def min_cut_reachable(self, source: NodeId) -> Set[NodeId]:
        """After running max_flow: the source side of a minimum cut."""
        adjacency = self._adjacency
        head = self._head
        capacity = self._capacity
        source_index = self._index[source]
        seen = [False] * len(adjacency)
        seen[source_index] = True
        frontier = [source_index]
        reached = [source_index]
        while frontier:
            node = frontier.pop()
            for edge in adjacency[node]:
                if capacity[edge] > 0:
                    target = head[edge]
                    if not seen[target]:
                        seen[target] = True
                        frontier.append(target)
                        reached.append(target)
        names = self._names
        return {names[index] for index in reached}

    def edge_flows(self) -> Iterator[Tuple[NodeId, NodeId, int]]:
        """``(tail, head, flow)`` of every added edge carrying flow, in insertion order.

        The flow on a forward edge is the residual capacity its reverse edge
        has gained (reverse edges start at 0).
        """
        names = self._names
        head = self._head
        capacity = self._capacity
        for edge in range(0, len(head), 2):
            if capacity[edge + 1] > 0:
                yield names[head[edge + 1]], names[head[edge]], capacity[edge + 1]


def _build_solver(
    nodes: Iterable[NodeId], edges: Iterable[Tuple[NodeId, NodeId, int]]
) -> _DinicSolver:
    """A solver over the given nodes and ``(tail, head, capacity)`` edges, in that order."""
    solver = _DinicSolver()
    for node in nodes:
        solver.add_node(node)
    for tail, head, capacity in edges:
        solver.add_edge(tail, head, capacity)
    return solver


def max_flow_value(graph: NetworkGraph, source: NodeId, sink: NodeId) -> int:
    """Maximum flow value from ``source`` to ``sink`` in the directed graph.

    Raises:
        GraphError: if either endpoint is missing or they coincide.
    """
    if not graph.has_node(source) or not graph.has_node(sink):
        raise GraphError("source or sink not present in the graph")
    return _build_solver(graph.nodes(), graph.edges()).max_flow(source, sink)


def all_max_flow_values(
    graph: NetworkGraph, source: NodeId, sinks: Iterable[NodeId]
) -> Dict[NodeId, int]:
    """Max-flow value from ``source`` to each sink, sharing one solver build.

    The residual graph (adjacency lists and edge arrays) is constructed once
    and only the capacity array is reset between queries, which is the bulk
    of per-query setup cost for the broadcast min-cut sweeps.

    Raises:
        GraphError: if the source or any sink is missing, or a sink equals
            the source.
    """
    if not graph.has_node(source):
        raise GraphError("source or sink not present in the graph")
    sink_list = list(sinks)
    for sink in sink_list:
        if not graph.has_node(sink):
            raise GraphError("source or sink not present in the graph")
    values: Dict[NodeId, int] = {}
    if not sink_list:
        return values
    solver = _build_solver(graph.nodes(), graph.edges())
    solver.snapshot()
    for sink in sink_list:
        solver.reset()
        values[sink] = solver.max_flow(source, sink)
    return values
