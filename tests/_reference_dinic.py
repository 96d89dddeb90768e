"""The frozen reference Dinic solver: the oracle the flow kernel is tested against.

This is ``repro.graph.maxflow._DinicSolver`` exactly as it stood before the
flat-array kernel replaced its body in place (recursive DFS, dict-keyed
levels and iterators, full BFS).  It is kept verbatim and must never be
"optimised": ``tests/test_dinic_identity.py`` requires the solver in ``src/``
to leave the *same residual graph* behind, not just the same value, because
``vertex_disjoint_paths`` decomposes that residual into the relay routes
every persisted row depends on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set

from repro.exceptions import GraphError
from repro.types import NodeId


class _DinicSolver:
    """A single-use Dinic max-flow solver on an adjacency-list residual graph."""

    def __init__(self) -> None:
        self._adjacency: Dict[NodeId, List[int]] = {}
        # Edge arrays: to[i], capacity[i]; reverse edge of i is i ^ 1.
        self._to: List[NodeId] = []
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

    def add_node(self, node: NodeId) -> None:
        self._adjacency.setdefault(node, [])

    def add_edge(self, tail: NodeId, head: NodeId, capacity: int) -> None:
        self.add_node(tail)
        self.add_node(head)
        self._adjacency[tail].append(len(self._to))
        self._to.append(head)
        self._capacity.append(capacity)
        self._adjacency[head].append(len(self._to))
        self._to.append(tail)
        self._capacity.append(0)

    def _bfs_levels(self, source: NodeId, sink: NodeId) -> Dict[NodeId, int] | None:
        levels = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge_index in self._adjacency[node]:
                target = self._to[edge_index]
                if self._capacity[edge_index] > 0 and target not in levels:
                    levels[target] = levels[node] + 1
                    queue.append(target)
        return levels if sink in levels else None

    def _dfs_augment(
        self,
        node: NodeId,
        sink: NodeId,
        pushed: int,
        levels: Dict[NodeId, int],
        iterators: Dict[NodeId, int],
    ) -> int:
        if node == sink:
            return pushed
        adjacency = self._adjacency[node]
        while iterators[node] < len(adjacency):
            edge_index = adjacency[iterators[node]]
            target = self._to[edge_index]
            if self._capacity[edge_index] > 0 and levels.get(target, -1) == levels[node] + 1:
                flow = self._dfs_augment(
                    target, sink, min(pushed, self._capacity[edge_index]), levels, iterators
                )
                if flow > 0:
                    self._capacity[edge_index] -= flow
                    self._capacity[edge_index ^ 1] += flow
                    return flow
            iterators[node] += 1
        return 0

    def max_flow(self, source: NodeId, sink: NodeId, limit: int | None = None) -> int:
        """Maximum flow value, optionally stopping once ``limit`` is reached.

        With a ``limit``, augmentation stops as soon as the accumulated flow
        reaches it and ``limit`` is returned — the exact value is then only
        known to be ``>= limit``.  Threshold queries (is the connectivity at
        least ``k``?) use this to avoid saturating large cuts.
        """
        if source not in self._adjacency or sink not in self._adjacency:
            raise GraphError("source or sink not present in the flow network")
        if source == sink:
            raise GraphError("source and sink must differ")
        total = 0
        infinity = sum(self._capacity) + 1
        while True:
            levels = self._bfs_levels(source, sink)
            if levels is None:
                return total
            iterators = {node: 0 for node in self._adjacency}
            while True:
                if limit is not None and total >= limit:
                    return total
                pushed = self._dfs_augment(source, sink, infinity, levels, iterators)
                if pushed == 0:
                    break
                total += pushed

    def min_cut_reachable(self, source: NodeId) -> Set[NodeId]:
        """After running max_flow: the source side of a minimum cut."""
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for edge_index in self._adjacency[node]:
                target = self._to[edge_index]
                if self._capacity[edge_index] > 0 and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen
