"""The ``2f + 1`` connectivity threshold and vertex-disjoint paths.

Two requirements of the paper are checked / exercised here:

* a correct BB algorithm exists only if ``n >= 3f + 1`` and the network
  connectivity is at least ``2f + 1`` (Fischer–Lynch–Merritt):
  :func:`resilience_violation`, its connectivity half a capped threshold
  check (:func:`has_vertex_connectivity_at_least`) memoised per graph;
* reliable end-to-end communication between fault-free nodes is emulated by
  sending the same data along ``2f + 1`` vertex-disjoint paths and taking a
  majority at the receiver (Appendix D); :func:`vertex_disjoint_paths`
  extracts those paths, and its ``InfeasibleError`` when fewer exist is the
  relay's one connectivity check.

Both run on the standard node-splitting reduction to max-flow: each vertex
``v`` becomes ``v_in -> v_out`` with unit capacity, so a max-flow between
``u_out`` and ``w_in`` counts internally-vertex-disjoint paths.  Paths are
recovered by decomposing the integral max-flow, which (unlike greedy
shortest-path peeling) always recovers the promised number of disjoint paths.
The exact all-pairs vertex connectivity the threshold check is tested against
is ``tests/_oracles/graph.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.exceptions import GraphError, InfeasibleError
from repro.graph.flow_cache import MinCutCache, graph_signature
from repro.graph.maxflow import _DinicSolver
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId

_SplitName = Tuple[str, NodeId]

#: ``meets_connectivity_requirement`` verdicts keyed ``(graph_signature, f)``.
_VERDICTS = MinCutCache(max_entries=256, name="connectivity_verdicts")


def _node_split_solver(
    graph: NetworkGraph,
) -> Tuple[_DinicSolver, Dict[NodeId, Tuple[_SplitName, _SplitName]]]:
    """Build the node-split flow network.

    Every node ``v`` is split into ``("in", v)`` and ``("out", v)`` joined by an
    edge of capacity 1; every directed edge ``(u, v)`` becomes
    ``("out", u) -> ("in", v)`` with capacity 1 (a simple graph has at most one
    such link, and a vertex-disjoint path uses it at most once).
    """
    solver = _DinicSolver()
    names: Dict[NodeId, Tuple[_SplitName, _SplitName]] = {}
    for node in graph.nodes():
        in_name: _SplitName = ("in", node)
        out_name: _SplitName = ("out", node)
        names[node] = (in_name, out_name)
        solver.add_edge(in_name, out_name, 1)
    for tail, head, _capacity in graph.edges():
        solver.add_edge(names[tail][1], names[head][0], 1)
    return solver, names


def _strongly_connected(graph: NetworkGraph) -> bool:
    """Whether every node reaches every other (two BFS passes, O(V + E))."""
    nodes = graph.nodes()
    if len(nodes) < 2:
        return True
    for neighbors in (graph.successors, graph.predecessors):
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            node = frontier.pop()
            for neighbor in neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) != len(nodes):
            return False
    return True


def has_vertex_connectivity_at_least(graph: NetworkGraph, k: int) -> bool:
    """Whether the directed vertex connectivity is at least ``k``.

    The exact connectivity solves all ``n (n - 1)`` ordered pairs —
    prohibitive on datacenter-scale fabrics, where feasibility filtering only
    ever asks the *threshold* question ``kappa >= 2 f + 1``.  This decides it
    with at most ``2 k n`` flows, each capped at ``k`` augmenting paths:

    * ``k <= 0`` is vacuous and ``k == 1`` is strong connectivity (two BFS);
    * any node of in- or out-degree below ``k`` bounds the connectivity below
      ``k`` (each disjoint path consumes a distinct incident edge);
    * otherwise fix the first ``k`` nodes as anchors and require local
      connectivity ``>= k`` between every anchor and every other node,
      in both directions.  Sound: local connectivity never undershoots
      ``kappa``.  Complete: a vertex cut of size ``< k`` misses at least one
      anchor ``a``; disconnection leaves some ``x, y`` with no ``x -> y``
      path, and paths ``x -> a`` and ``a -> y`` cannot both exist — so one
      checked direction has local connectivity ``< k``.

    The flows run on one shared node-split build with capacities reset
    between pairs, and each stops as soon as ``k`` paths are found.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        return len(nodes) >= k
    if k <= 0:
        return True
    for node in nodes:
        if len(graph.successors(node)) < k or len(graph.predecessors(node)) < k:
            return False
    if k == 1:
        return _strongly_connected(graph)
    solver, names = _node_split_solver(graph)
    solver.snapshot()
    anchors = nodes[:k]
    anchor_set = set(anchors)
    for anchor in anchors:
        for other in nodes:
            if other == anchor:
                continue
            if other in anchor_set and other < anchor:
                continue  # both directions already checked from the smaller anchor
            for source, target in ((anchor, other), (other, anchor)):
                solver.reset()
                flow = solver.max_flow(names[source][1], names[target][0], limit=k)
                if flow < k:
                    return False
    return True


def meets_connectivity_requirement(graph: NetworkGraph, max_faults: int) -> bool:
    """Whether the network connectivity is at least ``2 * max_faults + 1``.

    Decided with the capped threshold check
    (:func:`has_vertex_connectivity_at_least`) rather than the exact
    all-pairs connectivity — identical answers, but usable as a feasibility
    filter on 1000-node fabrics.  Memoised: spec expansion, warm graphs and
    NAB's constructor ask it of the same structures.
    """
    if max_faults < 0:
        raise GraphError(f"max_faults must be non-negative, got {max_faults}")
    key = (graph_signature(graph), max_faults)
    verdict = _VERDICTS.lookup(key)
    if verdict is None:
        verdict = has_vertex_connectivity_at_least(graph, 2 * max_faults + 1)
        _VERDICTS.store(key, verdict)
    return verdict


def resilience_violation(graph: NetworkGraph, max_faults: int) -> Optional[str]:
    """Which of ``n >= 3f + 1`` / connectivity ``>= 2f + 1`` fails, or ``None``."""
    node_count = graph.node_count()
    if node_count < 3 * max_faults + 1:
        return f"n={node_count} violates n >= 3f + 1 for f={max_faults}"
    if not meets_connectivity_requirement(graph, max_faults):
        return f"network connectivity is below 2f + 1 = {2 * max_faults + 1}"
    return None


def vertex_disjoint_paths(
    graph: NetworkGraph, source: NodeId, target: NodeId, count: int
) -> List[List[NodeId]]:
    """Extract ``count`` internally-vertex-disjoint directed paths from source to target.

    The direct edge (if any) is returned as the two-node path
    ``[source, target]``; the remaining paths are obtained by decomposing an
    integral max-flow in the node-split graph, so exactly the promised number
    of disjoint paths is always produced when it exists.

    Raises:
        GraphError: if ``count`` is below 1 or the endpoints are not two
            distinct nodes of the graph.
        InfeasibleError: if fewer than ``count`` disjoint paths exist.
    """
    if count < 1:
        raise GraphError(f"count must be >= 1, got {count}")
    if not graph.has_node(source) or not graph.has_node(target):
        raise GraphError("both endpoints must be nodes of the graph")
    if source == target:
        raise GraphError("paths require two distinct endpoints")
    paths: List[List[NodeId]] = []
    working = graph
    if graph.has_edge(source, target):
        paths.append([source, target])
        working = graph.remove_edges([(source, target)])
    needed_from_flow = count - len(paths)
    if needed_from_flow <= 0:
        return paths[:count]
    solver, names = _node_split_solver(working)
    flow_value = solver.max_flow(names[source][1], names[target][0])
    if flow_value + len(paths) < count:
        raise InfeasibleError(
            f"only {flow_value + len(paths)} vertex-disjoint paths exist from "
            f"{source} to {target}, need {count}"
        )
    flow_successors = _flow_adjacency(solver, names, working)
    for _ in range(needed_from_flow):
        paths.append(_extract_flow_path(flow_successors, source, target))
    return paths


def _flow_adjacency(
    solver: _DinicSolver,
    names: Dict[NodeId, Tuple[_SplitName, _SplitName]],
    graph: NetworkGraph,
) -> Dict[NodeId, List[NodeId]]:
    """Map each original node to the successors that carry one unit of flow out of it."""
    out_name_to_node = {names[node][1]: node for node in graph.nodes()}
    in_name_to_node = {names[node][0]: node for node in graph.nodes()}
    adjacency: Dict[NodeId, List[NodeId]] = {node: [] for node in graph.nodes()}
    # Only the link edges ("out", u) -> ("in", v) matter; the unit in -> out
    # edge inside each split node carries flow too but names no successor.
    for tail_name, head_name, flow_units in solver.edge_flows():
        if tail_name in out_name_to_node and head_name in in_name_to_node:
            tail = out_name_to_node[tail_name]
            head = in_name_to_node[head_name]
            adjacency[tail].extend([head] * flow_units)
    return adjacency


def _extract_flow_path(
    flow_successors: Dict[NodeId, List[NodeId]], source: NodeId, target: NodeId
) -> List[NodeId]:
    """Pop one source-to-target path out of the flow adjacency structure."""
    path = [source]
    current = source
    while current != target:
        candidates = flow_successors.get(current)
        if not candidates:
            raise GraphError("flow decomposition failed: dangling flow path")
        current = candidates.pop()
        path.append(current)
        if len(path) > 1 + len(flow_successors):
            raise GraphError("flow decomposition failed: cycle detected in flow")
    return path
