"""The frozen graph oracles: exact references the graph layer is held to.

No registered run reaches these: sweeps, sessions and the search only ask
the capped threshold question (``has_vertex_connectivity_at_least``), read
Gomory-Hu trees through the cache (``cached_gomory_hu``), and trust the
packing they peel.  They are kept verbatim from ``repro.graph`` so the fast
paths have a fixed reference: the threshold check against the exact
all-pairs vertex connectivity (``tests/test_datacenter_topologies.py``), the
cached and repaired cut trees against a fresh uncached Gusfield build
(``tests/test_gomory_hu.py``), and every packing against the validator
(``tests/test_graph_spanning_trees.py``).  Don't optimise them.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.exceptions import GraphError
from repro.graph.connectivity import _node_split_solver
from repro.graph.flow_cache import GraphSignature, graph_signature
from repro.graph.gomory_hu import GomoryHuTree, _gusfield, _rescaled, _unit_form, is_symmetric
from repro.graph.network_graph import NetworkGraph
from repro.graph.spanning_trees import Arborescence
from repro.types import Edge, NodeId


def local_connectivity(graph: NetworkGraph, source: NodeId, target: NodeId) -> int:
    """Maximum number of internally-vertex-disjoint directed paths from source to target.

    A direct edge ``source -> target`` contributes one path (it has no internal
    vertices, so removing other vertices can never block it); it is counted
    separately and excluded from the flow computation.
    """
    if not graph.has_node(source) or not graph.has_node(target):
        raise GraphError("both endpoints must be nodes of the graph")
    if source == target:
        raise GraphError("local connectivity requires two distinct nodes")
    direct = 1 if graph.has_edge(source, target) else 0
    working = graph.remove_edges([(source, target)]) if direct else graph
    solver, names = _node_split_solver(working)
    flow = solver.max_flow(names[source][1], names[target][0])
    return flow + direct


def vertex_connectivity(graph: NetworkGraph) -> int:
    """Directed vertex connectivity: ``min_{u != v} local_connectivity(u, v)``.

    For graphs with fewer than two nodes the connectivity is defined as the
    node count (0 or 1) for convenience.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        return len(nodes)
    return min(
        local_connectivity(graph, u, v)
        for u in nodes
        for v in nodes
        if u != v
    )


def gomory_hu_tree(
    graph: NetworkGraph, signature: GraphSignature | None = None
) -> GomoryHuTree:
    """Build the cut tree of an undirected-equivalent graph (Gusfield's method).

    Always a fresh build (``n - 1`` solves) that touches no cache; the solves
    run on the unit form and the weights are scaled back.

    Raises:
        GraphError: if the graph is not symmetric or has no nodes.
    """
    if signature is None:
        signature = graph_signature(graph)
    if not is_symmetric(graph):
        raise GraphError("Gomory-Hu trees require an undirected-equivalent graph")
    if not signature[0]:
        raise GraphError("cannot build a cut tree of an empty graph")
    unit, scale = _unit_form(signature)
    return _rescaled(_gusfield(unit), signature, multiply=scale)


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
        tree_nodes = set(tree.parents) | {tree.root}
        if tree.root != root:
            raise GraphError(f"arborescence rooted at {tree.root}, expected {root}")
        if tree_nodes != expected_nodes:
            raise GraphError("arborescence does not span all graph nodes")
        for parent, child in tree.edges():
            if not graph.has_edge(parent, child):
                raise GraphError(f"arborescence uses edge ({parent}, {child}) not in the graph")
        # Reaching every node from the root also rules out cycles.
        for node in tree_nodes:
            tree.depth_of(node)
    for (tail, head), used in packing_edge_usage(trees).items():
        if used > graph.capacity(tail, head):
            raise GraphError(
                f"edge ({tail}, {head}) used {used} times but has capacity "
                f"{graph.capacity(tail, head)}"
            )
