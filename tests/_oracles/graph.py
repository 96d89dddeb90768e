"""The frozen graph oracles: exact references the graph layer is held to.

No registered run reaches these: sweeps, sessions and the search only ask
the capped threshold question (``has_vertex_connectivity_at_least``), take
global min-cuts from one contraction (``cached_global_mincut``), and trust
the packing they peel.  They are kept verbatim from ``repro.graph`` so the
fast paths have a fixed reference: the threshold check against the exact
all-pairs vertex connectivity (``tests/test_datacenter_topologies.py``), the
contraction and the cached cut tree against a fresh uncached Gusfield build
(``tests/test_gomory_hu.py``), and every packing against the validator
(``tests/test_graph_spanning_trees.py``).  Don't optimise them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graph.connectivity import _node_split_solver
from repro.graph.flow_cache import GraphSignature, graph_signature
from repro.graph.gomory_hu import GomoryHuTree, _gusfield, _unit_form, is_symmetric
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


class CutTree:
    """The queries of a cut tree (:class:`repro.graph.gomory_hu.GomoryHuTree`).

    ``tree.mincut(u, v)`` is the smallest weight on the ``u``-``v`` tree
    path, and ``tree.min_weight()`` the global undirected min-cut.
    """

    def __init__(self, tree: GomoryHuTree) -> None:
        self.signature = tree.signature
        self._nodes = tree.signature[0]
        self._parent = tree.parent
        self._weight = tree.weight
        self._side = tree.side

    def tree_edges(self) -> List[Tuple[NodeId, NodeId, int]]:
        """The ``n - 1`` tree edges as ``(child, parent, exact min-cut value)``."""
        return [
            (node, self._parent[node], self._weight[node])
            for node in self._nodes
            if node in self._parent
        ]

    def cut_side(self, node: NodeId) -> FrozenSet[NodeId]:
        """The ``node`` side of the stored minimum cut for edge ``(node, parent)``.

        Raises:
            GraphError: if ``node`` is the tree root (it has no parent edge).
        """
        if node not in self._side:
            raise GraphError(f"node {node} has no parent edge in the cut tree")
        return self._side[node]

    def min_weight(self) -> int:
        """The global undirected min-cut: the smallest tree edge weight.

        Raises:
            GraphError: if the tree has fewer than two nodes.
        """
        if len(self._nodes) < 2:
            raise GraphError("the cut tree has no edges")
        return min(self._weight[node] for node in self._nodes if node in self._parent)

    def mincut(self, u: NodeId, v: NodeId) -> int:
        """Pairwise min-cut: the minimum edge weight on the ``u``–``v`` tree path.

        Raises:
            GraphError: if either node is unknown or the nodes coincide.
        """
        if u == v:
            raise GraphError("pairwise min-cut requires two distinct nodes")
        root = self._nodes[0]
        if u not in self._weight and u != root:
            raise GraphError(f"node {u} is not in the cut tree")
        if v not in self._weight and v != root:
            raise GraphError(f"node {v} is not in the cut tree")
        ancestors: Dict[NodeId, int] = {}
        minimum = None
        node = u
        while node in self._parent:
            ancestors[node] = 0
            node = self._parent[node]
        ancestors[node] = 0
        node, running = v, None
        while node not in ancestors:
            running = self._weight[node] if running is None else min(running, self._weight[node])
            node = self._parent[node]
        meet = node
        node = u
        while node != meet:
            minimum = self._weight[node] if minimum is None else min(minimum, self._weight[node])
            node = self._parent[node]
        if running is not None:
            minimum = running if minimum is None else min(minimum, running)
        if minimum is None:  # pragma: no cover - u == v is rejected above
            raise GraphError("empty tree path")
        return minimum


def gomory_hu_tree(graph: NetworkGraph, signature: GraphSignature | None = None) -> CutTree:
    """Build the cut tree of an undirected-equivalent graph (Gusfield's method).

    Always a fresh build (``n - 1`` solves) that touches no cache; the solves
    run on the unit form and the weights are scaled back.

    Raises:
        GraphError: if the graph is not symmetric or has no nodes.
    """
    if signature is None:
        signature = graph_signature(graph)
    if not is_symmetric(graph.edges()):
        raise GraphError("Gomory-Hu trees require an undirected-equivalent graph")
    if not signature[0]:
        raise GraphError("cannot build a cut tree of an empty graph")
    unit, scale = _unit_form(signature)
    tree = _gusfield(unit)
    return CutTree(
        tree._replace(
            signature=signature,
            weight={node: value * scale for node, value in tree.weight.items()},
        )
    )


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
