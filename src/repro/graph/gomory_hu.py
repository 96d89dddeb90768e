"""The global undirected min-cut of a symmetric graph, and the cut tree.

On an *undirected-equivalent* graph — a directed graph in which every edge
``(u, v, c)`` is matched by its reverse ``(v, u, c)`` — the directed
``s``-``t`` max-flow equals the undirected ``s``-``t`` min-cut of the graph
whose link ``{u, v}`` weighs ``c``.  Two quantities of the paper are then one
*global* min-cut: ``broadcast_mincut`` (every source sees the same value) and
the inner minimum of ``U_k`` (the minimum over all pairs).
:func:`cached_global_mincut` answers it with one Nagamochi-Ibaraki
maximum-adjacency contraction (:func:`_ma_global_mincut`) and no flow solve.

**Unit-form cache key.**  Multiplying every capacity by ``g`` multiplies every
cut value by exactly ``g`` and changes nothing else, so values are cached in
a dedicated :class:`~repro.graph.flow_cache.MinCutCache` under the *unit
form* of :func:`~repro.graph.flow_cache.graph_signature` — capacities
divided by their gcd — as ``("global-min", unit)``, and multiplied back by
``g`` on the way out.  A symmetric ``H`` and its undirected view ``2 * H``
therefore share one value: ``gamma*`` computes it and ``rho*`` finds it.  The
cache is registered by hand as ``gomory_hu`` (``all_cache_stats()
["gomory_hu"]``); :func:`clear_gomory_hu_cache` empties it.

**The cut tree stays for the reference benchmark only.**  Gusfield's
Gomory-Hu construction (``n - 1`` Dinic solves, :func:`cached_gomory_hu`,
cached as ``("tree", unit)``) answers every pairwise min-cut, but no run
asks for more than the global minimum, so nothing in ``src/`` calls it.  It
stays because ``benchmarks/layers/`` resolves it as the ``graph.gomory_hu``
seam, and :func:`incremental_repair_stats` stays for that benchmark's
``graph.gomory_hu.repairs_per_op`` metric.  The frozen uncached build the
contraction is tested against is ``gomory_hu_tree`` of
``tests/_oracles/graph.py``.  Directed / asymmetric graphs take neither path
and are solved per target on :class:`repro.graph.maxflow._DinicSolver`.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from repro.exceptions import GraphError
from repro.graph.flow_cache import GraphSignature, MinCutCache, graph_signature, register_cache
from repro.graph.maxflow import _build_solver
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId

#: Process-wide cache keyed on unit-form signatures (see :func:`_unit_form`)
#: and holding unit-scale values: ``("global-min", unit)`` — the global
#: undirected min-cut; ``("tree", unit)`` — a Gusfield cut tree.
_GH_CACHE = MinCutCache(max_entries=2048)


def _unit_form(signature: GraphSignature) -> Tuple[GraphSignature, int]:
    """``(unit signature, g)``: capacities divided by their gcd ``g``.

    Cut values of the graph are exactly ``g`` times those of its unit form.
    A graph already in unit form (or without edges) is returned as is, with
    ``g = 1``.
    """
    nodes, edges = signature
    scale = gcd(*[capacity for _tail, _head, capacity in edges])
    if scale <= 1:
        return signature, 1
    return (nodes, tuple((tail, head, capacity // scale) for tail, head, capacity in edges)), scale


def clear_gomory_hu_cache() -> None:
    """Reset the global min-cut / cut-tree cache."""
    _GH_CACHE.clear()


register_cache("gomory_hu", "topology", clear_gomory_hu_cache, _GH_CACHE.stats)

_REPAIR_KEYS = ("pairs", "adjusted", "certified", "resolved")


def incremental_repair_stats() -> Dict[str, int]:
    """Cut-tree repair counters: every one reads 0.

    No run builds or repairs a cut tree any more (the global min-cut is a
    contraction), so there is nothing to count.  The function stays, with
    its key set (``pairs``, ``adjusted``, ``certified``, ``resolved`` and
    their ``lifetime_*`` twins), because the reference benchmark reads
    ``lifetime_pairs`` as ``graph.gomory_hu.repairs_per_op``.
    """
    return {key: 0 for base in _REPAIR_KEYS for key in (base, f"lifetime_{base}")}


def is_symmetric(edges: Iterable[Tuple[NodeId, NodeId, int]]) -> bool:
    """Whether every directed edge has a same-capacity reverse edge.

    ``edges`` are ``(tail, head, capacity)`` triples, a graph's ``edges()``
    or the edge tuple of its signature.  Exactly these graphs are
    *undirected-equivalent*: their directed ``s``-``t`` max-flow equals the
    undirected min-cut of the one-capacity-per-link view, which is what
    makes a global min-cut answer them.
    """
    capacities = {(tail, head): capacity for tail, head, capacity in edges}
    return all(
        capacities.get((head, tail)) == capacity
        for (tail, head), capacity in capacities.items()
    )


def _ma_global_mincut(signature: GraphSignature) -> int:
    """The global min-cut of the symmetric graph ``signature`` describes.

    Nagamochi-Ibaraki contraction: link ``{x, y}`` weighs the per-direction
    capacity, and ``best`` starts at the minimum weighted degree (a cut).
    Each pass makes one maximum-adjacency ordering: the next node scanned is
    an unscanned one of largest ``reach`` (its link weight to the nodes
    already scanned, capped at ``best``), and scanning ``x`` adds ``w(x,
    y)`` to ``reach[y]`` of every unscanned neighbour.  With ``q(x, y)`` that
    sum, the ordering guarantees ``mincut(x, y) >= min(q(x, y), best)``
    (capping the keys is Nagamochi, Ono and Ibaraki's bounded variant; it
    makes the queue ``best + 1`` buckets).  So every link with ``q >= best``
    joins two nodes no cut below ``best`` separates, and the pass contracts
    them all (union-find), merges parallel links, drops loops and lowers
    ``best`` to the smallest degree of the contracted graph.  The last link
    scanned into the last node has ``q`` = that node's degree ``>= best``,
    so every pass contracts something; the loop stops at one super-node or
    at ``best == 0``.
    """
    nodes, edges = signature
    index = {node: position for position, node in enumerate(nodes)}
    adjacency: List[Dict[int, int]] = [{} for _ in nodes]
    for tail, head, capacity in edges:
        adjacency[index[tail]][index[head]] = capacity
    best = min(sum(weights.values()) for weights in adjacency)
    while best and len(adjacency) > 1:
        count = len(adjacency)
        leader = list(range(count))

        def find(node: int) -> int:
            while leader[node] != node:
                leader[node] = leader[leader[node]]
                node = leader[node]
            return node

        reach = [0] * count
        scanned = [False] * count
        buckets: List[List[int]] = [list(range(count))] + [[] for _ in range(best)]
        top = 0
        for _ in range(count):
            while True:
                bucket = buckets[top]
                if not bucket:
                    top -= 1
                    continue
                node = bucket.pop()
                if not scanned[node] and min(reach[node], best) == top:
                    break
            scanned[node] = True
            for other, weight in adjacency[node].items():
                if scanned[other]:
                    continue
                before = reach[other]
                after = reach[other] = before + weight
                if after >= best:
                    leader[find(other)] = find(node)
                    if before >= best:
                        continue
                    after = best
                buckets[after].append(other)
                if after > top:
                    top = after
        label: Dict[int, int] = {}
        group = [label.setdefault(find(node), len(label)) for node in range(count)]
        contracted: List[Dict[int, int]] = [{} for _ in label]
        for node, weights in enumerate(adjacency):
            mine = group[node]
            merged = contracted[mine]
            for other, weight in weights.items():
                theirs = group[other]
                if theirs != mine:
                    merged[theirs] = merged.get(theirs, 0) + weight
        adjacency = contracted
        if len(adjacency) > 1:
            best = min(best, min(sum(weights.values()) for weights in adjacency))
    return best


def cached_global_mincut(signature: GraphSignature) -> int:
    """The global undirected min-cut of the symmetric graph ``signature`` describes.

    A miss runs :func:`_ma_global_mincut` on the unit form.  The graph must
    be symmetric (:func:`is_symmetric`); callers check once, since every
    induced subgraph of a symmetric graph is symmetric, and solve an
    asymmetric graph per target instead.  It takes a signature, not a graph,
    so the capacity layer asks it of every ``G - F`` by filtering one
    signature's tuples.

    Raises:
        GraphError: if the graph has fewer than two nodes.
    """
    unit, scale = _unit_form(signature)
    value = _GH_CACHE.lookup(("global-min", unit))
    if value is None:
        if len(unit[0]) < 2:
            raise GraphError("global min-cut requires at least two nodes")
        value = _ma_global_mincut(unit)
        _GH_CACHE.store(("global-min", unit), value)
    return value * scale


class GomoryHuTree(NamedTuple):
    """A Gusfield cut tree of the graph ``signature`` describes.

    Every node but the first has a tree edge ``(node, parent[node])`` whose
    ``weight[node]`` is the exact ``node``-``parent[node]`` min-cut, and
    ``side[node]`` is the ``node`` side of such a cut.  The min-cut of any
    node pair is the smallest weight on their tree path; the tests ask those
    queries through ``tests/_oracles/graph.py``.
    """

    signature: GraphSignature
    parent: Dict[NodeId, NodeId]
    weight: Dict[NodeId, int]
    side: Dict[NodeId, FrozenSet[NodeId]]


def _gusfield(signature: GraphSignature) -> GomoryHuTree:
    """Gusfield's construction on the symmetric graph a signature describes.

    ``n - 1`` max-flow solves share one residual-graph build (capacities are
    snapshot/reset between pairs).
    """
    nodes, edges = signature
    parent: Dict[NodeId, NodeId] = {node: nodes[0] for node in nodes[1:]}
    weight: Dict[NodeId, int] = {}
    side: Dict[NodeId, FrozenSet[NodeId]] = {}
    solver = _build_solver(nodes, edges)
    solver.snapshot()
    order = list(nodes[1:])
    for index, node in enumerate(order):
        target = parent[node]
        solver.reset()
        weight[node] = solver.max_flow(node, target)
        cut = side[node] = frozenset(solver.min_cut_reachable(node))
        for later in order[index + 1 :]:
            if later in cut and parent[later] == target:
                parent[later] = node
    return GomoryHuTree(signature, parent, weight, side)


def cached_gomory_hu(
    graph: NetworkGraph, signature: GraphSignature | None = None
) -> Optional[GomoryHuTree]:
    """The memoised cut tree of ``graph``, or ``None`` for an asymmetric graph.

    On a miss for a symmetric graph the tree is built (:func:`_gusfield`)
    and cached; any graph with the same unit form is then a hit.

    Raises:
        GraphError: if the graph has no nodes.
    """
    if signature is None:
        signature = graph_signature(graph)
    unit, scale = _unit_form(signature)
    tree = _GH_CACHE.lookup(("tree", unit))
    if tree is None:
        if not is_symmetric(unit[1]):
            return None
        if not unit[0]:
            raise GraphError("cannot build a cut tree of an empty graph")
        tree = _gusfield(unit)
        _GH_CACHE.store(("tree", unit), tree)
    if scale == 1:
        return tree
    return tree._replace(
        signature=signature, weight={node: value * scale for node, value in tree.weight.items()}
    )
