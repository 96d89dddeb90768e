"""The global undirected min-cut of a symmetric graph, and the cut tree.

On an *undirected-equivalent* graph — a directed graph in which every edge
``(u, v, c)`` is matched by its reverse ``(v, u, c)`` — the directed
``s``-``t`` max-flow equals the undirected ``s``-``t`` min-cut of the graph
whose link ``{u, v}`` weighs ``c``.  Two quantities of the paper are then one
*global* min-cut: ``broadcast_mincut`` (every source sees the same value) and
the inner minimum of ``U_k`` (the minimum over all pairs).  One kernel
answers it, :func:`_ma_global_mincut`: a Nagamochi-Ibaraki
maximum-adjacency contraction on an integer-indexed adjacency, run in
place, with no flow solve.  It has two entry points.
:func:`global_mincut_without` contracts a copy of :func:`adjacency_rows`
minus a node set; Theorem 2's one pass over the ``G - F``
(``repro.capacity.gamma_star.family_minima``) builds ``G``'s rows once and
asks it of every member, with no signature or cache key per member.
:func:`cached_global_mincut` serves the run-time callers
(``broadcast_mincut``, ``compute_uk`` per ``Omega_k`` member) from a
cache, building the rows from the signature on a miss.

**Unit-form cache key.**  Multiplying every capacity by ``g`` multiplies every
cut value by exactly ``g`` and changes nothing else, so
:func:`cached_global_mincut` caches values in a dedicated
:class:`~repro.graph.flow_cache.MinCutCache` under the *unit form* of
:func:`~repro.graph.flow_cache.graph_signature` — capacities divided by
their gcd — as ``("global-min", unit)``, and multiplies them back by ``g``
on the way out.  A symmetric ``H`` and its undirected view ``2 * H``
therefore share one entry.  The cache is registered by hand as
``gomory_hu`` (``all_cache_stats()["gomory_hu"]``);
:func:`clear_gomory_hu_cache` empties it.

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
from typing import Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

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


def adjacency_rows(signature: GraphSignature) -> Tuple[List[Dict[int, int]], int]:
    """``(rows, g)``: the graph as integer-indexed adjacency, capacities over their gcd.

    Node ``i`` is ``signature[0][i]``; row ``i`` maps ``j`` to the capacity of
    the edge ``(i, j)`` divided by ``g``, the gcd of all capacities (``g = 1``
    for a graph without edges).  Cut values of the graph are exactly ``g``
    times those of the rows, and a smaller ``best`` keeps the kernel's
    bucket queue short.
    """
    nodes, edges = signature
    scale = gcd(*[capacity for _tail, _head, capacity in edges]) or 1
    index = {node: position for position, node in enumerate(nodes)}
    rows: List[Dict[int, int]] = [{} for _ in nodes]
    for tail, head, capacity in edges:
        rows[index[tail]][index[head]] = capacity // scale
    return rows, scale


def _ma_global_mincut(adjacency: Dict[int, Dict[int, int]]) -> int:
    """The global min-cut of a symmetric graph, contracting ``adjacency`` in place.

    ``adjacency`` maps each node (an integer) to its row, ``{neighbour: link
    weight}``; rows are symmetric and the kernel consumes them.
    Nagamochi-Ibaraki contraction: ``best`` starts at the minimum weighted
    degree (a cut).  Each pass makes one maximum-adjacency ordering: the
    next node scanned is an unscanned one of largest ``reach`` (its link
    weight to the nodes already scanned, capped at ``best``), and scanning
    ``x`` adds ``w(x, y)`` to ``reach[y]`` of every unscanned neighbour.
    With ``q(x, y)`` that sum, the ordering guarantees ``mincut(x, y) >=
    min(q(x, y), best)`` (capping the keys is Nagamochi, Ono and Ibaraki's
    bounded variant; it makes the queue ``best + 1`` buckets).  So every
    link with ``q >= best`` joins two nodes no cut below ``best`` separates,
    and the pass contracts them all (union-find).  Only the groups that
    formed change: each group's rows merge into the row of its smallest
    member (parallel links summed, loops dropped), its other neighbours
    re-key their links to that node, and ``best`` is lowered to the
    smallest degree of a merged super-node (every other degree is
    unchanged).  The last link scanned into the last node has ``q`` = that
    node's degree ``>= best``, so every pass contracts something; the loop
    stops at one super-node or at ``best == 0``.
    """
    size = max(adjacency) + 1
    best = min(sum(row.values()) for row in adjacency.values())
    while best and len(adjacency) > 1:
        leader = list(range(size))

        def find(node: int) -> int:
            while leader[node] != node:
                leader[node] = leader[leader[node]]
                node = leader[node]
            return node

        reach = [0] * size
        scanned = [False] * size
        buckets: List[List[int]] = [list(adjacency)] + [[] for _ in range(best)]
        top = 0
        joined: List[int] = []
        for _ in range(len(adjacency)):
            while True:
                bucket = buckets[top]
                if not bucket:
                    top -= 1
                    continue
                node = bucket.pop()
                if reach[node] == top and not scanned[node]:
                    break
            scanned[node] = True
            mine = -1
            for other, weight in adjacency[node].items():
                if scanned[other]:
                    continue
                before = reach[other]
                after = before + weight
                if after >= best:
                    if mine < 0:
                        mine = find(node)
                    theirs = find(other)
                    if theirs != mine:
                        leader[theirs] = mine
                        joined.append(theirs)
                    if before == best:
                        continue
                    after = best
                reach[other] = after
                buckets[after].append(other)
                if after > top:
                    top = after
        # Every node but a group's root was re-pointed once, so ``joined``
        # lists each group's other members once.  A group is keyed on its
        # smallest member, and ``leader`` maps every member to that key.
        groups: Dict[int, List[int]] = {}
        for node in joined:
            root = find(node)
            groups.setdefault(root, [root]).append(node)
        merges = []
        for members in groups.values():
            members.sort()
            for member in members:
                leader[member] = members[0]
            merges.append(members)
        keys = {members[0] for members in merges}
        degrees = []
        for members in merges:
            key = members[0]
            merged: Dict[int, int] = {}
            for node in members:
                row = adjacency[key] if node == key else adjacency.pop(node)
                for other, weight in row.items():
                    target = leader[other]
                    if target == key:
                        continue
                    merged[target] = merged.get(target, 0) + weight
                    if node != key and target == other and other not in keys:
                        del adjacency[other][node]
            for other, weight in merged.items():
                if other not in keys:
                    adjacency[other][key] = weight
            adjacency[key] = merged
            degrees.append(sum(merged.values()))
        if len(adjacency) > 1:
            best = min(best, *degrees)
    return best


def global_mincut_without(rows: List[Dict[int, int]], removed: Collection[int]) -> int:
    """The global min-cut of the symmetric graph ``rows`` describe, minus ``removed``.

    ``rows`` are :func:`adjacency_rows` (left untouched); the member is a
    copy of every other row with the entries of ``removed`` taken out, and
    one in-place contraction answers it.  This is how the capacity layer
    reads each ``G - F``: ``G``'s rows are built once, and no signature,
    unit form or cache key is made per member.  A disconnected member reads
    0; it must keep at least two nodes.
    """
    adjacency = {node: row.copy() for node, row in enumerate(rows) if node not in removed}
    for node in removed:
        for other in rows[node]:
            if other in adjacency:
                del adjacency[other][node]
    return _ma_global_mincut(adjacency)


def cached_global_mincut(signature: GraphSignature) -> int:
    """The global undirected min-cut of the symmetric graph ``signature`` describes.

    A miss runs :func:`_ma_global_mincut` on the rows of the unit form.  The
    graph must be symmetric (:func:`is_symmetric`); callers check once,
    since every induced subgraph of a symmetric graph is symmetric, and
    solve an asymmetric graph per target instead.  It takes a signature,
    not a graph, so ``compute_uk`` asks it of every ``Omega_k`` member by
    filtering one signature's tuples.

    Raises:
        GraphError: if the graph has fewer than two nodes.
    """
    unit, scale = _unit_form(signature)
    value = _GH_CACHE.lookup(("global-min", unit))
    if value is None:
        if len(unit[0]) < 2:
            raise GraphError("global min-cut requires at least two nodes")
        rows, _scale = adjacency_rows(unit)
        value = _ma_global_mincut(dict(enumerate(rows)))
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
