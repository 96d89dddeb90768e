"""Gomory–Hu trees: all-pairs min-cuts from ``n - 1`` max-flow solves.

On an *undirected-equivalent* graph — a directed graph in which every edge
``(u, v, c)`` is matched by its reverse ``(v, u, c)`` — the directed
``s``-``t`` max-flow equals the undirected ``s``-``t`` min-cut, and the full
``n(n-1)/2`` matrix of pairwise min-cuts is captured by a single weighted
spanning tree (Gomory & Hu 1961): the min-cut between any two nodes is the
minimum edge weight on the tree path between them.  This module builds that
tree with Gusfield's simplification (no node contraction; ``n - 1`` Dinic
solves sharing one residual-graph build) and serves two quantities that
previously cost ``O(n)`` to ``O(n^2)`` independent solves each:

* the *global* undirected min-cut (= ``broadcast_mincut`` on symmetric
  graphs, and the inner minimum of ``U_k``) — the smallest tree edge;
* ``st`` queries on a graph whose tree is already cached — a tree path
  minimum (:func:`repro.graph.flow_cache.cached_st_mincut`).

Trees are memoised process-wide in a dedicated
:class:`~repro.graph.flow_cache.MinCutCache`, registered by hand as
``gomory_hu`` (:func:`clear_gomory_hu_cache` also resets the epoch repair
counters; ``all_cache_stats()["gomory_hu"]`` reports it).  The uncached
Gusfield build the cached and repaired trees are tested against is the
frozen ``gomory_hu_tree`` of ``tests/_oracles/graph.py``.

**Unit-form cache key.**  Multiplying every capacity by ``g`` multiplies every
cut value by exactly ``g`` and changes nothing else, so the cache is keyed on
the *unit form* of :func:`~repro.graph.flow_cache.graph_signature` —
capacities divided by their gcd — and holds unit-scale trees and values;
every entry point (:func:`cached_gomory_hu`, :func:`cached_global_mincut`,
:func:`tree_if_cached`, :func:`derive_trees_after_pair_removals`) normalises
on the way in and multiplies back by ``g`` on the way out.  A symmetric ``H``
and its undirected view ``2 * H`` therefore share one tree: ``gamma*`` builds
it and ``rho*`` finds it.

A build stores nothing in the main flow cache: ``cached_st_mincut`` asks
:func:`tree_if_cached` on a miss, so an existing tree answers it on demand.

**Oracle freeze.**  ``src/`` has one flow solver,
:class:`repro.graph.maxflow._DinicSolver`; directed / asymmetric graphs never
take the tree paths and are solved per pair on it.  The correctness oracle is
the frozen recursive solver in ``tests/_reference_dinic.py``: the kernel must
match its value *and residual* solve for solve, and the property tests here
assert tree values equal per-pair values on randomized symmetric graphs.

Incremental (decremental) maintenance
-------------------------------------

Dispute control removes the links of one node pair at a time.  Given the
tree of the old graph, :func:`repair_tree_after_pair_removal` recertifies or
locally repairs each tree edge *exactly* instead of re-solving all ``n - 1``
flows.  For a removed pair ``{a, b}`` of per-direction capacity ``c`` and a
tree edge ``(v, p)`` with exact old value ``w`` and stored min-cut side ``S``
(the ``v`` side):

1. if ``S`` separates ``a`` and ``b``, the new value is exactly ``w - c``
   and ``S`` is still a minimum cut (*adjusted*);
2. else if ``mincut(a, b) >= w + c`` in the old graph, the value and cut are
   unchanged (*certified*) — every cut that the removal touches was at least
   ``c`` above ``w``;
3. otherwise that single pair is re-solved on the new graph (*resolved*).

The repaired tree has exact per-edge values, so the *global* min-cut of the
new graph is exact (any spanning tree with exact adjacent-pair values has the
global min-cut as its smallest edge: every cut separates some tree-adjacent
pair).  Arbitrary path-min queries are **not** guaranteed on repaired trees —
they are flagged ``flow_equivalent=False`` and only serve global-min /
tree-edge queries; ``st`` queries on such graphs fall back to per-pair
solves.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.exceptions import GraphError
from repro.graph.flow_cache import GraphSignature, MinCutCache, graph_signature, register_cache
from repro.graph.maxflow import _DinicSolver, _build_solver
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId

#: Dedicated process-wide cache for Gomory–Hu structures, keyed on unit-form
#: signatures (see :func:`_unit_form`) and holding unit-scale values.  Keys:
#: ``("tree", unit)`` — flow-equivalent trees (full Gusfield builds),
#: ``("tree-partial", unit)`` — repaired trees (exact tree-edge values
#: only), ``("global-min", unit)`` — the global undirected min-cut value.
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


#: Decremental-repair outcome counters (see module docstring).  The epoch
#: counters reset with :func:`clear_gomory_hu_cache`; the ``lifetime_*``
#: counters survive clears, mirroring the ``MinCutCache`` convention.
_REPAIR_KEYS = ("pairs", "adjusted", "certified", "resolved")
_repair_epoch: Dict[str, int] = {key: 0 for key in _REPAIR_KEYS}
_repair_lifetime: Dict[str, int] = {key: 0 for key in _REPAIR_KEYS}


def _count_repair(key: str, amount: int = 1) -> None:
    _repair_epoch[key] += amount
    _repair_lifetime[key] += amount


def clear_gomory_hu_cache() -> None:
    """Reset the Gomory–Hu cache and the epoch repair counters."""
    _GH_CACHE.clear()
    for key in _REPAIR_KEYS:
        _repair_epoch[key] = 0


# Registered by hand: clearing must also reset the epoch repair counters.
register_cache("gomory_hu", "topology", clear_gomory_hu_cache, _GH_CACHE.stats)


def incremental_repair_stats() -> Dict[str, int]:
    """Decremental-repair outcome counters.

    ``pairs`` counts removed node pairs processed; each tree edge examined
    lands in exactly one of ``adjusted`` (exact ``w - c`` update),
    ``certified`` (proven unchanged) or ``resolved`` (one fresh Dinic solve).
    Epoch counters reset with :func:`clear_gomory_hu_cache`; ``lifetime_*``
    counters survive clears.
    """
    stats = dict(_repair_epoch)
    for key in _REPAIR_KEYS:
        stats[f"lifetime_{key}"] = _repair_lifetime[key]
    return stats


def is_symmetric(graph: NetworkGraph) -> bool:
    """Whether every directed edge has a same-capacity reverse edge.

    Exactly these graphs are *undirected-equivalent*: their directed
    ``s``-``t`` max-flow equals the undirected min-cut of the one-capacity-
    per-link view, which is what makes the Gomory–Hu representation sound.
    """
    capacities = {(tail, head): capacity for tail, head, capacity in graph.edges()}
    return all(
        capacities.get((head, tail)) == capacity
        for (tail, head), capacity in capacities.items()
    )


class GomoryHuTree:
    """A cut tree: ``n - 1`` weighted parent edges capturing pairwise min-cuts.

    Attributes:
        signature: Canonical signature of the graph the values are exact for.
        flow_equivalent: ``True`` for full Gusfield builds — the min-cut of
            *any* node pair equals the minimum edge weight on their tree
            path.  ``False`` for decrementally repaired trees: only the
            per-tree-edge values (and hence :meth:`min_weight`, the global
            undirected min-cut) are guaranteed exact.
    """

    __slots__ = ("signature", "flow_equivalent", "_nodes", "_parent", "_weight", "_side")

    def __init__(
        self,
        signature: GraphSignature,
        nodes: Tuple[NodeId, ...],
        parent: Dict[NodeId, NodeId],
        weight: Dict[NodeId, int],
        side: Dict[NodeId, FrozenSet[NodeId]],
        flow_equivalent: bool,
    ) -> None:
        self.signature = signature
        self.flow_equivalent = flow_equivalent
        self._nodes = nodes
        self._parent = parent
        self._weight = weight
        self._side = side

    # -------------------------------------------------------------- accessors

    def nodes(self) -> Tuple[NodeId, ...]:
        """All nodes, sorted (the graph's node order)."""
        return self._nodes

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

        Exact on repaired trees too — every cut of the graph separates some
        tree-adjacent pair, so the minimum over exact adjacent-pair values is
        the global minimum regardless of tree shape.

        Raises:
            GraphError: if the tree has fewer than two nodes.
        """
        if len(self._nodes) < 2:
            raise GraphError("the cut tree has no edges")
        return min(self._weight[node] for node in self._nodes if node in self._parent)

    # ---------------------------------------------------------------- queries

    def mincut(self, u: NodeId, v: NodeId) -> int:
        """Pairwise min-cut: the minimum edge weight on the ``u``–``v`` tree path.

        Raises:
            GraphError: if either node is unknown, the nodes coincide, or the
                tree is a repaired (non-flow-equivalent) structure, on which
                arbitrary path minima are not guaranteed exact.
        """
        if not self.flow_equivalent:
            raise GraphError(
                "repaired cut trees only answer global-min / tree-edge queries"
            )
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


def _rescaled(
    tree: GomoryHuTree, signature: GraphSignature, multiply: int = 1, divide: int = 1
) -> GomoryHuTree:
    """``tree`` re-weighted for the graph ``signature`` describes.

    That graph's capacities are ``multiply / divide`` times those of
    ``tree``'s own graph: shape and cut sides carry over and only the weights
    change (exactly: every weight is a multiple of ``divide`` whenever every
    capacity is).
    """
    if multiply == divide:
        return tree
    return GomoryHuTree(
        signature=signature,
        nodes=tree._nodes,
        parent=tree._parent,
        weight={node: value * multiply // divide for node, value in tree._weight.items()},
        side=tree._side,
        flow_equivalent=tree.flow_equivalent,
    )


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
    return GomoryHuTree(
        signature=signature,
        nodes=nodes,
        parent=parent,
        weight=weight,
        side=side,
        flow_equivalent=True,
    )


def cached_gomory_hu(
    graph: NetworkGraph, signature: GraphSignature | None = None
) -> Optional[GomoryHuTree]:
    """The memoised flow-equivalent cut tree of ``graph``, or ``None``.

    Returns ``None`` (recording nothing) for directed / asymmetric graphs —
    callers then fall back to per-pair Dinic solves.  On a miss for a
    symmetric graph the tree is built and cached; any graph with the same
    unit form is then a hit.
    """
    if signature is None:
        signature = graph_signature(graph)
    unit, scale = _unit_form(signature)
    tree = _GH_CACHE.lookup(("tree", unit))
    if tree is None:
        if not is_symmetric(graph):
            return None
        if not unit[0]:
            raise GraphError("cannot build a cut tree of an empty graph")
        tree = _gusfield(unit)
        _GH_CACHE.store(("tree", unit), tree)
        _GH_CACHE.store(("global-min", unit), tree.min_weight() if len(tree.nodes()) > 1 else None)
    return _rescaled(tree, signature, multiply=scale)


def tree_if_cached(signature: GraphSignature) -> Optional[GomoryHuTree]:
    """A cached *flow-equivalent* tree for this signature, without building one.

    Used by :func:`repro.graph.flow_cache.cached_st_mincut`: a single ``st``
    query never justifies ``n - 1`` solves, but an existing tree answers it
    for free.  Does not touch hit/miss counters (peek, not lookup).
    """
    unit, scale = _unit_form(signature)
    tree = _GH_CACHE.peek(("tree", unit))
    return _rescaled(tree, signature, multiply=scale) if isinstance(tree, GomoryHuTree) else None


def cached_global_mincut(
    graph: NetworkGraph, signature: GraphSignature | None = None
) -> Optional[int]:
    """The global undirected min-cut of a symmetric graph, through the cache.

    Served from (in order): the memoised value, a repaired tree (exact for
    global-min queries), or a fresh full build.  Returns ``None`` for
    asymmetric graphs.

    Raises:
        GraphError: if the graph has fewer than two nodes.
    """
    if signature is None:
        signature = graph_signature(graph)
    unit, scale = _unit_form(signature)
    value = _GH_CACHE.lookup(("global-min", unit))
    if value is not None:
        return value * scale
    partial = _GH_CACHE.peek(("tree-partial", unit))
    if isinstance(partial, GomoryHuTree):
        value = partial.min_weight()
        _GH_CACHE.store(("global-min", unit), value)
        return value * scale
    tree = cached_gomory_hu(graph, signature=signature)
    if tree is None:
        return None
    if len(tree.nodes()) < 2:
        raise GraphError("global min-cut requires at least two nodes")
    return tree.min_weight()


def repair_tree_after_pair_removal(
    old_graph: NetworkGraph,
    tree: GomoryHuTree,
    new_graph: NetworkGraph,
    a: NodeId,
    b: NodeId,
) -> GomoryHuTree:
    """Exact decremental update of ``tree`` after removing the links of ``{a, b}``.

    ``old_graph`` must be the (symmetric) graph ``tree`` is exact for and
    ``new_graph`` must equal ``old_graph`` minus both directed links between
    ``a`` and ``b``.  Applies the adjusted / certified / resolved case split
    from the module docstring; at most one flow is solved for ``mincut(a, b)``
    (zero on flow-equivalent trees) plus one per *resolved* tree edge, all
    sharing a single residual build of ``new_graph``.

    The result is exact for every tree edge but flagged
    ``flow_equivalent=False`` (see class docstring).

    Raises:
        GraphError: if no link between ``a`` and ``b`` exists in ``old_graph``.
    """
    removed_capacity = old_graph.capacity(a, b)
    if tree.flow_equivalent:
        w_ab = tree.mincut(a, b)
    else:
        # Repaired trees cannot answer arbitrary pairs: one direct solve.
        from repro.graph.flow_cache import cached_st_mincut

        w_ab = cached_st_mincut(old_graph, a, b)
    new_signature = graph_signature(new_graph)
    weight: Dict[NodeId, int] = {}
    side: Dict[NodeId, FrozenSet[NodeId]] = {}
    solver: _DinicSolver | None = None
    _count_repair("pairs")
    for node, target, old_value in tree.tree_edges():
        cut = tree.cut_side(node)
        if (a in cut) != (b in cut):
            # The stored cut loses exactly the one crossing link; nothing
            # cheaper can appear (every other candidate was >= old_value).
            weight[node] = old_value - removed_capacity
            side[node] = cut
            _count_repair("adjusted")
        elif w_ab >= old_value + removed_capacity:
            # Every cut the removal touches also separated {a, b}, so it was
            # at least w_ab > old_value - removed_capacity away; the stored
            # cut (untouched) stays minimal.
            weight[node] = old_value
            side[node] = cut
            _count_repair("certified")
        else:
            if solver is None:
                solver = _build_solver(new_graph.nodes(), new_graph.edges())
                solver.snapshot()
            solver.reset()
            weight[node] = solver.max_flow(node, target)
            side[node] = frozenset(solver.min_cut_reachable(node))
            _count_repair("resolved")
    return GomoryHuTree(
        signature=new_signature,
        nodes=tree.nodes(),
        parent={node: target for node, target, _ in tree.tree_edges()},
        weight=weight,
        side=side,
        flow_equivalent=False,
    )


def derive_trees_after_pair_removals(
    old_graph: NetworkGraph,
    pairs: Iterable[FrozenSet[NodeId]],
    new_graph: NetworkGraph,
) -> Optional[GomoryHuTree]:
    """Seed the cache for ``new_graph`` by chain-repairing ``old_graph``'s tree.

    The dispute-path hook: ``new_graph`` must be ``old_graph`` minus the
    links of every pair in ``pairs`` (pairs without a present link are
    skipped).  If no tree for ``old_graph`` is cached, or the graphs are not
    symmetric, this is a cheap no-op returning ``None`` — nothing is built
    eagerly; repair only ever *reuses* existing solved state.

    On success the repaired tree and its global-min value are cached for
    ``new_graph`` (and every intermediate graph), and the final tree is
    returned.  The repair chain runs at the graphs' own capacity scale — a
    removal can change the gcd — and each result is normalised to its own
    unit form on the way into the cache, like every other entry point.
    """
    old_signature = graph_signature(old_graph)
    unit, scale = _unit_form(old_signature)
    tree = _GH_CACHE.peek(("tree", unit))
    if tree is None:
        tree = _GH_CACHE.peek(("tree-partial", unit))
    if not isinstance(tree, GomoryHuTree):
        return None
    tree = _rescaled(tree, old_signature, multiply=scale)
    current = old_graph
    for pair in sorted(pairs, key=lambda p: tuple(sorted(p))):
        a, b = sorted(pair)
        if not current.has_node(a) or not current.has_node(b):
            continue
        if not current.has_edge(a, b) and not current.has_edge(b, a):
            continue
        next_graph = current.remove_links_between([pair])
        tree = repair_tree_after_pair_removal(current, tree, next_graph, a, b)
        unit, scale = _unit_form(tree.signature)
        unit_tree = _rescaled(tree, unit, divide=scale)
        _GH_CACHE.store(("tree-partial", unit), unit_tree)
        if len(tree.nodes()) > 1:
            _GH_CACHE.store(("global-min", unit), unit_tree.min_weight())
        current = next_graph
    if graph_signature(current) != graph_signature(new_graph):
        # The caller's graphs did not line up (e.g. a pair touched a node
        # absent from old_graph); the seeded intermediates are still exact
        # for their own signatures, but there is nothing valid to return.
        return None
    return tree if not tree.flow_equivalent else None
