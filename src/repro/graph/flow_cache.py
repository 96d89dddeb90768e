"""Memoised min-cut evaluation keyed on canonical graph signatures.

A graph's *signature* (:func:`graph_signature`: the sorted node tuple and the
sorted ``(tail, head, capacity)`` tuple) is the one currency the graph and
capacity layers trade in.  Values are cached against it, so any structurally
identical query is a dictionary lookup, and :func:`induced_signature` derives
the signature of an induced subgraph by filtering both tuples, which is how
``gamma*``, ``rho*`` and ``U_k`` reach every ``G - F`` of their families
without building a graph per member.

The cache here holds the *directed* per-target values
(:func:`cached_all_target_mincuts`): the broadcast min-cut of an asymmetric
graph and the packing's feasibility probes.  The global min-cut of a
symmetric graph, which is every value the capacity families ask for on the
named topologies, is one contraction cached in :mod:`repro.graph.gomory_hu`.
Both caches are bounded (LRU eviction) and purely value-based:
``NetworkGraph`` instances are never retained, only their signatures, so
caching cannot leak graphs or observe mutation.  ``clear_mincut_cache``
resets this one.

Every process-wide cache of the library registers here
(:func:`register_cache`): :func:`clear_scope` is how a sweep worker drops
the topology-scoped ones between topologies, and :func:`all_cache_stats` is
the one stats surface, read as ``all_cache_stats()[name]``.  The few
``*_cache_stats`` / ``clear_*`` functions left beside it are the ones the
reference benchmark resolves by name.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Container, Dict, Hashable, Optional, Tuple

from repro.exceptions import GraphError
from repro.graph.maxflow import all_max_flow_values
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId

#: Default bound on the number of cached flow solutions.
DEFAULT_MAX_ENTRIES = 8192

#: Canonical signature type: (sorted node tuple, sorted (tail, head, cap) tuple).
GraphSignature = Tuple[Tuple[NodeId, ...], Tuple[Tuple[NodeId, NodeId, int], ...]]


def graph_signature(graph: NetworkGraph) -> GraphSignature:
    """A hashable canonical signature of a graph's nodes, edges and capacities.

    Two graphs have equal signatures iff they are equal as capacitated
    directed graphs, so the signature is a sound cache key for any quantity
    determined by graph structure alone.
    """
    return (tuple(graph.nodes()), tuple(graph.edges()))


def induced_signature(signature: GraphSignature, keep: Container[NodeId]) -> GraphSignature:
    """The signature of the subgraph induced by the nodes in ``keep``.

    Filtering keeps both tuples sorted, so the result equals
    ``graph_signature(graph.induced_subgraph(keep))`` without building it.
    """
    nodes, edges = signature
    return (
        tuple(node for node in nodes if node in keep),
        tuple(edge for edge in edges if edge[0] in keep and edge[1] in keep),
    )


#: ``name -> (scope, clear, stats)`` of every process-wide cache family.
_REGISTRY: Dict[str, Tuple[str, Callable[[], None], Callable[[], object]]] = {}


def register_cache(
    name: str, scope: str, clear: Callable[[], None], stats: Callable[[], object]
) -> None:
    """Enter a process-wide cache family under its ops-surface name.

    ``scope`` is how long its entries stay useful: a ``"topology"`` cache is
    dropped by a sweep worker moving to the next topology
    (:func:`clear_scope`), a ``"process"`` cache lives as long as the process.
    """
    _REGISTRY[name] = (scope, clear, stats)


def clear_scope(scope: str) -> None:
    """Clear every registered cache of the given scope."""
    for cache_scope, clear, _stats in _REGISTRY.values():
        if cache_scope == scope:
            clear()


def all_cache_stats() -> Dict[str, object]:
    """``{name: stats()}`` of every registered cache — the ops surface."""
    return {name: stats() for name, (_scope, _clear, stats) in sorted(_REGISTRY.items())}


class MinCutCache:
    """A bounded LRU cache from hashable flow-query keys to solved values;
    given a ``name`` it registers itself (:func:`register_cache`)."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        name: Optional[str] = None,
        scope: str = "topology",
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if name is not None:
            register_cache(name, scope, self.clear, self.stats)
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Counters that survive :meth:`clear`, so a sweep that clears the
        #: cache between topologies can still report its overall efficacy.
        self.lifetime_hits = 0
        self.lifetime_misses = 0

    def lookup(self, key: Hashable):
        """Return the cached value for ``key`` or ``None``, updating LRU order."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            self.lifetime_misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.lifetime_hits += 1
        return value

    def store(self, key: Hashable, value) -> None:
        """Insert ``key -> value``, evicting least-recently-used entries."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters.

        The ``lifetime_*`` counters are deliberately kept: they track cache
        efficacy across clears (e.g. over a whole multi-topology sweep).
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, object]:
        """Counters plus derived hit rates, the shape every registered cache
        reports through :func:`all_cache_stats`.

        ``hits``/``misses`` count since the last :meth:`clear`; the
        ``lifetime_*`` counters survive clears.  Hit rates are floats,
        ``None`` before any lookup.
        """
        lookups = self.hits + self.misses
        lifetime = self.lifetime_hits + self.lifetime_misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else None,
            "lifetime_hits": self.lifetime_hits,
            "lifetime_misses": self.lifetime_misses,
            "lifetime_hit_rate": (self.lifetime_hits / lifetime) if lifetime else None,
        }


_CACHE = MinCutCache(name="mincut")


def clear_mincut_cache() -> None:
    """Reset the process-wide flow-solution cache."""
    _CACHE.clear()


def cache_stats() -> Dict[str, object]:
    """Hit/miss counters plus derived hit rates, for benchmark artifacts.

    Returns ``{"entries", "hits", "misses", "hit_rate", "lifetime_hits",
    "lifetime_misses", "lifetime_hit_rate"}``.  ``hits``/``misses`` count
    since the last :func:`clear_mincut_cache`; the ``lifetime_*`` counters
    survive clears (workloads like the engine runner clear the cache between
    topologies — the lifetime counters still measure the whole sweep).  Hit
    rates are floats, ``None`` before any lookup.
    """
    return _CACHE.stats()


def cached_all_target_mincuts(
    graph: NetworkGraph,
    source: NodeId,
    signature: GraphSignature | None = None,
) -> Dict[NodeId, int]:
    """``MINCUT(G, source, j)`` for every ``j != source``, through the cache.

    A single residual-graph build is shared across all targets on a miss
    (see :func:`repro.graph.maxflow.all_max_flow_values`).  Its callers are
    the directed cases: :func:`repro.graph.mincut.broadcast_mincut` and
    ``gamma*`` ask it only of asymmetric graphs (a symmetric one is a
    global min-cut, see :mod:`repro.graph.gomory_hu`), and the packing's
    feasibility probes of residual capacities.  The returned dict is a
    fresh copy the caller may mutate freely.

    Raises:
        GraphError: if the source is not in the graph.
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source} is not in the graph")
    if signature is None:
        signature = graph_signature(graph)
    key = ("all-targets", signature, source)
    cached = _CACHE.lookup(key)
    if cached is None:
        targets = [node for node in graph.nodes() if node != source]
        cached = all_max_flow_values(graph, source, targets)
        _CACHE.store(key, cached)
    return dict(cached)
