"""Capacitated-graph substrate used by every protocol in the library.

The paper models the network as a synchronous point-to-point network
``G(V, E)`` where each directed link ``e`` has a positive integer capacity
``z_e`` (bits per unit time).  This package provides:

* :class:`repro.graph.network_graph.NetworkGraph` — the directed capacitated
  simple graph with subgraph/removal operations used by NAB's graph evolution.
* :class:`repro.graph.undirected.UndirectedView` — the undirected graph
  ``\\bar H`` with summed link capacities used to define ``U_k``.
* :mod:`repro.graph.maxflow` / :mod:`repro.graph.mincut` — Dinic's max-flow,
  the one flow kernel, and the broadcast min-cut ``gamma(G, source)``.
* :mod:`repro.graph.flow_cache` — the process-wide LRU cache of solved
  min-cut values keyed on canonical graph signatures (the capacity layer's
  repeated sweeps hit this instead of re-running Dinic), and the cache
  registry every structure cache enters: ``clear_scope`` clears a scope,
  ``all_cache_stats`` is the one stats surface.
* :mod:`repro.graph.gomory_hu` — the global min-cut of an
  undirected-equivalent graph by one maximum-adjacency contraction, cached
  once per graph up to capacity scale (asymmetric graphs are solved per
  target); the Gomory-Hu cut tree it keeps is for the reference benchmark.
* :mod:`repro.graph.connectivity` — the ``2f + 1`` connectivity threshold,
  plus the vertex-disjoint path extraction the Appendix D relay runs on.
* :mod:`repro.graph.spanning_trees` — constructive packing of capacity-disjoint
  spanning arborescences (Phase 1's unreliable broadcast transport).
* :mod:`repro.graph.generators` — the paper's example networks and synthetic
  topology generators used by the workloads and benchmarks.

Exact references that no run reaches — all-pairs vertex connectivity, the
uncached Gomory-Hu build and the packing validator — are the frozen oracles
of ``tests/_oracles/graph.py``.
"""

from repro.graph.connectivity import (
    has_vertex_connectivity_at_least,
    vertex_disjoint_paths,
)
from repro.graph.flow_cache import (
    cache_stats,
    clear_mincut_cache,
    graph_signature,
)
from repro.graph.gomory_hu import clear_gomory_hu_cache
from repro.graph.maxflow import all_max_flow_values, max_flow_value
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.graph.spanning_trees import clear_pack_cache, pack_arborescences
from repro.graph.undirected import UndirectedView

__all__ = [
    "NetworkGraph",
    "UndirectedView",
    "max_flow_value",
    "all_max_flow_values",
    "broadcast_mincut",
    "graph_signature",
    "clear_mincut_cache",
    "cache_stats",
    "clear_gomory_hu_cache",
    "has_vertex_connectivity_at_least",
    "vertex_disjoint_paths",
    "pack_arborescences",
    "clear_pack_cache",
]
