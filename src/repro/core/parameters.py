"""Per-instance parameters: ``gamma_k``, ``Omega_k``, ``U_k`` and ``rho_k``.

For the ``k``-th NAB instance running on graph ``G_k``:

* ``gamma_k = min_j MINCUT(G_k, 1, j)`` sets the Phase 1 broadcast rate;
* ``Omega_k`` is the family of dispute-free ``(n - f)``-node subgraphs;
* ``U_k`` is the smallest pairwise undirected min-cut over ``Omega_k``;
* ``rho_k = floor(U_k / 2)`` sets the Equality Check rate (Phase 2).

All fault-free nodes compute these identically because they share the same
dispute state.

The full tuple is memoised on the canonical graph signature plus the dispute
set: long-lived processes (the session service, engine sweeps) run thousands
of instances over a handful of distinct ``(G_k, disputes)`` combinations, and
the Omega/U_k computation is pure, so repeat instances reduce to a dictionary
lookup.  The cache is bounded (LRU) and holds only immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.coding.omega import omega_and_parameters
from repro.exceptions import ProtocolError
from repro.graph.flow_cache import MinCutCache, graph_signature
from repro.graph.mincut import broadcast_mincut
from repro.graph.network_graph import NetworkGraph
from repro.core.dispute_state import DisputeState
from repro.types import NodeId

#: Bound on memoised parameter tuples; each entry is a few hundred bytes.
PARAMETER_CACHE_ENTRIES = 4096

_parameter_cache = MinCutCache(max_entries=PARAMETER_CACHE_ENTRIES, name="instance_parameters")


def instance_parameter_cache_stats() -> Dict[str, object]:
    """Hit/miss statistics of the instance-parameter memo."""
    return _parameter_cache.stats()


@dataclass(frozen=True)
class InstanceParameters:
    """The quantities NAB needs before running one instance.

    Attributes:
        gamma: ``gamma_k``, the Phase 1 broadcast min-cut from the source.
        omega: The node sets of the subgraphs in ``Omega_k``.
        uk: ``U_k``.
        rho: ``rho_k = floor(U_k / 2)``.
    """

    gamma: int
    omega: Tuple[Tuple[NodeId, ...], ...]
    uk: int
    rho: int


def compute_instance_parameters(
    instance_graph: NetworkGraph,
    source: NodeId,
    total_nodes: int,
    max_faults: int,
    dispute_state: DisputeState,
) -> InstanceParameters:
    """Compute ``(gamma_k, Omega_k, U_k, rho_k)`` for an instance graph.

    Args:
        instance_graph: ``G_k``.
        source: The broadcasting node (must be present in ``G_k``).
        total_nodes: ``n``, the number of nodes of the *original* network.
        max_faults: ``f``.
        dispute_state: Accumulated disputes (only pairs inside ``G_k`` matter).

    Raises:
        ProtocolError: if the source is not in the instance graph — the caller
            is expected to have handled that special case (all fault-free
            nodes then agree on a default output).
    """
    if not instance_graph.has_node(source):
        raise ProtocolError(
            f"source {source} is not in the instance graph; agree on a default instead"
        )
    key = (
        graph_signature(instance_graph),
        source,
        total_nodes,
        max_faults,
        dispute_state.disputes(),
    )
    cached = _parameter_cache.lookup(key)
    if cached is not None:
        return cached
    gamma = broadcast_mincut(instance_graph, source)
    omega, uk, rho = omega_and_parameters(
        instance_graph, total_nodes, max_faults, dispute_state.disputes()
    )
    params = InstanceParameters(gamma=gamma, omega=tuple(omega), uk=uk, rho=rho)
    _parameter_cache.store(key, params)
    return params
