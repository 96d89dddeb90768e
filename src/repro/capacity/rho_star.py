"""``rho*``: the worst-case Equality Check rate.

Section 5.1: ``rho* = U_1 / 2`` where ``U_1`` is computed from
``Omega_1`` — the dispute-free ``(n - f)``-node subgraphs of the *original*
network (no disputes have been found before the first instance, so ``Omega_1``
is simply all ``(n - f)``-subsets).  Because later instance graphs only ever
remove links between disputed pairs, ``Omega_k`` is a subset of ``Omega_1``
and ``U_k >= U_1``, so ``rho_k >= rho*`` in every reachable instance.

A member of ``Omega_1`` is ``G - F`` for some ``|F| = f``, so ``U_1`` is
the minimum of ``MINCUT(\\bar G - F)``: :func:`~repro.coding.omega.compute_uk`
filters one undirected view per member, and on a symmetric ``G`` (where
``\\bar G = 2 G``) every value is the one ``gamma*`` already cached for
``G - F``.
"""

from __future__ import annotations

from itertools import combinations

from repro.coding.omega import compute_rho, compute_uk
from repro.exceptions import ProtocolError
from repro.graph.network_graph import NetworkGraph


def u1_value(graph: NetworkGraph, max_faults: int) -> int:
    """``U_1``: the minimum pairwise undirected min-cut over all ``(n - f)``-subsets."""
    if max_faults < 0:
        raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
    node_count = graph.node_count()
    subgraph_size = node_count - max_faults
    if subgraph_size < 2:
        raise ProtocolError(
            f"n - f = {subgraph_size} < 2: the equality check has nothing to compare"
        )
    # No disputes yet: Omega_1 is every (n - f)-subset, streamed, not listed.
    return compute_uk(graph, combinations(graph.nodes(), subgraph_size))


def rho_star(graph: NetworkGraph, max_faults: int) -> int:
    """``rho* = floor(U_1 / 2)``.

    Raises:
        ProtocolError: if ``U_1 < 2`` (the network violates the paper's
            connectivity/capacity preconditions).
    """
    return compute_rho(u1_value(graph, max_faults))
