"""``rho*``: the worst-case Equality Check rate.

Section 5.1: ``rho* = U_1 / 2`` where ``U_1`` is computed from
``Omega_1`` — the dispute-free ``(n - f)``-node subgraphs of the *original*
network (no disputes have been found before the first instance, so ``Omega_1``
is simply all ``(n - f)``-subsets).  Because later instance graphs only ever
remove links between disputed pairs, ``Omega_k`` is a subset of ``Omega_1``
and ``U_k >= U_1``, so ``rho_k >= rho*`` in every reachable instance.

A member of ``Omega_1`` is ``G - F`` for some ``|F| = f``, so ``U_1`` is
the minimum of ``MINCUT(\\bar G - F)``: the ``|F| = f`` members of the one
pass that also yields ``gamma*``
(:func:`~repro.capacity.gamma_star.family_minima`), each contracted once
off ``\\bar G``'s adjacency.  On a symmetric ``G`` (where ``\\bar G = 2 G``)
that is twice the contraction ``gamma*`` reads for the same ``G - F``.
NAB's run-time ``U_k`` under disputes is
:func:`~repro.coding.omega.compute_uk`.
"""

from __future__ import annotations

from repro.capacity.gamma_star import family_minima
from repro.coding.omega import compute_rho
from repro.graph.network_graph import NetworkGraph


def u1_value(graph: NetworkGraph, max_faults: int) -> int:
    """``U_1``: the minimum pairwise undirected min-cut over all ``(n - f)``-subsets.

    Read off :func:`~repro.capacity.gamma_star.family_minima`, whose gates it
    shares; ``U_1`` does not depend on the source, so the first node is
    asked.
    """
    nodes = graph.nodes()
    return family_minima(graph, nodes[0] if nodes else None, max_faults).u1


def rho_star(graph: NetworkGraph, max_faults: int) -> int:
    """``rho* = floor(U_1 / 2)``.

    Raises:
        ProtocolError: if ``U_1 < 2`` (the network violates the paper's
            connectivity/capacity preconditions).
    """
    return compute_rho(u1_value(graph, max_faults))
