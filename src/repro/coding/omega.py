"""The subgraph family ``Omega_k`` and the coding parameter bound ``U_k``.

Section 3 of the paper defines, for the ``k``-th NAB instance running on
``G_k``:

    ``Omega_k`` = all subgraphs of ``G_k`` induced by ``n - f`` nodes such
    that no two nodes of the subgraph have been found in dispute during the
    first ``k - 1`` instances,

and

    ``U_k`` = the minimum, over all ``H`` in ``Omega_k`` and all node pairs
    ``i, j`` of ``H``, of ``MINCUT(\\bar H, i, j)`` in the undirected
    capacity-summed view ``\\bar H``.

``Omega_k`` is non-empty because fault-free nodes are never found in dispute
with each other and there are at least ``n - f`` of them.  The equality-check
parameter must satisfy ``rho_k <= U_k / 2``; NAB uses the largest allowed
integer value so that the check finishes in ``L / rho_k`` time.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Sequence, Set, Tuple

from repro.exceptions import ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView
from repro.types import NodeId, NodePair


def dispute_free_subgraphs(
    graph: NetworkGraph,
    subgraph_size: int,
    disputes: Iterable[NodePair] = (),
) -> List[Tuple[NodeId, ...]]:
    """All ``subgraph_size``-node subsets of ``graph`` containing no disputed pair.

    Args:
        graph: The instance graph ``G_k``.
        subgraph_size: ``n - f`` — the number of nodes each subgraph must have.
        disputes: Unordered node pairs found in dispute so far.

    Returns:
        Sorted list of node tuples (each sorted), one per member of ``Omega_k``.

    Raises:
        ProtocolError: if ``subgraph_size`` is not positive or exceeds the
            number of nodes in the graph (the paper's special case where more
            than ``f`` nodes have been excluded is handled by the caller
            before reaching this function).
    """
    nodes = graph.nodes()
    if subgraph_size < 1:
        raise ProtocolError(f"subgraph size must be >= 1, got {subgraph_size}")
    if subgraph_size > len(nodes):
        raise ProtocolError(
            f"cannot form {subgraph_size}-node subgraphs from a {len(nodes)}-node graph"
        )
    dispute_set: Set[NodePair] = {frozenset(pair) for pair in disputes}
    if not dispute_set:
        # Common case (no disputes yet): every subset qualifies, skip the
        # quadratic per-subset pair scan.
        return [tuple(subset) for subset in combinations(nodes, subgraph_size)]
    members: List[Tuple[NodeId, ...]] = []
    for subset in combinations(nodes, subgraph_size):
        if _contains_disputed_pair(subset, dispute_set):
            continue
        members.append(tuple(subset))
    return members


def _contains_disputed_pair(subset: Sequence[NodeId], disputes: Set[NodePair]) -> bool:
    for a_index in range(len(subset)):
        for b_index in range(a_index + 1, len(subset)):
            if frozenset((subset[a_index], subset[b_index])) in disputes:
                return True
    return False


def compute_uk(graph: NetworkGraph, subgraphs: Iterable[Sequence[NodeId]]) -> int:
    """``U_k``: the minimum pairwise undirected min-cut over all ``Omega_k`` members.

    ``\\bar G`` is built once; each member's view is a filter of its
    signature (:meth:`~repro.graph.undirected.UndirectedView.induced`), not
    a graph.

    Raises:
        ProtocolError: if ``subgraphs`` is empty (``Omega_k`` is provably
            non-empty when the fault bound holds, so an empty family indicates
            the caller excluded too many nodes).
    """
    view = UndirectedView(graph)
    values = (view.induced(nodes).min_pairwise_mincut() for nodes in subgraphs)
    minimum = min(values, default=None)
    if minimum is None:
        raise ProtocolError("Omega_k is empty; cannot compute U_k")
    return minimum


def compute_rho(uk: int) -> int:
    """The equality-check parameter ``rho_k = floor(U_k / 2)``.

    Raises:
        ProtocolError: if ``U_k < 2`` — the algorithm needs ``rho_k >= 1``
            with ``rho_k <= U_k / 2``, which the paper's preconditions
            (connectivity at least ``2f + 1`` with unit-or-larger capacities)
            guarantee.
    """
    if uk < 2:
        raise ProtocolError(
            f"U_k = {uk} < 2: the equality check needs rho_k >= 1 with rho_k <= U_k / 2"
        )
    return uk // 2


def omega_and_parameters(
    graph: NetworkGraph,
    total_nodes: int,
    max_faults: int,
    disputes: Iterable[NodePair] = (),
) -> Tuple[List[Tuple[NodeId, ...]], int, int]:
    """``(Omega_k, U_k, rho_k)`` of an instance graph, as each NAB instance computes them."""
    subgraphs = dispute_free_subgraphs(graph, total_nodes - max_faults, disputes)
    uk = compute_uk(graph, subgraphs)
    return subgraphs, uk, compute_rho(uk)
