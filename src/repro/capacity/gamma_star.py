"""``gamma*``: the worst-case Phase 1 broadcast rate over all reachable instance graphs.

Appendix E constructs the family ``Gamma`` of graphs that some execution of
NAB could use as its instance graph ``G_k``: for every *explainable* edge set
``W`` (one that some candidate faulty set ``F`` of at most ``f`` nodes is
incident to), the graph ``Psi_W`` is obtained by removing ``W`` and the nodes
that every explanation of ``W`` contains; graphs that still contain the source
belong to ``Gamma``.  Then

    ``gamma* = min over Psi in Gamma of min_j MINCUT(Psi, 1, j)``.

The minimum is attained on *maximal* explainable sets: for a fixed
candidate faulty set ``F``, removing additional ``F``-incident edges only
lowers min-cuts (and can only grow the set of removed nodes, which are by
construction not min-cut targets the adversary can use to its advantage).
So only ``W_F``, all edges incident on ``F``, matters for each ``|F| <= f``,
and on a gated graph its ``Psi`` has a closed form.

**Lemma.**  Let every node have at least ``f + 1`` distinct neighbours
(in-edges and out-edges counted together; the ``2f + 1`` connectivity gate
implies this).  Then ``Psi_{W_F} = G - F`` for every ``|F| <= f``.

*Proof.*  Let ``X``, ``|X| <= f``, be any set that explains ``W_F``: every
edge incident on ``F`` touches ``X``.  Were some ``v`` in ``F`` not in
``X``, every edge at ``v`` would need its other end in ``X``, so all of
``v``'s ``f + 1`` or more neighbours would be in ``X``, which has at most
``f`` nodes.  Hence ``F`` is a subset of every explanation.  ``F`` explains
``W_F`` itself, so the nodes every explanation contains are exactly ``F``,
and ``Psi = G - W_F - F = G - F``.  ``F = {}`` gives ``G``, and an ``F``
holding the source drops out of ``Gamma``.  ``G - F`` keeps at least two
nodes, because the source has ``f + 1`` neighbours and ``|F| <= f``.

So ``gamma* = min over |F| <= f, source not in F of MINCUT(G - F)``.

**One pass answers Theorem 2.**  ``U_1`` (``rho* = U_1 / 2``,
:mod:`repro.capacity.rho_star`) is the minimum of ``MINCUT(\\bar G - F)``
over ``|F| = f``: the same family.  :func:`family_minima` enumerates it
once and skips only an ``F`` that holds the source with ``|F| < f``, which
neither minimum needs.  ``gamma*`` takes every member whose ``F`` avoids
the source, ``U_1`` every member with ``|F| = f``.  ``G``'s integer-indexed
adjacency is built once (:func:`~repro.graph.gomory_hu.adjacency_rows`),
and each member is its copy minus ``F``'s rows and entries, contracted once
in place (:func:`~repro.graph.gomory_hu.global_mincut_without`): no graph,
signature or cache key is made per member.  On a symmetric ``G`` one
contraction serves both minima, since ``\\bar G = 2 G``.  On an asymmetric
``G`` the loop is the same: ``gamma*`` solves each ``G - F`` per target,
and ``U_1`` contracts ``\\bar G - F`` off ``\\bar G``'s adjacency, also built
once.  :func:`gamma_star` selects from the pass.  The explaining-set
construction this replaces is the oracle ``construct_gamma_family`` of
``tests/_oracles/capacity.py``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, NamedTuple, Set

from repro.exceptions import ProtocolError
from repro.graph.flow_cache import cached_all_target_mincuts, graph_signature, induced_signature
from repro.graph.gomory_hu import adjacency_rows, global_mincut_without, is_symmetric
from repro.graph.network_graph import NetworkGraph
from repro.graph.undirected import UndirectedView
from repro.types import NodeId


class FamilyMinima(NamedTuple):
    """The two minima Theorem 2 rests on, from one pass over the ``G - F``."""

    #: ``min over |F| <= f, source not in F of MINCUT(G - F)``.
    gamma_star: int
    #: ``min over |F| = f of MINCUT(\\bar G - F)`` (``rho* = U_1 / 2``).
    u1: int


def family_minima(graph: NetworkGraph, source: NodeId, max_faults: int) -> FamilyMinima:
    """``gamma*`` and ``U_1`` from one enumeration of the ``G - F``, ``|F| <= f``.

    Raises:
        ProtocolError: if ``max_faults`` is negative, ``n - f < 2``, the
            source is not in the graph, or some node has at most ``f``
            neighbours (the lemma above needs ``f + 1``).
    """
    if max_faults < 0:
        raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
    signature = graph_signature(graph)
    nodes, edges = signature
    if len(nodes) - max_faults < 2:
        raise ProtocolError(
            f"n - f = {len(nodes) - max_faults} < 2: the equality check has nothing to compare"
        )
    if not graph.has_node(source):
        raise ProtocolError(f"source {source} is not in the graph")
    neighbours: Dict[NodeId, Set[NodeId]] = {node: set() for node in nodes}
    for tail, head, _capacity in edges:
        neighbours[tail].add(head)
        neighbours[head].add(tail)
    for node, adjacent in neighbours.items():
        if len(adjacent) <= max_faults:
            raise ProtocolError(
                f"node {node} has {len(adjacent)} neighbours; gamma* at f = {max_faults} "
                f"needs at least {max_faults + 1} per node"
            )
    symmetric = is_symmetric(edges)
    rows, scale = adjacency_rows(signature)
    if symmetric:
        undirected_rows, undirected_scale = rows, 2 * scale
    else:
        undirected_rows, undirected_scale = adjacency_rows(UndirectedView(graph).signature)
    origin = nodes.index(source)
    node_set = set(nodes)
    gammas: List[int] = []
    undirected: List[int] = []
    for size in range(max_faults + 1):
        for faulty in combinations(range(len(nodes)), size):
            avoids = origin not in faulty
            if not avoids and size < max_faults:
                continue
            cut = None
            if avoids and symmetric:
                cut = scale * global_mincut_without(rows, faulty)
                gammas.append(cut)
            elif avoids:
                removed = [nodes[index] for index in faulty]
                member = induced_signature(signature, node_set.difference(removed))
                cuts = cached_all_target_mincuts(graph.remove_nodes(removed), source, member)
                gammas.append(min(cuts.values()))
            if size == max_faults:
                # On a symmetric G, \bar G = 2 G: gamma*'s contraction serves U_1 too.
                if cut is None:
                    undirected.append(
                        undirected_scale * global_mincut_without(undirected_rows, faulty)
                    )
                else:
                    undirected.append(2 * cut)
    return FamilyMinima(min(gammas), min(undirected))


def gamma_star(graph: NetworkGraph, source: NodeId, max_faults: int) -> int:
    """``gamma* = min over Gamma of min_j MINCUT(Psi, source, j)``, read off :func:`family_minima`."""
    return family_minima(graph, source, max_faults).gamma_star
