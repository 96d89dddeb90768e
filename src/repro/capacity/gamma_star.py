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

So ``gamma* = min over |F| <= f, source not in F of MINCUT(G - F)``, and
:func:`gamma_star` reads every ``G - F`` straight off ``G``'s signature
(:func:`~repro.graph.flow_cache.induced_signature`); no graph is built per
member.  On a symmetric graph each value is one cached global min-cut, the
value ``rho*`` and ``U_k`` find again for ``2 (G - F)``.  An asymmetric
``G - F`` is solved per target.  The explaining-set construction this
replaces is the oracle ``construct_gamma_family`` of
``tests/_oracles/capacity.py``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Set

from repro.exceptions import ProtocolError
from repro.graph.flow_cache import cached_all_target_mincuts, graph_signature, induced_signature
from repro.graph.gomory_hu import cached_global_mincut, is_symmetric
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId


def gamma_star(graph: NetworkGraph, source: NodeId, max_faults: int) -> int:
    """``gamma* = min over Gamma of min_j MINCUT(Psi, source, j)``.

    Raises:
        ProtocolError: if the source is not in the graph, ``max_faults`` is
            negative, or some node has at most ``f`` neighbours (the lemma
            above needs ``f + 1``).
    """
    if not graph.has_node(source):
        raise ProtocolError(f"source {source} is not in the graph")
    if max_faults < 0:
        raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
    signature = graph_signature(graph)
    nodes, edges = signature
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
    node_set = set(nodes)
    candidates = [node for node in nodes if node != source]
    best = None
    for size in range(max_faults + 1):
        for faulty in combinations(candidates, size):
            member = induced_signature(signature, node_set.difference(faulty))
            if symmetric:
                value = cached_global_mincut(member)
            else:
                cuts = cached_all_target_mincuts(graph.remove_nodes(faulty), source, member)
                value = min(cuts.values())
            if best is None or value < best:
                best = value
    return best
