"""Network topology generators: the paper's example graphs and synthetic families.

The paper's figures are drawings that the text describes only through the
quantities they must exhibit; the reconstructions below are chosen to satisfy
every stated fact:

* :func:`figure1a` — a 4-node directed graph with
  ``MINCUT(1,2) = MINCUT(1,4) = 2``, ``MINCUT(1,3) = 3`` and hence
  ``gamma = 2``, with no link between nodes 2 and 4 (Section 3 notes those two
  nodes can never be found in dispute because no link joins them).
* :func:`figure1b` — the same network after nodes 2 and 3 have been found in
  dispute (the links between them are removed).  With ``n = 4, f = 1`` the set
  ``Omega_k`` then contains the subgraphs on ``{1, 2, 4}`` and ``{1, 3, 4}``
  and ``U_k = 2``, exactly as the paper states.
* :func:`figure2a` — a 4-node directed graph in which link ``(1, 2)`` has
  capacity 2 and two unit-capacity spanning trees can be packed, both using
  link ``(1, 2)`` (Appendix A's example); it contains the directed edges
  ``(2, 3)``, ``(1, 4)`` and ``(4, 3)`` referenced by Appendix C's example.

Synthetic families (complete, ring-with-chords, random regular-ish, bottleneck
and layered topologies) are used by the workloads and benchmark sweeps.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.exceptions import GraphError
from repro.graph.connectivity import has_vertex_connectivity_at_least
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId


def figure1a() -> NetworkGraph:
    """Reconstruction of the paper's Figure 1(a) example graph ``G``."""
    return NetworkGraph.from_edges(
        {
            (1, 2): 2,
            (1, 3): 2,
            (1, 4): 1,
            (4, 1): 1,
            (2, 3): 1,
            (3, 4): 1,
        }
    )


def figure1b() -> NetworkGraph:
    """Reconstruction of Figure 1(b): Figure 1(a) after a 2-3 dispute removed their links."""
    return figure1a().remove_links_between([frozenset((2, 3))])


def figure2a() -> NetworkGraph:
    """Reconstruction of Figure 2(a): the directed graph used in the spanning-tree example."""
    return NetworkGraph.from_edges(
        {
            (1, 2): 2,
            (1, 4): 1,
            (2, 3): 1,
            (2, 4): 1,
            (4, 3): 1,
        }
    )


def figure2_tree_packing() -> List[Dict[NodeId, NodeId]]:
    """The two unit-capacity spanning trees of Figure 2(c), as child -> parent maps.

    Both trees use link ``(1, 2)``, for a combined usage of 2 units, matching
    the capacity of that link — the property Appendix A points out.
    """
    tree_solid = {2: 1, 3: 2, 4: 1}
    tree_dotted = {2: 1, 4: 2, 3: 4}
    return [tree_solid, tree_dotted]


def complete_graph(node_count: int, capacity: int = 1) -> NetworkGraph:
    """A complete directed graph on ``node_count`` nodes with uniform link capacity."""
    if node_count < 2:
        raise GraphError(f"complete graph needs at least 2 nodes, got {node_count}")
    graph = NetworkGraph()
    for tail in range(1, node_count + 1):
        for head in range(1, node_count + 1):
            if tail != head:
                graph.add_edge(tail, head, capacity)
    return graph


def ring_with_chords(node_count: int, chord_span: int = 2, capacity: int = 1) -> NetworkGraph:
    """A bidirectional ring plus chords to nodes ``chord_span`` positions away.

    The chords raise the vertex connectivity above 2, which is what makes the
    topology usable for ``f >= 1`` (connectivity ``>= 2f + 1``).
    """
    if node_count < 3:
        raise GraphError(f"ring needs at least 3 nodes, got {node_count}")
    graph = NetworkGraph()
    edges = set()
    for index in range(node_count):
        node = index + 1
        neighbors = [((index + 1) % node_count) + 1]
        if chord_span % node_count not in (0, 1, node_count - 1):
            neighbors.append(((index + chord_span) % node_count) + 1)
        for neighbor in neighbors:
            for tail, head in ((node, neighbor), (neighbor, node)):
                if (tail, head) not in edges and tail != head:
                    edges.add((tail, head))
                    graph.add_edge(tail, head, capacity)
    return graph


def heterogeneous_bottleneck(
    node_count: int, fast_capacity: int, slow_capacity: int
) -> NetworkGraph:
    """A complete bidirectional graph where links touching the last node are slow.

    This is the kind of topology the paper's introduction motivates: when link
    capacities differ widely, capacity-oblivious BB algorithms that treat all
    links alike are throttled by the slow links, while a network-aware
    algorithm routes bulk data over the fast ones.
    """
    if node_count < 3:
        raise GraphError(f"topology needs at least 3 nodes, got {node_count}")
    if fast_capacity < 1 or slow_capacity < 1:
        raise GraphError("capacities must be positive")
    graph = NetworkGraph()
    slow_node = node_count
    for tail in range(1, node_count + 1):
        for head in range(1, node_count + 1):
            if tail == head:
                continue
            capacity = slow_capacity if slow_node in (tail, head) else fast_capacity
            graph.add_edge(tail, head, capacity)
    return graph


def layered_pipeline(layer_count: int, layer_size: int, capacity: int = 1) -> NetworkGraph:
    """A layered topology where the source reaches distant layers only via relays.

    Node 1 is the source; layer ``i`` (``i >= 1``) contains ``layer_size``
    nodes, each connected bidirectionally to every node of the adjacent
    layers.  The diameter grows with ``layer_count``, which is what makes
    propagation-delay pipelining (Figure 3) interesting.
    """
    if layer_count < 1 or layer_size < 1:
        raise GraphError("layer_count and layer_size must be >= 1")
    graph = NetworkGraph()
    graph.add_node(1)
    previous_layer: List[NodeId] = [1]
    next_id = 2
    for _ in range(layer_count):
        current_layer = list(range(next_id, next_id + layer_size))
        next_id += layer_size
        for upstream in previous_layer:
            for downstream in current_layer:
                graph.add_edge(upstream, downstream, capacity)
                graph.add_edge(downstream, upstream, capacity)
        # Fully connect nodes within a layer so the layer itself is robust.
        for a in current_layer:
            for b in current_layer:
                if a != b:
                    graph.add_edge(a, b, capacity)
        previous_layer = current_layer
    return graph


def random_connected_network(
    node_count: int,
    min_connectivity: int,
    rng: random.Random,
    max_capacity: int = 4,
    extra_edge_probability: float = 0.3,
    symmetric: bool = False,
) -> NetworkGraph:
    """A random bidirectional network with vertex connectivity at least ``min_connectivity``.

    Construction: start from a Harary-style circulant skeleton that guarantees
    the requested connectivity, add random extra links, then assign each link
    an independent random capacity in ``[1, max_capacity]`` (both directions of
    a link may get different capacities, making the network genuinely
    direction-asymmetric).  With ``symmetric=True`` one capacity is drawn per
    undirected link and used in both directions, producing an
    undirected-equivalent graph, whose min-cuts are one global min-cut.

    Raises:
        GraphError: if the requested connectivity cannot be met with
            ``node_count`` nodes.
    """
    if min_connectivity < 1:
        raise GraphError("min_connectivity must be >= 1")
    if node_count <= min_connectivity:
        raise GraphError(
            f"connectivity {min_connectivity} impossible with only {node_count} nodes"
        )
    undirected_pairs = set()
    # Circulant skeleton: connect each node to the next ceil(min_connectivity / 2)
    # nodes around a ring, which yields vertex connectivity >= min_connectivity
    # (Harary graph construction).
    span = -(-min_connectivity // 2)
    for index in range(node_count):
        for offset in range(1, span + 1):
            a = index + 1
            b = ((index + offset) % node_count) + 1
            if a != b:
                undirected_pairs.add(frozenset((a, b)))
    if min_connectivity % 2 == 1 and node_count % 2 == 0:
        # Odd connectivity on an even cycle: add diameters, as in Harary graphs.
        half = node_count // 2
        for index in range(half):
            undirected_pairs.add(frozenset((index + 1, index + 1 + half)))
    elif min_connectivity % 2 == 1 and node_count % 2 == 1:
        # Odd node count: Harary's construction adds near-diameter chords.
        half = node_count // 2
        for index in range(half + 1):
            undirected_pairs.add(frozenset((index + 1, ((index + half) % node_count) + 1)))
    for a in range(1, node_count + 1):
        for b in range(a + 1, node_count + 1):
            if frozenset((a, b)) not in undirected_pairs and rng.random() < extra_edge_probability:
                undirected_pairs.add(frozenset((a, b)))
    graph = NetworkGraph()
    for node in range(1, node_count + 1):
        graph.add_node(node)
    for pair in sorted(undirected_pairs, key=lambda p: tuple(sorted(p))):
        a, b = sorted(pair)
        forward = rng.randint(1, max_capacity)
        backward = forward if symmetric else rng.randint(1, max_capacity)
        graph.add_edge(a, b, forward)
        graph.add_edge(b, a, backward)
    if not has_vertex_connectivity_at_least(graph, min_connectivity):  # pragma: no cover - construction guard
        raise GraphError("random network construction failed to reach the requested connectivity")
    return graph


# ---------------------------------------------------------------------------
# Datacenter-scale families (PR 8).  All four generators are deterministic
# (no RNG), number nodes from 1, and emit symmetric graphs — every link is a
# pair of equal-capacity anti-parallel edges — so the whole analysis path
# runs on global min-cut contractions instead of per-pair flows.


def _add_link(graph: NetworkGraph, a: NodeId, b: NodeId, capacity: int) -> None:
    """Add the symmetric link ``{a, b}`` unless it already exists."""
    if a != b and not graph.has_edge(a, b):
        graph.add_edge(a, b, capacity)
        graph.add_edge(b, a, capacity)


def fat_tree(k: int, capacity: int = 4) -> NetworkGraph:
    """A ``k``-ary fat-tree fabric: ``(k/2)^2`` cores + ``k`` pods of ``k`` switches.

    The classic 3-tier Clos topology of datacenter networks.  Core switches
    ``(g, m)`` for ``g, m < k/2`` are numbered first; each pod then holds
    ``k/2`` aggregation and ``k/2`` edge switches.  Core ``(g, m)`` connects
    to aggregation switch ``g`` of every pod; within a pod, aggregation and
    edge switches form a complete bipartite graph.  Total nodes:
    ``5 k^2 / 4`` (``k = 8`` gives 80, ``k = 16`` gives 320); vertex
    connectivity ``k / 2``.

    Raises:
        GraphError: if ``k`` is odd or below 4, or the capacity is not positive.
    """
    if k < 4 or k % 2:
        raise GraphError(f"fat-tree arity must be even and >= 4, got {k}")
    if capacity < 1:
        raise GraphError("capacity must be positive")
    half = k // 2
    graph = NetworkGraph()
    core = {(g, m): g * half + m + 1 for g in range(half) for m in range(half)}
    next_id = half * half + 1
    for _pod in range(k):
        aggregation = list(range(next_id, next_id + half))
        edge = list(range(next_id + half, next_id + k))
        next_id += k
        for g in range(half):
            for m in range(half):
                _add_link(graph, core[(g, m)], aggregation[g], capacity)
        for agg in aggregation:
            for leaf in edge:
                _add_link(graph, agg, leaf, capacity)
    return graph


def torus_2d(rows: int, cols: int, capacity: int = 2) -> NetworkGraph:
    """A ``rows x cols`` wraparound 2D torus: every node links to 4 neighbours.

    The standard HPC / TPU-pod interconnect.  Node at ``(r, c)`` has
    identifier ``r * cols + c + 1``.  Vertex connectivity 4 (each node has
    exactly four distinct neighbours when both dimensions are >= 3).

    Raises:
        GraphError: if either dimension is below 3 or the capacity is not
            positive.
    """
    if rows < 3 or cols < 3:
        raise GraphError(f"torus dimensions must be >= 3, got {rows}x{cols}")
    if capacity < 1:
        raise GraphError("capacity must be positive")
    graph = NetworkGraph()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c + 1
            right = r * cols + ((c + 1) % cols) + 1
            down = ((r + 1) % rows) * cols + c + 1
            _add_link(graph, node, right, capacity)
            _add_link(graph, node, down, capacity)
    return graph


def ring_of_rings(
    ring_count: int,
    ring_size: int,
    local_capacity: int = 4,
    express_capacity: int = 8,
    uplinks: int = 2,
) -> NetworkGraph:
    """An optical ring-of-rings fabric (InfiniteHBD-style reconfigurable rings).

    ``ring_count`` local rings of ``ring_size`` nodes each; node ``i`` of
    ring ``r`` has identifier ``r * ring_size + i + 1``.  Within a ring,
    adjacent nodes link at ``local_capacity`` (plus distance-2 chords when
    the ring has at least 5 nodes, so a local ring alone is 4-connected).
    ``uplinks`` evenly spaced positions of each ring carry express links of
    ``express_capacity`` to the same positions of both neighbouring rings.
    Vertex connectivity is ``min(4, uplinks)`` for ``ring_size >= 5`` —
    choose ``uplinks >= 3`` for ``f = 1`` feasibility.

    Raises:
        GraphError: if fewer than 3 rings, rings smaller than 3 nodes,
            ``uplinks`` outside ``[1, ring_size]``, or a non-positive capacity.
    """
    if ring_count < 3:
        raise GraphError(f"need at least 3 rings, got {ring_count}")
    if ring_size < 3:
        raise GraphError(f"rings need at least 3 nodes, got {ring_size}")
    if not 1 <= uplinks <= ring_size:
        raise GraphError(f"uplinks must be in [1, {ring_size}], got {uplinks}")
    if local_capacity < 1 or express_capacity < 1:
        raise GraphError("capacities must be positive")
    graph = NetworkGraph()

    def node(ring: int, position: int) -> NodeId:
        return (ring % ring_count) * ring_size + (position % ring_size) + 1

    for ring in range(ring_count):
        for position in range(ring_size):
            _add_link(graph, node(ring, position), node(ring, position + 1), local_capacity)
            if ring_size >= 5:
                _add_link(graph, node(ring, position), node(ring, position + 2), local_capacity)
    uplink_positions = [(ring_size * j) // uplinks for j in range(uplinks)]
    for ring in range(ring_count):
        for position in uplink_positions:
            _add_link(graph, node(ring, position), node(ring + 1, position), express_capacity)
    return graph


def octopus_pods(
    pod_count: int,
    pod_size: int,
    spine_width: int = 3,
    intra_capacity: int = 2,
    spine_capacity: int = 8,
) -> NetworkGraph:
    """A sparse Octopus-style pod fabric: meshed pods joined by thin spines.

    ``pod_count`` pods of ``pod_size`` nodes each; node ``i`` of pod ``p``
    has identifier ``p * pod_size + i + 1``.  Each pod is a full mesh at
    ``intra_capacity``; the first ``spine_width`` nodes of every pod carry
    index-matched spine links of ``spine_capacity`` to the corresponding
    nodes of pods ``p + 1`` and ``p + 2`` (mod ``pod_count``), so the
    inter-pod graph stays connected under single-pod loss.  Vertex
    connectivity ``min(spine_width, pod_size - 1)``.

    Raises:
        GraphError: if fewer than 3 pods, pods smaller than 2 nodes,
            ``spine_width`` outside ``[1, pod_size]``, or a non-positive
            capacity.
    """
    if pod_count < 3:
        raise GraphError(f"need at least 3 pods, got {pod_count}")
    if pod_size < 2:
        raise GraphError(f"pods need at least 2 nodes, got {pod_size}")
    if not 1 <= spine_width <= pod_size:
        raise GraphError(f"spine_width must be in [1, {pod_size}], got {spine_width}")
    if intra_capacity < 1 or spine_capacity < 1:
        raise GraphError("capacities must be positive")
    graph = NetworkGraph()

    def node(pod: int, index: int) -> NodeId:
        return (pod % pod_count) * pod_size + index + 1

    for pod in range(pod_count):
        for a in range(pod_size):
            for b in range(a + 1, pod_size):
                _add_link(graph, node(pod, a), node(pod, b), intra_capacity)
        for index in range(spine_width):
            _add_link(graph, node(pod, index), node(pod + 1, index), spine_capacity)
            _add_link(graph, node(pod, index), node(pod + 2, index), spine_capacity)
    return graph
