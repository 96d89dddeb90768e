"""Phase 1: unreliable broadcast of the ``L``-bit input over packed arborescences.

The source splits its input into ``gamma_k`` symbols of ``ceil(L / gamma_k)``
bits and ships the ``t``-th symbol down the ``t``-th arborescence of a
capacity-disjoint packing of ``G_k`` rooted at the source.  Every relay simply
forwards the symbol it received to its children in that tree; no attempt is
made to detect or tolerate misbehaviour.  Faulty nodes may therefore corrupt
what flows through them (hooks ``phase1_source_symbol`` for an equivocating
source and ``phase1_forward_symbol`` for corrupting relays), which yields the
four possible Phase 1 outcomes the paper enumerates.

The phase charges ``ceil(L / gamma_k)`` bits to every tree edge; since the
packing respects link capacities, the elapsed time of the phase is exactly
``ceil(L / gamma_k)`` time units on unit-bottleneck links and never more than
``ceil(L / gamma_k)`` times the worst per-unit share in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.gf.symbols import bits_to_symbols, symbol_size_for, symbols_to_bits
from repro.graph.network_graph import NetworkGraph
from repro.graph.spanning_trees import Arborescence, pack_arborescences
from repro.transport.network import SynchronousNetwork
from repro.types import NodeId


@dataclass(frozen=True)
class Phase1Transcript:
    """What actually happened on the wire during Phase 1 (for dispute control).

    Attributes:
        values: The ``L``-bit value (as an integer) each node of ``G_k`` ends
            Phase 1 holding.  The source's entry is its own input.
        symbol_bits: Bits per phase-1 symbol (``ceil(L / gamma_k)``).
        trees: The arborescences used, in symbol order.
        sent_symbols: ``(tree_index, parent, child) -> symbol`` actually
            transmitted (post any Byzantine corruption by the sender).
        received_symbols: ``(tree_index, child) -> symbol`` as delivered.
    """

    values: Dict[NodeId, int]
    symbol_bits: int
    trees: Tuple[Arborescence, ...]
    sent_symbols: Dict[Tuple[int, NodeId, NodeId], int] = field(default_factory=dict)
    received_symbols: Dict[Tuple[int, NodeId], int] = field(default_factory=dict)


def run_phase1(
    network: SynchronousNetwork,
    instance_graph: NetworkGraph,
    source: NodeId,
    input_bits: int,
    total_bits: int,
    gamma: int,
    instance: int = 0,
    phase: str = "phase1_broadcast",
    trees: Sequence[Arborescence] | None = None,
) -> Phase1Transcript:
    """Execute Phase 1 on ``instance_graph``.

    Args:
        network: Transport used for accounting and fault-model lookup.
        instance_graph: ``G_k``.
        source: The broadcasting node.
        input_bits: The source's ``L``-bit input as an integer.
        total_bits: ``L``.
        gamma: ``gamma_k`` — number of arborescences / symbols.
        instance: Instance number passed to Byzantine hooks.
        phase: Accounting phase name.
        trees: Pre-packed arborescences (packed fresh when omitted).

    Returns:
        The full transcript, including the value each node reconstructed.

    Raises:
        ProtocolError: if the input does not fit in ``total_bits`` bits or the
            number of supplied trees does not match ``gamma``.
    """
    if input_bits < 0 or input_bits >= (1 << total_bits):
        raise ProtocolError(f"input does not fit in {total_bits} bits")
    if gamma < 1:
        raise ProtocolError(f"gamma must be >= 1, got {gamma}")
    if trees is None:
        trees = pack_arborescences(instance_graph, source, gamma)
    if len(trees) != gamma:
        raise ProtocolError(f"expected {gamma} arborescences, got {len(trees)}")

    fault_model = network.fault_model
    strategy = fault_model.strategy
    symbol_bits = symbol_size_for(total_bits, gamma)
    source_symbols = bits_to_symbols(input_bits, total_bits, symbol_bits)
    # bits_to_symbols produces ceil(total_bits / symbol_bits) symbols, which may
    # be fewer than gamma when gamma does not divide total_bits; pad with zero
    # symbols at the front so exactly one symbol rides each arborescence.
    if len(source_symbols) < gamma:
        source_symbols = [0] * (gamma - len(source_symbols)) + source_symbols

    sent_symbols: Dict[Tuple[int, NodeId, NodeId], int] = {}
    received_symbols: Dict[Tuple[int, NodeId], int] = {}
    per_node_symbols: Dict[NodeId, List[int]] = {
        node: [0] * gamma for node in instance_graph.nodes()
    }
    per_node_symbols[source] = list(source_symbols)

    for tree_index, tree in enumerate(trees):
        # Propagate the symbol down the tree in breadth-first order so a
        # relay's outgoing symbol is whatever it just received (or corrupted).
        holding: Dict[NodeId, int] = {source: source_symbols[tree_index]}
        frontier: List[NodeId] = [source]
        while frontier:
            parent = frontier.pop(0)
            for child in tree.children_of(parent):
                true_symbol = holding[parent]
                outgoing = true_symbol
                if fault_model.is_faulty(parent):
                    if parent == source:
                        outgoing = strategy.phase1_source_symbol(
                            instance, tree_index, child, true_symbol
                        )
                    else:
                        outgoing = strategy.phase1_forward_symbol(
                            instance, parent, tree_index, child, true_symbol
                        )
                    # A link message physically carries symbol_bits bits, so
                    # whatever the adversary injects is truncated to that size.
                    outgoing &= (1 << symbol_bits) - 1
                sent_symbols[(tree_index, parent, child)] = outgoing
                received_symbols[(tree_index, child)] = outgoing
                holding[child] = outgoing
                per_node_symbols[child][tree_index] = outgoing
                frontier.append(child)

    # One batched transmission per edge: every symbol the trees route over an
    # edge rides in a single per-edge vector (trees share the phase as one
    # synchronous round, so per-link bit totals — and hence the measured and
    # analytical clocks — are identical to per-tree sends).  Which tree each
    # vector entry belongs to is public knowledge: the packing is a
    # deterministic function of the instance graph.
    edge_vectors: Dict[Tuple[NodeId, NodeId], List[int]] = {}
    for tree_index, tree in enumerate(trees):
        for parent, child in tree.edges():
            edge_vectors.setdefault((parent, child), []).append(
                sent_symbols[(tree_index, parent, child)]
            )
    for (parent, child), vector in sorted(edge_vectors.items()):
        network.send_vector(
            parent, child, vector, symbol_bits, phase, kind="phase1_symbols"
        )

    values = {
        node: symbols_to_bits(per_node_symbols[node], symbol_bits) & ((1 << total_bits) - 1)
        for node in instance_graph.nodes()
    }
    values[source] = input_bits
    return Phase1Transcript(
        values=values,
        symbol_bits=symbol_bits,
        trees=tuple(trees),
        sent_symbols=sent_symbols,
        received_symbols=received_symbols,
    )
