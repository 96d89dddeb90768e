"""Capacity-oblivious baseline: broadcast the whole input with classical BB.

The paper's introduction argues that previously proposed BB algorithms, which
ignore link capacities, "can perform poorly ... arbitrarily worse than the
optimal throughput" on networks with heterogeneous capacities.  This module
implements that baseline so the claim can be measured: the entire ``L``-bit
input is broadcast with the classical EIG algorithm over the disjoint-path
complete-graph emulation.  Every copy of the value therefore crosses slow
links as often as fast ones, and the elapsed time is dominated by the worst
link on the relay paths — exactly the behaviour NAB's network-aware Phase 1
avoids.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.classical.broadcast_default import BroadcastDefault
from repro.transport.faults import FaultModel
from repro.transport.network import NetworkFactory, SynchronousNetwork
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId, RunRecord, fold_instances


def classical_full_value_broadcast(
    graph: NetworkGraph,
    source: NodeId,
    value: bytes,
    max_faults: int,
    fault_model: FaultModel | None = None,
    network_factory: NetworkFactory | None = None,
) -> Tuple[Dict[NodeId, object], Dict[str, object]]:
    """Broadcast an ``L``-bit value using only the classical (capacity-oblivious) BB.

    Args:
        graph: The capacitated point-to-point network.
        source: The broadcasting node.
        value: The input as a byte string (``L = 8 * len(value)`` bits).
        max_faults: The resilience parameter ``f``.
        fault_model: Byzantine behaviour; defaults to no faults.
        network_factory: Transport constructor; defaults to the zero-delay
            :class:`SynchronousNetwork` (pass a factory that gives it a link
            model to measure delivery on its replayed link clock).

    Returns:
        ``(outputs, accounting)``: the decision of every fault-free node, and
        the network's ``result_accounting()`` (``elapsed``, ``bits_sent``,
        ``phase_timings``, ``link_bits``) — one instance of
        :func:`repro.types.fold_instances`.
    """
    fault_model = fault_model if fault_model is not None else FaultModel()
    factory = network_factory if network_factory is not None else SynchronousNetwork
    network = factory(graph, fault_model)
    broadcaster = BroadcastDefault(network, graph.nodes(), max_faults)
    decided: Dict[NodeId, object] = broadcaster.broadcast(
        source, value, max(1, 8 * len(value)), phase="classical_broadcast", context="flooding"
    )
    return decided, network.result_accounting()


def classical_chunked_broadcast(
    graph: NetworkGraph,
    source: NodeId,
    value: bytes,
    max_faults: int,
    fault_model: FaultModel | None = None,
    chunk_bytes: int = 1,
    instance: int = 0,
    network_factory: NetworkFactory | None = None,
) -> Tuple[Dict[NodeId, object], Dict[str, object]]:
    """Broadcast a value chunk by chunk with direct EIG runs (no NAB machinery).

    The value is split into ``chunk_bytes``-sized pieces and every piece is
    agreed by EIG over the disjoint-path relay, all pieces in the same
    ``f + 1`` rounds (:meth:`BroadcastDefault.broadcast_many`: piece ``i`` is
    one stream, with hook contexts ``chunked|{i}|{label}``).  This is the
    "stream the payload through the classical primitive" shape of a naive
    replicated-log deployment; like the full-value baseline it is capacity
    oblivious, so its cost profile is dominated by the slowest links.
    Returns ``(outputs, accounting)`` as :func:`classical_full_value_broadcast`.
    """
    fault_model = fault_model if fault_model is not None else FaultModel()
    factory = network_factory if network_factory is not None else SynchronousNetwork
    network = factory(graph, fault_model)
    broadcaster = BroadcastDefault(network, graph.nodes(), max_faults, instance=instance)
    chunks = [value[i : i + chunk_bytes] for i in range(0, len(value), chunk_bytes)] or [b""]
    decided = broadcaster.broadcast_many(
        source,
        chunks,
        [max(1, 8 * len(chunk)) for chunk in chunks],
        phase="classical_broadcast",
        context="chunked",
    )
    outputs: Dict[NodeId, object] = {}
    for node, pieces in decided.items():
        if all(isinstance(piece, (bytes, bytearray)) for piece in pieces):
            outputs[node] = b"".join(bytes(piece) for piece in pieces)
        else:
            # A Byzantine source injected non-byte garbage; keep the raw
            # per-chunk decisions so spec checking can still compare them.
            outputs[node] = tuple(pieces)
    return outputs, network.result_accounting()


def classical_flooding_run(
    graph: NetworkGraph,
    source: NodeId,
    inputs: Sequence[bytes],
    max_faults: int,
    fault_model: FaultModel | None = None,
    network_factory: NetworkFactory | None = None,
) -> RunRecord:
    """Run the full-value baseline once per input and fold the run."""
    fault_model = fault_model if fault_model is not None else FaultModel()
    instances = [
        classical_full_value_broadcast(
            graph, source, value, max_faults, fault_model, network_factory=network_factory
        )
        for value in inputs
    ]
    return fold_instances(
        "classical-flooding",
        inputs,
        fault_model.is_faulty(source),
        instances,
        metadata={"algorithm": "classical_eig_flooding"},
    )


def eig_chunked_run(
    graph: NetworkGraph,
    source: NodeId,
    inputs: Sequence[bytes],
    max_faults: int,
    fault_model: FaultModel | None = None,
    chunk_bytes: int = 1,
    network_factory: NetworkFactory | None = None,
) -> RunRecord:
    """Run the chunked EIG baseline once per input and fold the run."""
    fault_model = fault_model if fault_model is not None else FaultModel()
    instances = [
        classical_chunked_broadcast(
            graph, source, value, max_faults, fault_model,
            chunk_bytes=chunk_bytes, instance=index,
            network_factory=network_factory,
        )
        for index, value in enumerate(inputs)
    ]
    return fold_instances(
        "eig",
        inputs,
        fault_model.is_faulty(source),
        instances,
        metadata={"algorithm": "classical_eig_chunked", "chunk_bytes": chunk_bytes},
    )
