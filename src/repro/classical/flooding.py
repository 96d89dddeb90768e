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

from fractions import Fraction
from typing import Dict, Sequence

from repro.classical.broadcast_default import BroadcastDefault
from repro.transport.faults import FaultModel
from repro.transport.network import NetworkFactory, SynchronousNetwork
from repro.graph.network_graph import NetworkGraph
from repro.types import (
    BroadcastResult,
    Edge,
    NodeId,
    RunRecord,
    accumulate_link_bits,
    broadcast_spec_flags,
)


def classical_full_value_broadcast(
    graph: NetworkGraph,
    source: NodeId,
    value: bytes,
    max_faults: int,
    fault_model: FaultModel | None = None,
    participants: Sequence[NodeId] | None = None,
    network_factory: NetworkFactory | None = None,
) -> BroadcastResult:
    """Broadcast an ``L``-bit value using only the classical (capacity-oblivious) BB.

    Args:
        graph: The capacitated point-to-point network.
        source: The broadcasting node.
        value: The input as a byte string (``L = 8 * len(value)`` bits).
        max_faults: The resilience parameter ``f``.
        fault_model: Byzantine behaviour; defaults to no faults.
        participants: Nodes taking part; defaults to all nodes of the graph.
        network_factory: Transport constructor; defaults to the zero-delay
            :class:`SynchronousNetwork` (pass a scheduled factory to measure
            delivery on the discrete-event clock).

    Returns:
        A :class:`repro.types.BroadcastResult` with the fault-free outputs,
        total elapsed time and bits sent.
    """
    fault_model = fault_model if fault_model is not None else FaultModel()
    factory = network_factory if network_factory is not None else SynchronousNetwork
    network = factory(graph, fault_model)
    nodes = sorted(participants) if participants is not None else graph.nodes()
    broadcaster = BroadcastDefault(network, nodes, max_faults)
    bit_size = max(1, 8 * len(value))
    decided: Dict[NodeId, bytes] = broadcaster.broadcast(
        source, value, bit_size, phase="classical_broadcast", context="flooding"
    )
    return BroadcastResult(
        outputs=decided,
        metadata={"algorithm": "classical_eig_flooding", "L_bits": bit_size},
        **network.result_accounting(),
    )


def classical_chunked_broadcast(
    graph: NetworkGraph,
    source: NodeId,
    value: bytes,
    max_faults: int,
    fault_model: FaultModel | None = None,
    chunk_bytes: int = 1,
    instance: int = 0,
    network_factory: NetworkFactory | None = None,
) -> BroadcastResult:
    """Broadcast a value chunk by chunk with direct EIG runs (no NAB machinery).

    The value is split into ``chunk_bytes``-sized pieces and every piece is
    agreed by EIG over the disjoint-path relay, all pieces in the same
    ``f + 1`` rounds (:meth:`BroadcastDefault.broadcast_many`: piece ``i`` is
    one stream, with hook contexts ``chunked|{i}|{label}``).  This is the
    "stream the payload through the classical primitive" shape of a naive
    replicated-log deployment; like the full-value baseline it is capacity
    oblivious, so its cost profile is dominated by the slowest links.
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
    return BroadcastResult(
        outputs=outputs,
        metadata={
            "algorithm": "classical_eig_chunked",
            "L_bits": max(1, 8 * len(value)),
            "chunks": len(chunks),
        },
        **network.result_accounting(),
    )


def _aggregate_run_record(
    protocol: str,
    results: Sequence[BroadcastResult],
    inputs: Sequence[bytes],
    source_faulty: bool,
    metadata: Dict[str, object],
) -> RunRecord:
    """Fold per-instance :class:`BroadcastResult`s into one :class:`RunRecord`."""
    link_totals: Dict[Edge, int] = {}
    for result in results:
        accumulate_link_bits(link_totals, result.link_bits)
    outputs = tuple(dict(result.outputs) for result in results)
    agreement_ok, validity_ok = broadcast_spec_flags(outputs, inputs, source_faulty)
    return RunRecord(
        protocol=protocol,
        instances=len(results),
        payload_bits=sum(8 * len(value) for value in inputs),
        outputs=outputs,
        elapsed=sum((result.elapsed for result in results), Fraction(0)),
        bits_sent=sum(result.bits_sent for result in results),
        link_bits=link_totals,
        dispute_control_executions=0,
        agreement_ok=agreement_ok,
        validity_ok=validity_ok,
        metadata=metadata,
    )


def classical_flooding_run_record(
    graph: NetworkGraph,
    source: NodeId,
    inputs: Sequence[bytes],
    max_faults: int,
    fault_model: FaultModel | None = None,
    network_factory: NetworkFactory | None = None,
) -> RunRecord:
    """Run the full-value baseline once per input and aggregate into a :class:`RunRecord`."""
    fault_model = fault_model if fault_model is not None else FaultModel()
    results = [
        classical_full_value_broadcast(
            graph, source, value, max_faults, fault_model,
            network_factory=network_factory,
        )
        for value in inputs
    ]
    return _aggregate_run_record(
        "classical-flooding",
        results,
        inputs,
        fault_model.is_faulty(source),
        {"algorithm": "classical_eig_flooding"},
    )


def eig_chunked_run_record(
    graph: NetworkGraph,
    source: NodeId,
    inputs: Sequence[bytes],
    max_faults: int,
    fault_model: FaultModel | None = None,
    chunk_bytes: int = 1,
    network_factory: NetworkFactory | None = None,
) -> RunRecord:
    """Run the chunked EIG baseline once per input and aggregate into a :class:`RunRecord`."""
    fault_model = fault_model if fault_model is not None else FaultModel()
    results = [
        classical_chunked_broadcast(
            graph, source, value, max_faults, fault_model,
            chunk_bytes=chunk_bytes, instance=index,
            network_factory=network_factory,
        )
        for index, value in enumerate(inputs)
    ]
    return _aggregate_run_record(
        "eig",
        results,
        inputs,
        fault_model.is_faulty(source),
        {"algorithm": "classical_eig_chunked", "chunk_bytes": chunk_bytes},
    )
