"""One broadcast session: spec, warm topology context, checkpointed execution.

A :class:`SessionSpec` is the unit of work the service multiplexes: ``Q``
NAB instances on one topology under one adversary, all derived
deterministically from the spec (inputs from its seed, the faulty set from
its placement).  Executing a session is a pure function of the spec, which is
what makes checkpoint/restore exact: the snapshot taken after instance ``k``
(dispute state, instance index, the ``k`` completed results, the pending
inputs) plus the spec determines instances ``k+1 .. Q-1`` bit for bit, so a
resumed session's final row equals the uninterrupted run's byte for byte.

Persistent workers keep a *warm topology context* per ``(topology, source,
max_faults)``: the frozen graph with its connectivity precondition already
verified, so repeat sessions skip the vertex-connectivity check (the dominant
per-session setup cost on small graphs) by constructing
:class:`NetworkAwareBroadcast` with ``validate_connectivity=False``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.instance import InstanceResult, instance_result_from_jsonable
from repro.core.nab import NABRunResult, NetworkAwareBroadcast
from repro.exceptions import ProtocolError
from repro.graph.connectivity import meets_connectivity_requirement
from repro.graph.flow_cache import MinCutCache
from repro.graph.network_graph import NetworkGraph
from repro.transport.faults import FaultModel
from repro.types import NodeId
from repro.workloads.scenarios import make_strategy, input_stream
from repro.workloads.topologies import topology

#: Version stamp of the persisted session-row and snapshot-row layouts; bump
#: on breaking changes so resume never mixes incompatible rows.
SESSION_SCHEMA_VERSION = 1

#: Fault-free sessions carry this strategy name (mirrors the spec grid).
FAULT_FREE = "fault-free"


def session_seed(base_seed: int, session_id: str) -> int:
    """Derive a session's private seed from the service seed and its identity.

    Same construction as the engine's ``cell_seed``: a SHA-256 digest, so
    sessions are statistically independent yet exactly reproducible.
    """
    digest = hashlib.sha256(f"{base_seed}|{session_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines one broadcast session.

    Attributes:
        service: Name of the owning service run (partitions output files).
        session_id: Unique, stable identity within the service run.
        topology: Registered topology name.
        strategy: Adversary strategy name, or :data:`FAULT_FREE`.
        faulty_nodes: The Byzantine set (empty when fault-free).
        payload_bytes: Bytes per broadcast value.
        instances: Number of NAB instances (``Q``).
        max_faults: Resilience parameter ``f``.
        seed: The session's private seed (inputs and seeded strategies).
        source: Broadcasting node.
    """

    service: str
    session_id: str
    topology: str
    strategy: str
    faulty_nodes: Tuple[NodeId, ...]
    payload_bytes: int
    instances: int
    max_faults: int
    seed: int
    source: NodeId = 1

    def inputs(self) -> List[bytes]:
        """The session's broadcast values, derived from its seed."""
        return input_stream(random.Random(self.seed), self.instances, self.payload_bytes)

    def fault_model(self) -> FaultModel:
        """A fresh fault model for this session.

        Strategies are stateless across instances (every random draw is keyed
        per instance), so a fresh model replays a resumed session exactly.
        """
        if self.strategy == FAULT_FREE:
            return FaultModel()
        return FaultModel(self.faulty_nodes, make_strategy(self.strategy, self.seed))

    def to_jsonable(self) -> Dict[str, object]:
        """JSON-safe rendering (the identity block of session and WAL rows)."""
        return {
            "service": self.service,
            "session_id": self.session_id,
            "topology": self.topology,
            "strategy": self.strategy,
            "faulty_nodes": list(self.faulty_nodes),
            "payload_bytes": self.payload_bytes,
            "instances": self.instances,
            "max_faults": self.max_faults,
            "seed": self.seed,
            "source": self.source,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "SessionSpec":
        """Rebuild a spec previously rendered by :meth:`to_jsonable`."""
        return cls(
            service=str(data["service"]),
            session_id=str(data["session_id"]),
            topology=str(data["topology"]),
            strategy=str(data["strategy"]),
            faulty_nodes=tuple(int(node) for node in data["faulty_nodes"]),
            payload_bytes=int(data["payload_bytes"]),
            instances=int(data["instances"]),
            max_faults=int(data["max_faults"]),
            seed=int(data["seed"]),
            source=int(data["source"]),
        )


# --------------------------------------------------------------- warm context

#: Per-process warm topology contexts keyed ``(topology, source, max_faults)``:
#: the frozen graph with preconditions already checked.  Persistent workers
#: keep these across sessions — the whole point of a long-running pool — so
#: the scope is ``"process"``; the LRU bound keeps a long life flat.
_TOPOLOGY_CONTEXTS = MinCutCache(max_entries=256, name="topology_contexts", scope="process")


def warm_graph(topology_name: str, source: NodeId, max_faults: int) -> NetworkGraph:
    """The frozen, precondition-checked graph for a session's parameters.

    The first session on a ``(topology, source, f)`` triple pays the
    vertex-connectivity check; every later one reuses the verified graph and
    skips it.

    Raises:
        ProtocolError: if the topology violates ``n >= 3f + 1`` or
            connectivity ``>= 2f + 1`` (checked once, on the miss).
    """
    key = (topology_name, source, max_faults)
    graph = _TOPOLOGY_CONTEXTS.lookup(key)
    if graph is not None:
        return graph
    graph = topology(topology_name)
    if not graph.has_node(source):
        raise ProtocolError(f"source {source} is not a node of {topology_name}")
    if graph.node_count() < 3 * max_faults + 1:
        raise ProtocolError(
            f"{topology_name}: n={graph.node_count()} violates n >= 3f + 1 "
            f"for f={max_faults}"
        )
    if not meets_connectivity_requirement(graph, max_faults):
        raise ProtocolError(
            f"{topology_name}: connectivity below 2f + 1 = {2 * max_faults + 1}"
        )
    graph = graph if graph.is_frozen else graph.copy().freeze()
    _TOPOLOGY_CONTEXTS.store(key, graph)
    return graph


def topology_context_stats() -> Dict[str, object]:
    """``entries`` / ``hits`` / ``misses`` (and rates) of the warm contexts."""
    return _TOPOLOGY_CONTEXTS.stats()


def clear_topology_contexts() -> None:
    """Drop every warm context (memory hygiene / test isolation)."""
    _TOPOLOGY_CONTEXTS.clear()


# ----------------------------------------------------------------- execution


def snapshot_row(
    spec: SessionSpec,
    nab: NetworkAwareBroadcast,
    results: Sequence[InstanceResult],
    pending_inputs: Sequence[bytes],
) -> Dict[str, object]:
    """The WAL row capturing a session's state after ``len(results)`` instances.

    Carries the spec identity, the protocol's cross-instance state
    (:meth:`NetworkAwareBroadcast.snapshot_state`), the completed per-instance
    results and the pending inputs — everything a fresh process needs to
    finish the session byte-identically.
    """
    row: Dict[str, object] = {"kind": "snapshot", "schema": SESSION_SCHEMA_VERSION}
    row.update(spec.to_jsonable())
    row["state"] = nab.snapshot_state()
    row["results"] = [result.to_jsonable() for result in results]
    row["pending_inputs"] = [value.hex() for value in pending_inputs]
    return row


def snapshot_belongs_to(spec: SessionSpec, snapshot: Dict[str, object]) -> bool:
    """Whether ``snapshot`` was written by exactly this session.

    A session id names neither the seed nor the payload size, instance count,
    ``f`` or faulty set, so every spec field is compared: state restored from
    a session that merely shares the id would yield a row no run of ``spec``
    produces.
    """
    return all(snapshot.get(name) == value for name, value in spec.to_jsonable().items())


def session_row(spec: SessionSpec, run: NABRunResult, inputs: Sequence[bytes]) -> Dict[str, object]:
    """The canonical output row of one completed session.

    Deterministic (no timestamps, no host information), so fresh and resumed
    service runs persist byte-identical files.
    """
    record = run.as_run_record(inputs, spec.fault_model().is_faulty(spec.source))
    row: Dict[str, object] = {"schema": SESSION_SCHEMA_VERSION}
    row.update(spec.to_jsonable())
    row["record"] = record.to_jsonable()
    row["error"] = None
    return row


def run_session(
    spec: SessionSpec,
    snapshot: Optional[Dict[str, object]] = None,
    checkpoint: Optional[Callable[[Dict[str, object]], None]] = None,
    checkpoint_every: int = 1,
) -> Dict[str, object]:
    """Execute one session (possibly resuming mid-flight) and return its row.

    Args:
        spec: The session to run.
        snapshot: A prior :func:`snapshot_row` of the same session to resume
            from; ``None`` starts fresh.
        checkpoint: Called with a :func:`snapshot_row` after every
            ``checkpoint_every`` completed instances (and never for the final
            instance, whose completion is recorded by the session row itself).
        checkpoint_every: Checkpoint cadence in instances.

    Returns:
        The canonical session row.  Whether the session ran uninterrupted or
        was resumed from any snapshot, the row is byte-identical — the
        property the chaos harness pins down end to end.

    Raises:
        ProtocolError: if ``snapshot`` was written by a session with any
            other spec field (:func:`snapshot_belongs_to`) or is inconsistent
            in itself.
    """
    inputs = spec.inputs()
    graph = warm_graph(spec.topology, spec.source, spec.max_faults)
    nab = NetworkAwareBroadcast(
        graph,
        spec.source,
        spec.max_faults,
        fault_model=spec.fault_model(),
        coding_seed=spec.seed,
        validate_connectivity=False,
    )
    results: List[InstanceResult] = []
    pending: List[bytes] = list(inputs)
    if snapshot is not None:
        if not snapshot_belongs_to(spec, snapshot):
            raise ProtocolError(
                f"snapshot of session {snapshot.get('session_id')!r} was not "
                f"written by {spec.session_id!r} as specified now"
            )
        nab.restore_state(dict(snapshot["state"]))
        results = [
            instance_result_from_jsonable(data) for data in snapshot["results"]
        ]
        if nab.instances_run != len(results):
            raise ProtocolError(
                f"snapshot of {spec.session_id!r} is inconsistent: state says "
                f"{nab.instances_run} instance(s) ran, {len(results)} result(s) stored"
            )
        pending = [bytes.fromhex(value) for value in snapshot["pending_inputs"]]
    since_checkpoint = 0
    while pending:
        value = pending.pop(0)
        results.append(nab.run_instance(value))
        since_checkpoint += 1
        if pending and checkpoint is not None and since_checkpoint >= checkpoint_every:
            checkpoint(snapshot_row(spec, nab, results, pending))
            since_checkpoint = 0
    total_elapsed = sum((result.elapsed for result in results), Fraction(0))
    total_bits = sum(result.bits_sent for result in results)
    if total_elapsed > 0:
        payload_bits = sum(8 * len(value) for value in inputs)
        throughput: Fraction | None = Fraction(payload_bits) / total_elapsed
    else:
        throughput = None
    run = NABRunResult(
        instances=tuple(results),
        total_elapsed=total_elapsed,
        total_bits=total_bits,
        throughput=throughput,
        dispute_control_executions=sum(
            1 for result in results if result.dispute_control_ran
        ),
    )
    return session_row(spec, run, inputs)
