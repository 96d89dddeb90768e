"""One broadcast session: a cell the service runs, checkpoints and resumes.

A :class:`SessionSpec` — ``Q`` NAB instances on one topology under one
adversary — is a sequential ``nab`` cell (:meth:`SessionSpec.cell`) and runs
through the engine's one path, :func:`repro.engine.runner.run_cell_record`,
on the cell's warm graph (:func:`repro.engine.spec.warm_graph`, re-exported
here).  A session row is a view of that record: the session identity,
``record`` and ``error``, with no analytical ``bounds``.

Executing a session is a pure function of the spec, which is what makes
checkpoint/restore exact: the snapshot taken after instance ``k`` plus the
spec determines instances ``k+1 .. Q-1`` bit for bit, so a resumed session's
final row equals the uninterrupted run's byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.nab import parse_checkpoint
from repro.engine.runner import run_cell_record
from repro.engine.spec import (  # noqa: F401 - the warm contexts are re-exported
    Cell,
    topology_context_stats,
    warm_graph,
)
from repro.exceptions import ProtocolError
from repro.types import NodeId, RunRecord

#: Version stamp of the persisted session-row and snapshot-row layouts; bump
#: on breaking changes so resume never mixes incompatible rows.
SESSION_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines one broadcast session.

    Attributes:
        service: Name of the owning service run (partitions output files).
        session_id: Unique, stable identity within the service run.
        topology: Registered topology name.
        strategy: Adversary strategy name, or
            :data:`repro.engine.spec.FAULT_FREE`.
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

    def cell(self) -> Cell:
        """This session as an engine cell (sequential ``nab``, base model)."""
        return Cell(
            spec_name=self.service,
            cell_id=self.session_id,
            topology=self.topology,
            strategy=self.strategy,
            payload_bytes=self.payload_bytes,
            instances=self.instances,
            max_faults=self.max_faults,
            protocol="nab",
            source=self.source,
            seed=self.seed,
            faulty_nodes=self.faulty_nodes,
        )

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


def snapshot_row(spec: SessionSpec, snapshot: Dict[str, object]) -> Dict[str, object]:
    """The WAL row of a session checkpoint: the session identity plus the
    run's state as :meth:`repro.core.nab.NetworkAwareBroadcast.run` hands it
    to its hook — everything a fresh process needs to finish the session."""
    row: Dict[str, object] = {"kind": "snapshot", "schema": SESSION_SCHEMA_VERSION}
    row.update(spec.to_jsonable())
    row.update(snapshot)
    return row


def snapshot_belongs_to(spec: SessionSpec, snapshot: Dict[str, object]) -> bool:
    """Whether ``snapshot`` is a resume point of exactly this session.

    A session id names neither the seed nor the payload size, instance count,
    ``f`` or faulty set, so every spec field is compared: state restored from
    a session that merely shares the id would yield a row no run of ``spec``
    produces.  The pending inputs must also be the spec's own inputs after
    the stored results, and the state and results must parse
    (:func:`repro.core.nab.parse_checkpoint`) — a snapshot of an older
    layout does not.
    """
    if not all(snapshot.get(name) == value for name, value in spec.to_jsonable().items()):
        return False
    results, pending = snapshot.get("results"), snapshot.get("pending_inputs")
    if not isinstance(results, list) or not isinstance(pending, list):
        return False
    if len(results) + len(pending) != spec.instances:
        return False
    if pending != [value.hex() for value in spec.cell().inputs()[len(results):]]:
        return False
    try:
        parse_checkpoint(snapshot, spec.max_faults, spec.instances)
    except ProtocolError:
        return False
    return True


def session_row(
    spec: SessionSpec, record: Optional[RunRecord], error: Optional[str] = None
) -> Dict[str, object]:
    """The canonical output row of one session, completed or failed.

    Deterministic (no timestamps, no host information), so fresh and resumed
    service runs persist byte-identical files.
    """
    row: Dict[str, object] = {"schema": SESSION_SCHEMA_VERSION}
    row.update(spec.to_jsonable())
    row["record"] = None if record is None else record.to_jsonable()
    row["error"] = error
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
        ProtocolError: if ``snapshot`` is not a resume point of this session
            as specified now (:func:`snapshot_belongs_to`): written by another
            session, malformed, or inconsistent in itself.
    """
    if snapshot is not None and not snapshot_belongs_to(spec, snapshot):
        raise ProtocolError(
            f"snapshot of session {snapshot.get('session_id')!r} is not a "
            f"resume point of {spec.session_id!r} as specified now"
        )
    hook = None
    if checkpoint is not None:
        since_checkpoint = 0

        def hook(state: Dict[str, object]) -> None:
            nonlocal since_checkpoint
            since_checkpoint += 1
            if since_checkpoint >= checkpoint_every:
                checkpoint(snapshot_row(spec, state))
                since_checkpoint = 0

    return session_row(spec, run_cell_record(spec.cell(), snapshot, hook))
