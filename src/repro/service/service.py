"""The session-service orchestrator: resume, run, compact, report.

:class:`BroadcastSessionService` ties the pieces together.  A run:

1. **Resumes** from the output file (:class:`repro.exec.Journal`, the engine
   runner's contract: well-formed, schema-matching, error-free rows keyed by
   session id are reused) and from the write-ahead log (the latest snapshot
   written by an in-flight session *as submitted now* becomes its resume
   point; shed notices stay sticky).
2. **Executes** the pending sessions on the supervised pool
   (:func:`repro.service.pool.run_pool`), streaming one JSONL row per
   completed session to the output file and every checkpoint to the WAL.
3. **Settles**: the journal compacts the output into canonical submission
   order and settles the quarantine file, the WAL is cut down to its shed
   notices (snapshots of settled sessions are obsolete), and the ops metrics
   are persisted to ``<out>.status.json``.

Because session rows are pure functions of their spec and checkpoints restore
exactly, a run that was SIGKILLed anywhere — worker, driver, mid-write — and
rerun with the same arguments produces a byte-identical output file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.exec import (
    Journal,
    discard_file,
    write_atomically,
    write_rows_atomically,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pool import AdmissionController, PoolTask, run_pool
from repro.service.session import SESSION_SCHEMA_VERSION, SessionSpec, snapshot_belongs_to
from repro.service.wal import WriteAheadLog, load_wal


@dataclass(frozen=True)
class ServiceConfig:
    """Operating parameters of one service run.

    Attributes:
        name: Service name; rows from other services are never reused.
        out_path: The sessions JSONL file (WAL, quarantine and status files
            live next to it as ``<out>.wal.jsonl``, ``<out>.quarantine.jsonl``
            and ``<out>.status.json``).
        workers: Pool size; ``1`` runs serially in-process.
        checkpoint_every: Instances between WAL checkpoints within a session.
        fsync_every: WAL fsync cadence (1 = every checkpoint).
        max_session_retries: Crash-retry budget per session.
        retry_backoff: Base seconds of the crash-retry exponential backoff.
        admission_seed: Seed of the deterministic shed lattice.
        shed_soft_limit: Level of admitted, unfinished sessions where
            shedding starts (``None`` disables it — the byte-identity
            configuration).
        shed_hard_limit: Level where the dispatcher backpressures instead of
            admitting.
    """

    name: str = "service"
    out_path: Optional[str] = None
    workers: int = 1
    checkpoint_every: int = 1
    fsync_every: int = 1
    max_session_retries: int = 2
    retry_backoff: float = 0.5
    admission_seed: int = 0
    shed_soft_limit: Optional[int] = None
    shed_hard_limit: int = 1 << 30


@dataclass(frozen=True)
class ServiceSummary:
    """Outcome of one :meth:`BroadcastSessionService.run` invocation.

    Attributes:
        service: The service name.
        rows: All session rows available at the end, in submission order.
        computed_sessions: Sessions actually executed this run.
        skipped_sessions: Rows reused from the existing output file.
        shed_sessions: Sessions refused by load shedding (absent from
            ``rows``; their notices live in the WAL).
        total_sessions: Size of the submitted workload.
        out_path: The output file, or ``None`` for in-memory runs.
        discarded_rows: Output/WAL lines dropped during resume.
        retried_sessions: Distinct sessions retried after worker deaths.
        quarantined_sessions: Sessions abandoned after the retry budget.
        quarantine_path: The quarantine file, or ``None`` when empty.
        stale_quarantined_sessions: Sessions a *prior* run quarantined that
            this run neither completed nor re-quarantined — the file is left
            in place and must not be silently ignored.
        status_path: The persisted ops-metrics file, or ``None``.
        metrics: The run's ops counters.
    """

    service: str
    rows: List[Dict[str, object]]
    computed_sessions: int
    skipped_sessions: int
    shed_sessions: int
    total_sessions: int
    out_path: Optional[str]
    discarded_rows: int = 0
    retried_sessions: int = 0
    quarantined_sessions: int = 0
    quarantine_path: Optional[str] = None
    stale_quarantined_sessions: int = 0
    status_path: Optional[str] = None
    metrics: ServiceMetrics = field(default_factory=ServiceMetrics)


def wal_path_for(out_path: str) -> str:
    """The write-ahead log next to an output file."""
    return out_path + ".wal.jsonl"


def status_path_for(out_path: str) -> str:
    """The ops-metrics file next to an output file."""
    return out_path + ".status.json"


def _shed_notice(spec: SessionSpec) -> Dict[str, object]:
    """The WAL row that keeps a shed session shed across resumes."""
    notice: Dict[str, object] = {"kind": "shed", "schema": SESSION_SCHEMA_VERSION}
    notice.update(spec.to_jsonable())
    return notice


class BroadcastSessionService:
    """A resumable, crash-tolerant run of many broadcast sessions."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config

    def run(
        self, sessions: Sequence[SessionSpec], resume: bool = True
    ) -> ServiceSummary:
        """Run (or resume) the workload; one canonical JSONL row per session.

        Args:
            sessions: The workload, in submission order (the canonical order
                of the compacted output file).
            resume: Reuse completed rows and WAL snapshots from a prior run.
                ``False`` ignores and overwrites any existing files.

        Returns:
            A :class:`ServiceSummary`; when the run settled every session,
            ``rows`` matches the persisted file line for line.
        """
        config = self.config
        metrics = ServiceMetrics()
        metrics.sessions_submitted = len(sessions)
        out_path = config.out_path
        journal = Journal(
            out_path,
            "session_id",
            {
                spec.session_id: {
                    "schema": SESSION_SCHEMA_VERSION,
                    "service": config.name,
                    "seed": spec.seed,
                }
                for spec in sessions
            },
            resume,
        )
        discarded = journal.discarded
        wal_path = wal_path_for(out_path) if out_path else None
        snapshots: Dict[str, Dict[str, object]] = {}
        shed_ids: Set[str] = set()
        if wal_path and resume:
            snapshots, shed_ids, wal_discarded = load_wal(wal_path, schema=SESSION_SCHEMA_VERSION)
            discarded += wal_discarded
        elif wal_path:
            discard_file(wal_path)
        metrics.sessions_resumed_from_output = len(journal.completed)
        metrics.sessions_shed = len(shed_ids)

        tasks: List[PoolTask] = []
        for spec in sessions:
            if spec.session_id in journal.completed or spec.session_id in shed_ids:
                continue
            snapshot = snapshots.get(spec.session_id)
            if snapshot is not None and not snapshot_belongs_to(spec, snapshot):
                # Left by a run with another seed, size, f or faulty set under
                # the same id: not a resume point for this session.
                snapshot = None
                discarded += 1
            if snapshot is not None:
                metrics.sessions_restored += 1
            tasks.append(PoolTask(spec=spec, snapshot=snapshot))

        wal = WriteAheadLog(wal_path, fsync_every=config.fsync_every) if wal_path else None

        def wal_append(row: Dict[str, object]) -> None:
            if wal is not None:
                wal.append(row)

        def on_shed(spec: SessionSpec) -> None:
            shed_ids.add(spec.session_id)
            wal_append(_shed_notice(spec))

        try:
            with journal:
                retried, quarantine_rows = run_pool(
                    tasks,
                    workers=config.workers,
                    emit=lambda row, task: journal.append(row),
                    wal_append=wal_append,
                    metrics=metrics,
                    checkpoint_every=config.checkpoint_every,
                    max_session_retries=config.max_session_retries,
                    retry_backoff=config.retry_backoff,
                    admission=AdmissionController(
                        seed=config.admission_seed,
                        soft_limit=config.shed_soft_limit,
                        hard_limit=config.shed_hard_limit,
                    ),
                    on_shed=on_shed,
                )
        finally:
            if wal is not None:
                wal.close()

        rows = journal.settle(quarantine_rows)
        status_path = None
        if out_path:
            # Settle the WAL: snapshots of settled sessions are obsolete;
            # shed notices survive so shed decisions stay sticky.
            if shed_ids:
                write_rows_atomically(
                    wal_path,
                    [_shed_notice(spec) for spec in sessions if spec.session_id in shed_ids],
                )
            else:
                discard_file(wal_path)
            status_path = status_path_for(out_path)
            status = {
                "service": config.name,
                "out_path": out_path,
                "total_sessions": len(sessions),
                "settled_sessions": len(rows),
                "quarantine_path": journal.quarantine_path,
                "stale_quarantined_sessions": journal.stale_quarantined,
                "metrics": metrics.to_jsonable(),
            }
            write_atomically(
                status_path, [json.dumps(status, indent=2, sort_keys=True), "\n"]
            )

        return ServiceSummary(
            service=config.name,
            rows=rows,
            computed_sessions=len(journal.computed),
            skipped_sessions=len(journal.completed),
            shed_sessions=len(shed_ids),
            total_sessions=len(sessions),
            out_path=out_path,
            discarded_rows=discarded,
            retried_sessions=retried,
            quarantined_sessions=len(quarantine_rows),
            quarantine_path=journal.quarantine_path,
            stale_quarantined_sessions=journal.stale_quarantined,
            status_path=status_path,
            metrics=metrics,
        )
