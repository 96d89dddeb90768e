"""The session pool: admission policy and session tasks over :mod:`repro.exec`.

The supervision itself — persistent workers on private pipes, a death
attributed to exactly one in-flight session, retry with backoff, quarantine —
is :func:`repro.exec.run_tasks`.  This module adds what is the service's own:

* **Sessions as tasks.**  A worker streams a session's checkpoint rows as
  events before its final row; the supervisor appends each to the write-ahead
  log and swaps it into the task's request, so a worker SIGKILLed mid-session
  leaves its latest checkpoint durable and the retry resumes from it instead
  of starting over.  Workers serve many sessions and keep their topology
  contexts and budgeted kernel / structure caches warm across them — the
  latency win a long-running service exists for.
* **Graceful degradation.**  Idle workers pull from one admitted queue.  The
  :class:`AdmissionController` is consulted once per offered session with the
  number of admitted sessions not yet finished: at the hard limit it holds
  (a backpressure counter records it); in the soft band it sheds
  *deterministically* — a SHA-256 lattice point derived from the session id
  decides, so which sessions are sheddable is a pure function of identity,
  not of scheduling noise.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import ADMIT, DROP, HOLD, Task, crash_evidence, run_tasks
from repro.service.metrics import ServiceMetrics, process_cache_sample
from repro.service.session import SESSION_SCHEMA_VERSION, SessionSpec, run_session, session_row

#: Resolution of the admission lattice: the shed decision quantises the
#: overload fraction to ``1 / ADMISSION_STEPS`` (same grid as the link-fault
#: lattice, so rates that are lattice multiples are realised exactly).
ADMISSION_STEPS = 1 << 16


def admission_point(seed: int, session_id: str) -> Fraction:
    """The session's fixed lattice point in ``[0, 1)`` for shed decisions.

    Deterministic per ``(seed, session_id)``: a session keeps the same shed
    priority however often it is offered, and two runs of the same workload
    agree on which sessions are shed at any given overload level.
    """
    digest = hashlib.sha256(f"admission|{seed}|{session_id}".encode()).digest()
    return Fraction(int.from_bytes(digest[:4], "big") % ADMISSION_STEPS, ADMISSION_STEPS)


@dataclass(frozen=True)
class AdmissionController:
    """Deterministic seeded-lattice load shedding over a soft/hard band.

    Below ``soft_limit`` queued sessions everything is admitted.  Between the
    limits, the shed fraction ramps linearly from 0 to 1: a session is shed
    iff its :func:`admission_point` falls below the ramp.  At or above
    ``hard_limit`` the dispatcher stops offering (backpressure) rather than
    shedding blindly, so the hard bound is never exceeded.

    ``soft_limit=None`` disables shedding entirely — the configuration the
    byte-identity paths (chaos harness, benchmarks) run with.
    """

    seed: int = 0
    soft_limit: Optional[int] = None
    hard_limit: int = 1 << 30

    def shed_fraction(self, queued: int) -> Fraction:
        """How much of the lattice is shed at ``queued`` enqueued sessions."""
        if self.soft_limit is None or queued < self.soft_limit:
            return Fraction(0)
        if queued >= self.hard_limit or self.hard_limit <= self.soft_limit:
            return Fraction(1)
        return Fraction(queued - self.soft_limit, self.hard_limit - self.soft_limit)

    def admits(self, session_id: str, queued: int) -> bool:
        """Whether to admit ``session_id`` with ``queued`` sessions enqueued."""
        fraction = self.shed_fraction(queued)
        if fraction == 0:
            return True
        return admission_point(self.seed, session_id) >= fraction


@dataclass
class PoolTask(Task):
    """One session's journey through the pool.

    ``request`` is ``(spec, snapshot)``: the session and the resume point its
    next attempt starts from (``None`` starts it fresh).
    """

    spec: Optional[SessionSpec] = None
    snapshot: InitVar[Optional[Dict[str, object]]] = None

    def __post_init__(self, snapshot: Optional[Dict[str, object]]) -> None:
        self.request = (self.spec, snapshot)


def execute_session(
    checkpoint_every: int,
    request: Tuple[SessionSpec, Optional[Dict[str, object]]],
    checkpoint: Callable[[Dict[str, object]], None],
) -> Dict[str, object]:
    """The pool's handler: run one session, its checkpoints streamed as events.

    Only process death is a pool-level event; a session that raises (bad
    topology, protocol violation) yields a row with its ``error`` field set,
    exactly like the engine runner's cells, so the pool keeps draining.
    """
    spec, snapshot = request
    try:
        return run_session(
            spec,
            snapshot=snapshot,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
        )
    except Exception as exc:  # noqa: BLE001 - services must survive bad sessions
        return session_row(spec, None, f"{type(exc).__name__}: {exc}")


def run_pool(
    tasks: Sequence[PoolTask],
    workers: int,
    emit: Callable[[Dict[str, object], PoolTask], None],
    wal_append: Callable[[Dict[str, object]], None],
    metrics: ServiceMetrics,
    checkpoint_every: int = 1,
    max_session_retries: int = 2,
    retry_backoff: float = 0.5,
    admission: Optional[AdmissionController] = None,
    on_shed: Optional[Callable[[SessionSpec], None]] = None,
) -> Tuple[int, List[Dict[str, object]]]:
    """Drain ``tasks`` through the supervised persistent-worker pool.

    Args:
        tasks: The sessions to run (with any resume snapshots attached).
        workers: Pool size; ``<= 1`` runs serially in-process (checkpoints
            still stream to the WAL, so a killed *driver* resumes too; with
            no queue there is nothing to shed).
        emit: Called with each completed row and its task (single-threaded).
        wal_append: Called with each streamed snapshot row (single-threaded).
        metrics: Counters updated in place.
        checkpoint_every: Instances between checkpoints within a session.
        max_session_retries: Crash-retry budget per session before quarantine.
        retry_backoff: Base seconds before a crashed session's retry
            (doubled per subsequent crash); ``0`` retries immediately.
        admission: Load-shedding policy; ``None`` admits everything.
        on_shed: Called with each shed session's spec.

    Returns:
        ``(retried_session_count, quarantine_rows)``.
    """
    if admission is None:
        admission = AdmissionController()
    started = time.perf_counter()

    def admit(task: PoolTask, unfinished: int) -> str:
        if unfinished >= admission.hard_limit:
            return HOLD
        if admission.admits(task.spec.session_id, unfinished):
            return ADMIT
        metrics.sessions_shed += 1
        if on_shed is not None:
            on_shed(task.spec)
        return DROP

    def on_event(task: PoolTask, snapshot: Dict[str, object]) -> None:
        # The streamed checkpoint is strictly newer than anything loaded from
        # the WAL: it is what a crash retry of this session resumes from.
        task.request = (task.spec, snapshot)
        wal_append(snapshot)
        metrics.snapshots_written += 1

    def on_retry(task: PoolTask) -> None:
        if task.request[1] is not None:
            metrics.sessions_restored += 1

    def on_done(task: PoolTask, row: Dict[str, object]) -> None:
        metrics.record_latency(time.perf_counter() - task.admitted_at)
        metrics.sessions_completed += 1
        if row.get("error") is not None:
            metrics.sessions_failed += 1
        else:
            metrics.instances_executed += task.spec.instances
        emit(row, task)

    outcome = run_tasks(
        tasks,
        workers,
        functools.partial(execute_session, checkpoint_every),
        on_done,
        on_event,
        retries=max_session_retries,
        backoff=retry_backoff,
        admit=admit,
        on_retry=on_retry,
        farewell=process_cache_sample,
    )
    metrics.sessions_retried = outcome.retried
    metrics.sessions_quarantined = len(outcome.dead)
    metrics.backpressure_waits = outcome.holds
    metrics.cache_stats = process_cache_sample()
    if workers > 1:
        metrics.cache_stats["workers"] = outcome.farewells
    metrics.wall_seconds = time.perf_counter() - started
    return outcome.retried, [
        {
            "schema": SESSION_SCHEMA_VERSION,
            **task.spec.to_jsonable(),
            **crash_evidence(task, "session"),
        }
        for task in outcome.dead
    ]
