"""The execution substrate under the sweep runner, the session service and
the adversarial search: durable files, one result journal, one supervised pool.

The repo's evidence is long runs of many deterministic tasks whose rows must
come out byte-identical however often a worker or the driver is killed.  What
guarantees that lives here, once:

* **Durable files.**  :func:`dump_row` (the canonical row serialisation),
  :func:`write_atomically` (the only tmp + fsync + rename writer) and
  :func:`read_jsonl` (the only reader — tolerant, because a kill can tear the
  last line of anything a run appends to).
* :class:`Journal` — ``<out>.jsonl`` and ``<out>.quarantine.jsonl`` of a run
  whose tasks have string keys: resume by key, rewrite before appending to a
  torn file, flushed appends, canonical-order compaction, and the quarantine
  file's write / vindicate / report-stale rules.
* :func:`run_tasks` — the supervised pool.  Each worker owns a private duplex
  pipe and answers a request with zero or more ``("event", payload)``
  messages and one ``("done", result)``; a ``None`` request is the shutdown
  signal.  The protocol being strictly request/response, a pipe at EOF names
  exactly one in-flight task, which is retried on a fresh worker after
  ``backoff * 2**k`` seconds and handed back dead once its budget is spent.
  A sweep cell is the degenerate task (no events); a session streams its
  checkpoints as events.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

# ------------------------------------------------------------ durable files


def dump_row(row: Dict[str, object]) -> str:
    """The canonical one-line JSON serialisation of a row."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def write_atomically(path: str, chunks: Iterable[str]) -> None:
    """Replace ``path`` with the concatenated ``chunks``, crash-safely.

    The temp file is fully written and fsynced before the atomic rename, so a
    kill at any instant leaves either the old file or the complete new one —
    never a truncated mix; a failed write removes its temp file instead of
    leaving it to shadow the next attempt.
    """
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            for chunk in chunks:
                tmp.write(chunk)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # Persist the rename itself (best effort: not every filesystem supports
    # fsync on a directory handle).
    try:
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def write_rows_atomically(path: str, rows: Iterable[Dict[str, object]]) -> None:
    """Replace ``path`` with one canonical JSON line per row, crash-safely.

    The one serialisation behind every rewrite and compaction, so a resumed
    file can never diverge from a fresh one byte for byte.
    """
    write_atomically(path, (dump_row(row) + "\n" for row in rows))


def read_jsonl(path: str) -> Tuple[List[Dict[str, object]], int]:
    """Every JSON object of a JSONL file, plus the count of unusable lines.

    Blank lines are skipped; truncated tails, garbage, undecodable bytes and
    JSON that is not an object are counted, never fatal.  A missing file is
    an empty one.
    """
    rows: List[Dict[str, object]] = []
    malformed = 0
    try:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return rows, malformed
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            if isinstance(row, dict):
                rows.append(row)
            else:
                malformed += 1
    return rows, malformed


def discard_file(path: str) -> None:
    """Remove ``path`` if it is there."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def quarantine_path_for(out_path: str) -> str:
    """The quarantine file next to an output file."""
    return out_path + ".quarantine.jsonl"


# ------------------------------------------------------------------ journal


class Journal:
    """The result file of one resumable run, and its quarantine file.

    Resuming reads the existing file back: a row is reused iff it is well
    formed, its key belongs to this run, it carries that key's stamp and it
    recorded no error (a transient failure is retried rather than frozen in);
    every other line is counted in :attr:`discarded`.  Not resuming ignores
    the file and removes a leftover quarantine file with it.

    As a context manager around the execution phase it first rewrites the
    file down to the reused rows — so a new row never glues onto a torn line
    or a tail that lost its newline — then opens it for flushed appends, and
    closes it.  :meth:`settle` then compacts into canonical order: fresh and
    killed-and-resumed runs persist identical bytes.

    Args:
        path: ``<out>.jsonl``, or ``None`` to keep the rows in memory only.
        key: The row field holding the task key (``"cell_id"``).
        expected: This run's task keys in canonical order, each with its
            stamp: the fields (schema, owner, seed) a reusable row must equal.
        resume: Reuse rows of an existing file.

    Attributes:
        completed: Rows reused from the existing file, by key.
        computed: Rows appended this run, by key.
        discarded: Lines of the existing file that were not reused.
        quarantine_path: The quarantine file :meth:`settle` wrote or kept.
        stale_quarantined: Tasks a prior run quarantined that are still
            without a row after :meth:`settle`.
    """

    def __init__(
        self,
        path: Optional[str],
        key: str,
        expected: Dict[str, Dict[str, object]],
        resume: bool = True,
    ) -> None:
        self.path = path
        self._key = key
        self._order = list(expected)
        self._handle = None
        self.completed: Dict[str, Dict[str, object]] = {}
        self.computed: Dict[str, Dict[str, object]] = {}
        self.discarded = 0
        self.quarantine_path: Optional[str] = None
        self.stale_quarantined = 0
        if not path:
            return
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        if not resume:
            discard_file(quarantine_path_for(path))
            return
        rows, self.discarded = read_jsonl(path)
        for row in rows:
            name = row.get(key)
            stamp = expected.get(name) if isinstance(name, str) else None
            if (
                stamp is not None
                and row.get("error") is None
                and all(row.get(stamped) == value for stamped, value in stamp.items())
            ):
                self.completed[name] = row
            else:
                self.discarded += 1

    def _in_order(self, rows: Dict[str, Dict[str, object]]) -> List[Dict[str, object]]:
        return [rows[name] for name in self._order if name in rows]

    def __enter__(self) -> "Journal":
        if self.path:
            if self.completed:
                write_rows_atomically(self.path, self._in_order(self.completed))
            self._handle = open(self.path, "a" if self.completed else "w", encoding="utf-8")
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def append(self, row: Dict[str, object]) -> None:
        """Record a freshly computed row (written and flushed at once)."""
        self.computed[row[self._key]] = row
        if self._handle is not None:
            self._handle.write(dump_row(row) + "\n")
            self._handle.flush()

    def settle(self, quarantined: Sequence[Dict[str, object]] = ()) -> List[Dict[str, object]]:
        """Compact the file, settle the quarantine file, return every row.

        ``quarantined`` (this run's dead tasks) replaces the quarantine file.
        Without any, a file left by a prior run is settled: tasks it names
        that now have a row are vindicated and, if all are, it is removed;
        otherwise it stays and :attr:`stale_quarantined` counts what is still
        missing — unreadable lines included: a corrupt quarantine file is
        worth reporting, not deleting.
        """
        available = {**self.completed, **self.computed}
        rows = self._in_order(available)
        if not self.path:
            return rows
        write_rows_atomically(self.path, rows)
        candidate = quarantine_path_for(self.path)
        if quarantined:
            write_rows_atomically(candidate, quarantined)
            self.quarantine_path = candidate
        else:
            named, unreadable = read_jsonl(candidate)
            settled = sum(
                1 for row in named
                if isinstance(row.get(self._key), str) and row[self._key] in available
            )
            self.stale_quarantined = unreadable + len(named) - settled
            if self.stale_quarantined:
                self.quarantine_path = candidate
            else:
                discard_file(candidate)
        return rows


# --------------------------------------------------------------------- pool

#: Verdicts of an ``admit`` policy: take the task, ask again once something
#: has finished, or discard it (the policy has recorded why).
ADMIT, HOLD, DROP = "admit", "hold", "drop"

#: Admitted tasks that may wait for a worker, per worker; offering stops
#: there, so an ``admit`` policy always judges a task against current load.
QUEUE_DEPTH = 32

#: Seconds a worker gets to exit after the shutdown signal before SIGTERM.
SHUTDOWN_GRACE = 5


@dataclass
class Task:
    """One unit of work on its way through :func:`run_tasks`.

    Attributes:
        request: What the handler receives (pickled through the pipe; never
            ``None``).  The caller may replace it from ``on_event``: a crash
            retry sends whatever it holds then, which is how a session
            resumes from its latest checkpoint.
        attempts: Worker deaths charged to this task.
        exitcodes: Exit code of each of those workers (``-9`` is SIGKILL).
        admitted_at: ``perf_counter`` reading at admission.
        not_before: ``perf_counter`` reading its next dispatch waits for —
            the retry clock.
    """

    request: object = None
    attempts: int = 0
    exitcodes: List[Optional[int]] = field(default_factory=list)
    admitted_at: float = 0.0
    not_before: float = 0.0


def crash_evidence(task: Task, what: str) -> Dict[str, object]:
    """What a quarantine row says about a dead task, next to its identity."""
    return {
        "attempts": task.attempts,
        "worker_exitcodes": list(task.exitcodes),
        "error": (
            f"WorkerCrash: worker process died {task.attempts} time(s) "
            f"executing this {what}"
        ),
    }


class PoolOutcome(NamedTuple):
    """What :func:`run_tasks` reports beyond its callbacks."""

    #: Tasks abandoned after exhausting their retry budget.
    dead: List[Task]
    #: Distinct tasks re-executed after a worker death.
    retried: int
    #: Supervisor passes in which offering stopped (``HOLD`` or a full queue)
    #: behind unfinished work — the backpressure count.
    holds: int
    #: What each surviving worker's ``farewell`` returned.
    farewells: List[object]


def _worker_main(conn, handler, farewell) -> None:
    """Worker child: answer requests off ``conn`` until told to stop."""

    def emit(payload: object) -> None:
        conn.send(("event", payload))

    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                return
            if request is None:
                if farewell is not None:
                    try:
                        conn.send(("farewell", farewell()))
                    except (OSError, ValueError):
                        pass
                return
            conn.send(("done", handler(request, emit)))
    finally:
        conn.close()


def run_tasks(
    tasks: Sequence[Task],
    workers: int,
    handler: Callable[[object, Callable[[object], None]], object],
    on_done: Callable[[Task, object], None],
    on_event: Optional[Callable[[Task, object], None]] = None,
    retries: int = 2,
    backoff: float = 0.5,
    admit: Optional[Callable[[Task, int], str]] = None,
    on_retry: Optional[Callable[[Task], None]] = None,
    farewell: Optional[Callable[[], object]] = None,
) -> PoolOutcome:
    """Run every task's request through ``handler`` on supervised workers.

    Args:
        tasks: The work, in offering order.
        workers: Worker processes; ``<= 1`` runs the handler in this process
            (no crash isolation, no queue: every task is admitted in turn).
        handler: ``handler(request, emit) -> result``, executed in a worker;
            ``emit(payload)`` streams an event to the supervisor.  It is
            inherited through ``fork``, so whatever it looks up at call time
            (a protocol registry, a module attribute) is what the parent held
            when the worker started.
        on_done: Called with each finished task and its result.
        on_event: Called with each event, before the task's ``on_done`` and
            in the order emitted.  All callbacks run in the calling thread.
        retries: Worker deaths a task survives; one more and it is dead.
        backoff: Seconds before a crashed task's first retry, doubled per
            further death; ``0`` retries at once.  The wait belongs to the
            task: other tasks keep running through it.
        admit: ``admit(task, unfinished) -> ADMIT | HOLD | DROP``, asked once
            per task with the number of admitted tasks not yet finished;
            ``None`` admits everything.
        on_retry: Called with a crashed task when it is queued again.
        farewell: Run in each worker at shutdown; the results are returned.

    Raises:
        ConfigurationError: if ``admit`` holds a task while nothing is
            admitted — waiting could never end.
    """
    if on_event is None:
        on_event = lambda task, payload: None  # noqa: E731
    if workers <= 1:
        for task in tasks:
            task.admitted_at = time.perf_counter()
            result = handler(task.request, lambda payload, task=task: on_event(task, payload))
            on_done(task, result)
        return PoolOutcome([], 0, 0, [])

    ctx = multiprocessing.get_context()
    offered: Deque[Task] = deque(tasks)
    ready: Deque[Task] = deque()
    delayed: List[Task] = []
    processes: Dict[object, object] = {}
    idle: List[object] = []
    busy: Dict[object, Task] = {}
    dead: List[Task] = []
    farewells: List[object] = []
    retried = holds = 0

    def spawn():
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main, args=(child_conn, handler, farewell), daemon=True
        )
        process.start()
        child_conn.close()
        processes[parent_conn] = process
        return parent_conn

    def reap(conn) -> Optional[int]:
        process = processes.pop(conn)
        conn.close()
        process.join()
        return process.exitcode

    try:
        while offered or ready or delayed or busy:
            held = False
            while offered and not held:
                unfinished = len(ready) + len(delayed) + len(busy)
                if len(ready) >= QUEUE_DEPTH * workers:
                    verdict = HOLD
                else:
                    verdict = admit(offered[0], unfinished) if admit else ADMIT
                if verdict == HOLD:
                    if not unfinished:
                        raise ConfigurationError(
                            "admission held a task while nothing was running"
                        )
                    held = True
                    continue
                task = offered.popleft()
                if verdict == ADMIT:
                    task.admitted_at = time.perf_counter()
                    ready.append(task)
            if held:
                holds += 1
            now = time.perf_counter()
            for task in [task for task in delayed if task.not_before <= now]:
                delayed.remove(task)
                ready.append(task)
            while ready and (idle or len(processes) < workers):
                conn = idle.pop() if idle else spawn()
                try:
                    conn.send(ready[0].request)
                except (OSError, ValueError):
                    # The worker died while idle: the task was never
                    # attempted, so it keeps its place and is charged nothing.
                    reap(conn)
                    continue
                busy[conn] = ready.popleft()
            wait = None
            if delayed:
                wait = max(0.0, min(task.not_before for task in delayed) - now)
            if not busy:
                # Nothing is running, so nothing can arrive: sleeping through
                # the backoff delays no one.
                time.sleep(wait or 0.0)
                continue
            for conn in multiprocessing.connection.wait(list(busy), wait):
                task = busy[conn]
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    # Death mid-task (OOM kill, SIGKILL, segfault).
                    del busy[conn]
                    task.attempts += 1
                    task.exitcodes.append(reap(conn))
                    if task.attempts > retries:
                        dead.append(task)
                        continue
                    if task.attempts == 1:
                        retried += 1
                    task.not_before = time.perf_counter() + backoff * 2 ** (task.attempts - 1)
                    delayed.append(task)
                    if on_retry is not None:
                        on_retry(task)
                    continue
                if kind == "event":
                    on_event(task, payload)
                    continue
                del busy[conn]
                idle.append(conn)
                on_done(task, payload)
    finally:
        for conn, process in list(processes.items()):
            try:
                conn.send(None)
                if farewell is not None and conn.poll(SHUTDOWN_GRACE):
                    kind, payload = conn.recv()
                    if kind == "farewell":
                        farewells.append(payload)
            except (OSError, ValueError, EOFError):
                pass
            conn.close()
            process.join(timeout=SHUTDOWN_GRACE)
            if process.is_alive():
                process.terminate()
                process.join()
    return PoolOutcome(dead, retried, holds, farewells)
