"""The service's crash-safe write-ahead log.

Checkpoints (and shed notices) are appended as one canonical JSON line each
(:func:`repro.exec.dump_row`) with a configurable fsync cadence, so a SIGKILL
at any instant loses at most the un-fsynced tail and never corrupts earlier
rows.  Loading tolerates exactly that tail (:func:`repro.exec.read_jsonl`):
malformed or truncated lines are counted and dropped, never fatal.

The latest snapshot per session wins (the log is append-only, so later lines
supersede earlier ones), mirroring how the journal keeps the last well-formed
row per key.  Full-file replacement is :func:`repro.exec.write_atomically`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Set, Tuple

from repro.exec import dump_row, read_jsonl
from repro.exec import write_rows_atomically  # noqa: F401 - the WAL's rewrite, re-exported


class WriteAheadLog:
    """Append-only JSONL log with a bounded-loss fsync cadence.

    Args:
        path: The log file; created (with parents) on first append.
        fsync_every: Force the rows to stable storage every this many
            appends.  ``1`` fsyncs every row (maximum durability); larger
            values trade a bounded window of re-executable work for fewer
            synchronous writes.  Every append is *flushed* regardless, so
            only an OS crash — not a process kill — can lose the window.
    """

    def __init__(self, path: str, fsync_every: int = 1) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = path
        self.fsync_every = fsync_every
        self._handle = None
        self._since_fsync = 0

    def append(self, row: Dict[str, object]) -> None:
        """Append one row, flushing always and fsyncing on the cadence."""
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(dump_row(row) + "\n")
        self._handle.flush()
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_every:
            os.fsync(self._handle.fileno())
            self._since_fsync = 0

    def close(self) -> None:
        """Flush, fsync and close the log (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
            self._since_fsync = 0

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_wal(
    path: str, schema: Optional[int] = None
) -> Tuple[Dict[str, Dict[str, object]], Set[str], int]:
    """Read a WAL back: the latest snapshot per session, shed ids, discards.

    Args:
        path: The log file (missing is fine: an empty log).
        schema: When given, rows with a different ``"schema"`` are discarded.

    Returns:
        ``(snapshots, shed_ids, discarded)`` — ``snapshots`` maps session id
        to its *latest* well-formed snapshot row; ``shed_ids`` holds the ids
        of sessions recorded as load-shed (shedding is sticky across resumes:
        a shed session stays shed rather than flapping back in); ``discarded``
        counts dropped lines (truncated tails, malformed rows, schema
        mismatches).  Whether a snapshot still belongs to the session now
        carrying its id is the caller's check
        (:func:`repro.service.session.snapshot_belongs_to`).
    """
    snapshots: Dict[str, Dict[str, object]] = {}
    shed_ids: Set[str] = set()
    rows, discarded = read_jsonl(path)
    for row in rows:
        kind = row.get("kind")
        session_id = row.get("session_id")
        if not isinstance(session_id, str) or (
            schema is not None and row.get("schema") != schema
        ):
            discarded += 1
        elif kind == "snapshot":
            snapshots[session_id] = row
        elif kind == "shed":
            shed_ids.add(session_id)
        else:
            discarded += 1
    return snapshots, shed_ids, discarded
