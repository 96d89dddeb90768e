"""Parallel cell execution with persisted, resumable JSONL results.

The runner shards a spec's cells across supervised ``multiprocessing``
workers, streams one JSON row per completed cell to the output file
(append-only, crash safe), and on completion compacts the file into canonical
grid order via a fsync-then-rename.  Rows are pure functions of their cell —
exact rationals are serialised as ``"p/q"`` strings, every mapping key is a
string, and ``json.dumps(..., sort_keys=True)`` is used throughout — so a
fresh run and a killed-then-resumed run of the same spec produce byte-identical
files.

Resume: before executing, the runner reads any existing output file, keeps
every well-formed row whose cell id belongs to the current grid (matching
spec, seed and schema version), and only computes the rest.

Worker crashes (OOM kill, SIGKILL, segfault) never stall a sweep: each worker
owns a private pipe, so its death is detected as EOF and attributed to exactly
one in-flight cell, which is retried with backoff on a respawned worker and —
after ``max_cell_retries`` failures — quarantined to
``<out>.quarantine.jsonl`` instead of aborting the run.

Each worker clears the process-wide min-cut cache whenever it switches to an
unrelated topology (cells arrive grouped by topology, so this is rare) and
relies on :func:`repro.gf.field.get_field` canonicalisation to share field
tables within the worker.
"""

from __future__ import annotations

import cProfile
import io
import json
import multiprocessing
import os
import pstats
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.capacity.bounds import CapacityAnalysis, analyse_network
from repro.classical.relay import clear_relay_path_cache
from repro.coding.verification import clear_verification_cache
from repro.engine.protocol import get_protocol
from repro.engine.spec import Cell, ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.gf.field import clear_kernel_caches
from repro.graph.flow_cache import clear_mincut_cache
from repro.graph.gomory_hu import clear_gomory_hu_cache
from repro.graph.spanning_trees import clear_pack_cache
from repro.sched.faults import fault_plan

#: Version stamp of the persisted row layout; bump on breaking changes so
#: resume never mixes incompatible rows.
ROW_SCHEMA_VERSION = 1


#: Per-process memo of analytical bounds keyed by (topology, source, f); the
#: bounds depend only on graph structure, so the handful of distinct keys in a
#: grid are computed once per worker instead of once per cell.
_ANALYSIS_MEMO: Dict[tuple, CapacityAnalysis] = {}


def _plan_is_clean(plan_name: str) -> bool:
    """Whether the named fault plan never faults a link.

    Unknown names count as non-clean: the row then carries the plan name, and
    the lookup failure surfaces in its ``error`` field instead of here.
    """
    try:
        return fault_plan(plan_name).is_clean
    except ConfigurationError:
        return False


def _bounds_jsonable(analysis: CapacityAnalysis) -> Dict[str, object]:
    return {
        "gamma_star": analysis.gamma_star,
        "rho_star": analysis.rho_star,
        "nab_lower_bound": str(analysis.nab_lower_bound),
        "capacity_upper_bound": str(analysis.capacity_upper_bound),
        "guaranteed_fraction": str(analysis.guaranteed_fraction),
        "achieved_fraction": str(analysis.achieved_fraction),
    }


def run_cell(cell: Cell) -> Dict[str, object]:
    """Execute one cell and return its persisted-row dict.

    The row is deterministic: it contains no timestamps or host information,
    only the cell identity, the protocol's :class:`RunRecord` and the
    network's analytical bounds.  Protocol failures are captured in an
    ``"error"`` field instead of aborting the sweep.
    """
    scenario = cell.scenario()
    row: Dict[str, object] = {
        "schema": ROW_SCHEMA_VERSION,
        "spec": cell.spec_name,
        "cell_id": cell.cell_id,
        "seed": cell.seed,
        "topology": cell.topology,
        "strategy": cell.strategy,
        "faulty_nodes": list(cell.faulty_nodes),
        "payload_bytes": cell.payload_bytes,
        "instances": cell.instances,
        "max_faults": cell.max_faults,
        "protocol": cell.protocol,
        "source": scenario.source,
        "execution": cell.execution,
        "link_model": cell.link_model,
    }
    if cell.fault_plan != "none" and not _plan_is_clean(cell.fault_plan):
        # Conditional so rows of fault-free grids keep the exact byte layout
        # they had before the fault-plan axis existed — and so a zero-rate
        # plan (clean by construction) reproduces the fault-free rows
        # byte-identically even though it routes through the ARQ transport.
        row["fault_plan"] = cell.fault_plan
    if cell.strategy_params:
        # Same conditional-key idiom: parameterless grids keep their exact
        # pre-existing byte layout.
        row["strategy_params"] = cell.strategy_params
    try:
        memo_key = (cell.topology, scenario.source, cell.max_faults)
        analysis = _ANALYSIS_MEMO.get(memo_key)
        if analysis is None:
            analysis = analyse_network(scenario.graph, scenario.source, cell.max_faults)
            _ANALYSIS_MEMO[memo_key] = analysis
        if cell.bounds_only:
            # Analytical cell: gamma*/rho*/Eq. 6/Theorem 2 are the whole
            # deliverable; no protocol runs (record stays null, error None,
            # so resume keeps the row).
            row["record"] = None
            row["bounds"] = _bounds_jsonable(analysis)
            row["error"] = None
            return row
        protocol = get_protocol(cell.protocol)
        params: Dict[str, object] = {
            "max_faults": cell.max_faults,
            "coding_seed": cell.seed,
            "execution": cell.execution,
        }
        if cell.link_model != "instant":
            # The zero-latency scheduled clock is contractually identical to
            # the plain transport's (see repro.transport.scheduled), so
            # default cells skip the per-send scheduling bookkeeping entirely.
            params["link_model"] = cell.link_model
        if cell.fault_plan != "none":
            # Any named plan (clean ones included) routes through the ARQ
            # transport — the clean fast path is contractually bit-identical
            # to the default transport, and exercising it keeps the zero-rate
            # byte-identity guarantee honest.  Only "none" itself skips the
            # per-send bookkeeping entirely, mirroring link_model "instant".
            params["fault_plan"] = cell.fault_plan
        record = protocol.run(
            scenario.graph,
            scenario.source,
            list(scenario.inputs),
            scenario.fault_model,
            params,
        )
        row["record"] = record.to_jsonable()
        row["bounds"] = _bounds_jsonable(analysis)
        row["error"] = None
    except Exception as exc:  # noqa: BLE001 - sweeps must survive bad cells
        row["record"] = None
        row["bounds"] = None
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


_LAST_TOPOLOGY: Optional[str] = None


def _execute_cell(cell: Cell) -> Dict[str, object]:
    """Worker entry point: per-topology cache hygiene around :func:`run_cell`.

    All five process-wide structure caches (min-cut solutions, Gomory-Hu
    trees, arborescence packings, relay paths, coding-scheme rank verdicts)
    are keyed on
    canonical graph signatures, so clearing them is about memory, not
    correctness; cells arrive grouped by topology, so the clears are rare.
    The GF kernel operand caches (FFT spectra) are dropped
    on the same cadence — a new topology means new coding matrices, so the
    old operands will not recur.
    """
    global _LAST_TOPOLOGY
    if cell.topology != _LAST_TOPOLOGY:
        clear_mincut_cache()
        clear_gomory_hu_cache()
        clear_pack_cache()
        clear_relay_path_cache()
        clear_verification_cache()
        clear_kernel_caches()
        _LAST_TOPOLOGY = cell.topology
    return run_cell(cell)


def dump_row(row: Dict[str, object]) -> str:
    """The canonical one-line JSON serialisation of a row."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def _load_completed_rows(
    path: str, spec: ExperimentSpec, cells: Sequence[Cell]
) -> Tuple[Dict[str, Dict[str, object]], int]:
    """Parse an existing output file into reusable rows keyed by cell id.

    Malformed lines — most commonly a truncated final line after a worker was
    killed mid-write — are discarded (and counted) instead of aborting the
    resume; rows that do not belong to the current grid and rows that
    recorded an error (so a transient failure is retried rather than frozen
    in) are dropped the same way.

    Returns:
        ``(completed_rows_by_cell_id, discarded_line_count)``.
    """
    expected = {cell.cell_id: cell for cell in cells}
    completed: Dict[str, Dict[str, object]] = {}
    discarded = 0
    if not os.path.exists(path):
        return completed, discarded
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                discarded += 1
                continue
            if not isinstance(row, dict):
                discarded += 1
                continue
            cell = expected.get(row.get("cell_id"))
            if (
                cell is not None
                and row.get("schema") == ROW_SCHEMA_VERSION
                and row.get("spec") == spec.name
                and row.get("seed") == cell.seed
                and row.get("error") is None
            ):
                completed[cell.cell_id] = row
            else:
                discarded += 1
    return completed, discarded


def _write_rows_atomically(path: str, rows: Sequence[Dict[str, object]]) -> None:
    """Replace ``path`` with one canonical JSON line per row, crash-safely.

    The single serialization used both by the pre-append rewrite and the
    end-of-run compaction, so resumed files can never diverge from fresh-run
    files byte for byte.  The temp file is fully written and fsynced before
    the atomic rename, so a kill at any instant leaves either the old file or
    the complete new one — never a truncated mix; a failed write cleans up
    its temp file instead of leaving it to shadow the next attempt.
    """
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            for row in rows:
                tmp.write(dump_row(row) + "\n")
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


def _count_unresolved_quarantine(
    candidate: str, available: Dict[str, Dict[str, object]]
) -> int:
    """How many cells a leftover quarantine file names that are still missing.

    Cells that have since completed (their id is in ``available``) are
    vindicated; unparseable lines count as unresolved — a corrupt quarantine
    file is itself worth reporting, not deleting.
    """
    unresolved = 0
    try:
        with open(candidate, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    unresolved += 1
                    continue
                if not isinstance(row, dict) or row.get("cell_id") not in available:
                    unresolved += 1
    except OSError:
        return 0
    return unresolved


def _ends_with_newline(path: str) -> bool:
    """Whether the file's last byte is a newline (vacuously true when empty)."""
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return True
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) == b"\n"
    except OSError:
        return True


@dataclass(frozen=True)
class RunSummary:
    """Outcome of one :func:`run_spec` invocation.

    Attributes:
        spec_name: The executed spec.
        rows: All rows available at the end, in canonical grid order
            (computed this run plus rows reused from a previous run).
        computed_cells: How many cells were actually executed.
        skipped_cells: How many were reused from the existing output file.
        discarded_rows: Lines of the existing output file dropped during
            resume (truncated/corrupt lines, stale or errored rows).
        total_cells: Size of the full grid.
        out_path: The output file, or ``None`` for in-memory runs.
        retried_cells: Distinct cells whose worker died at least once and
            were re-executed on a respawned worker.
        quarantined_cells: Cells abandoned after exhausting their retry
            budget (their identities live in the quarantine file, not in
            ``rows``).
        quarantine_path: The quarantine JSONL next to the output file, or
            ``None`` when nothing was quarantined (this run or — still
            unresolved — a prior one).
        stale_quarantined_cells: Cells a *prior* run quarantined that this
            run neither completed nor re-quarantined.  The leftover file is
            kept in place and reported, never silently ignored — e.g. a
            resume invoked with ``--limit`` that happened to retry nothing.
    """

    spec_name: str
    rows: List[Dict[str, object]]
    computed_cells: int
    skipped_cells: int
    total_cells: int
    out_path: Optional[str]
    discarded_rows: int = 0
    profile_path: Optional[str] = None
    retried_cells: int = 0
    quarantined_cells: int = 0
    quarantine_path: Optional[str] = None
    stale_quarantined_cells: int = 0


def _worker_pool_main(conn: Connection) -> None:
    """Supervised-worker child: execute cells off ``conn`` until told to stop.

    The protocol is strictly request/response — one pickled :class:`Cell` in,
    one row dict out — so the supervisor always knows which cell a dead
    worker was holding.  A ``None`` request (or a closed pipe) is the
    shutdown signal.
    """
    try:
        while True:
            try:
                cell = conn.recv()
            except (EOFError, OSError):
                return
            if cell is None:
                return
            conn.send(_execute_cell(cell))
    finally:
        conn.close()


@dataclass
class _InFlight:
    """One cell's journey through the supervised pool."""

    cell: Cell
    attempts: int = 0
    exitcodes: List[Optional[int]] = field(default_factory=list)


def _quarantine_row(item: _InFlight) -> Dict[str, object]:
    """The JSONL row describing a quarantined cell.

    Mirrors the identity fields of a result row so quarantine files are
    self-describing, and carries the crash evidence (attempt count and the
    exit codes of the dead workers — e.g. ``-9`` for SIGKILL) in place of a
    record.
    """
    cell = item.cell
    return {
        "schema": ROW_SCHEMA_VERSION,
        "spec": cell.spec_name,
        "cell_id": cell.cell_id,
        "seed": cell.seed,
        "attempts": item.attempts,
        "worker_exitcodes": list(item.exitcodes),
        "error": (
            f"WorkerCrash: worker process died {item.attempts} time(s) "
            "executing this cell"
        ),
    }


def _run_supervised(
    pending: Sequence[Cell],
    workers: int,
    emit: Callable[[Dict[str, object]], None],
    max_cell_retries: int,
    retry_backoff: float,
) -> Tuple[int, List[Dict[str, object]]]:
    """Execute ``pending`` on a crash-tolerant pool of worker processes.

    Unlike :class:`multiprocessing.Pool` — which deadlocks or aborts the whole
    map when a worker is OOM-killed — each worker owns a private duplex pipe,
    so a death (the pipe hitting EOF) is attributable to exactly one in-flight
    cell.  Dead workers are respawned immediately; their cell is retried with
    exponential backoff (``retry_backoff * 2**k``) and quarantined after
    ``max_cell_retries`` retries instead of sinking the sweep.

    Calls ``emit`` with each completed row (any thread-unsafe persistence
    stays in the caller, which runs single-threaded).

    Returns:
        ``(retried_cell_count, quarantine_rows)`` where the count is of
        distinct cells that crashed at least once and the rows describe the
        cells that exhausted their budget.
    """
    ctx = multiprocessing.get_context()
    queue: List[_InFlight] = [_InFlight(cell) for cell in pending]
    next_index = 0
    retried: set = set()
    quarantined: List[Dict[str, object]] = []

    def spawn() -> Connection:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_pool_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        processes[parent_conn] = process
        return parent_conn

    def reap(conn: Connection) -> Optional[int]:
        process = processes.pop(conn)
        conn.close()
        process.join()
        return process.exitcode

    processes: Dict[Connection, object] = {}
    idle: List[Connection] = []
    busy: Dict[Connection, _InFlight] = {}
    for _ in range(max(1, min(workers, len(queue)))):
        idle.append(spawn())
    try:
        while next_index < len(queue) or busy:
            while idle and next_index < len(queue):
                conn = idle.pop()
                item = queue[next_index]
                next_index += 1
                try:
                    conn.send(item.cell)
                except (OSError, ValueError):
                    # The worker died while idle: the cell was never
                    # attempted, so it goes back to the head of the queue
                    # without being charged a retry.
                    next_index -= 1
                    reap(conn)
                    idle.append(spawn())
                    continue
                busy[conn] = item
            if not busy:
                continue
            for conn in _connection_wait(list(busy)):
                item = busy.pop(conn)
                try:
                    row = conn.recv()
                except (EOFError, OSError):
                    # Death mid-cell (OOM kill, SIGKILL, segfault): respawn
                    # the worker, then retry or quarantine the cell.
                    item.attempts += 1
                    item.exitcodes.append(reap(conn))
                    idle.append(spawn())
                    if item.attempts > max_cell_retries:
                        quarantined.append(_quarantine_row(item))
                    else:
                        retried.add(item.cell.cell_id)
                        if retry_backoff > 0:
                            time.sleep(
                                retry_backoff * 2 ** (item.attempts - 1)
                            )
                        queue.append(item)
                    continue
                emit(row)
                idle.append(conn)
    finally:
        for conn, process in list(processes.items()):
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
            conn.close()
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join()
    return len(retried), quarantined


#: How many cProfile lines each profiled cell keeps in the dump.
_PROFILE_TOP = 25


def _profiled_cell(cell: Cell) -> Tuple[Dict[str, object], str]:
    """Run one cell under cProfile; return its row and the top-25 report."""
    profiler = cProfile.Profile()
    profiler.enable()
    row = _execute_cell(cell)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP)
    return row, buffer.getvalue()


def run_spec(
    spec: ExperimentSpec,
    out_path: Optional[str] = None,
    workers: int = 1,
    limit: Optional[int] = None,
    resume: bool = True,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    profile: bool = False,
    max_cell_retries: int = 2,
    retry_backoff: float = 0.5,
) -> RunSummary:
    """Run (or resume) every cell of a spec and persist one JSONL row per cell.

    Args:
        spec: The sweep to execute.
        out_path: JSONL output file.  ``None`` runs fully in memory.
        workers: Worker processes; ``1`` runs serially in-process.
        limit: Execute at most this many not-yet-completed cells, then stop
            (persisting what finished) — the hook the resume tests use to
            simulate a killed sweep.
        resume: Reuse completed rows from an existing output file.  When
            ``False`` any existing file is ignored and overwritten.
        progress: Optional callback invoked with each freshly computed row.
        profile: Run every computed cell under :mod:`cProfile` and write its
            top-25 cumulative report to ``<out_path>.profile.txt`` next to
            the JSONL (in-memory runs collect but discard the report).
            Forces serial execution so the profiles are not split across
            worker processes; the rows themselves are unaffected.
        max_cell_retries: How many times a cell whose worker process died is
            re-executed (on a fresh worker) before being quarantined to
            ``<out_path>.quarantine.jsonl``.  Applies to parallel runs; a
            serial run dies with its only process.
        retry_backoff: Base delay in seconds before retrying a crashed cell
            (doubled per subsequent crash of the same cell); ``0`` retries
            immediately (the hook crash tests use).

    Returns:
        A :class:`RunSummary`; ``rows`` is in canonical grid order and, when
        the grid ran to completion, matches the persisted file line for line.
    """
    if profile:
        workers = 1
    cells = spec.expand()
    forced_backend = False
    if spec.kernel_backend and not os.environ.get("REPRO_GF_BACKEND"):
        # Spec-level backend override, propagated through the environment so
        # spawned worker processes inherit it; an explicit REPRO_GF_BACKEND
        # set by the operator wins over the spec value.  Restored on exit so
        # back-to-back sweeps in one process do not leak the override.
        os.environ["REPRO_GF_BACKEND"] = spec.kernel_backend
        forced_backend = True
    completed: Dict[str, Dict[str, object]] = {}
    discarded = 0
    if out_path and resume:
        completed, discarded = _load_completed_rows(out_path, spec, cells)
    pending = [cell for cell in cells if cell.cell_id not in completed]
    if limit is not None:
        pending = pending[: max(0, limit)]

    handle = None
    if out_path:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        if resume and completed and (discarded or not _ends_with_newline(out_path)):
            # The file contained lines we are not reusing (e.g. a truncated
            # trailing row after a mid-write kill), or its last line lacks a
            # newline (kill between the row text and its "\n"): rewrite only
            # the good rows before appending, so new rows never glue onto a
            # partial line.
            _write_rows_atomically(
                out_path,
                [completed[cell.cell_id] for cell in cells if cell.cell_id in completed],
            )
        mode = "a" if (resume and completed) else "w"
        handle = open(out_path, mode, encoding="utf-8")

    computed: Dict[str, Dict[str, object]] = {}
    profile_sections: List[str] = []
    retried_cells = 0
    quarantine_rows: List[Dict[str, object]] = []
    try:
        if pending:
            if workers > 1:

                def emit(row: Dict[str, object]) -> None:
                    computed[row["cell_id"]] = row
                    if handle is not None:
                        handle.write(dump_row(row) + "\n")
                        handle.flush()
                    if progress is not None:
                        progress(row)

                retried_cells, quarantine_rows = _run_supervised(
                    pending,
                    workers,
                    emit,
                    max_cell_retries=max_cell_retries,
                    retry_backoff=retry_backoff,
                )
            else:
                for cell in pending:
                    if profile:
                        row, report = _profiled_cell(cell)
                        profile_sections.append(
                            f"=== {row['cell_id']}\n{report}"
                        )
                    else:
                        row = _execute_cell(cell)
                    computed[row["cell_id"]] = row
                    if handle is not None:
                        handle.write(dump_row(row) + "\n")
                        handle.flush()
                    if progress is not None:
                        progress(row)
    finally:
        if handle is not None:
            handle.close()
        if forced_backend:
            os.environ.pop("REPRO_GF_BACKEND", None)

    available = dict(completed)
    available.update(computed)
    rows = [available[cell.cell_id] for cell in cells if cell.cell_id in available]

    if out_path:
        # Compact to canonical grid order so a fresh run and a resumed run of
        # the same spec produce byte-identical files.
        _write_rows_atomically(out_path, rows)

    profile_path = None
    if profile and out_path and profile_sections:
        profile_path = out_path + ".profile.txt"
        with open(profile_path, "w", encoding="utf-8") as profile_handle:
            profile_handle.write("".join(profile_sections))

    quarantine_path = None
    stale_quarantined = 0
    if out_path:
        candidate = out_path + ".quarantine.jsonl"
        if quarantine_rows:
            _write_rows_atomically(candidate, quarantine_rows)
            quarantine_path = candidate
        elif os.path.exists(candidate):
            stale_quarantined = _count_unresolved_quarantine(candidate, available)
            if stale_quarantined:
                # The leftover file still names cells this run did not
                # complete (e.g. a --limit resume that retried nothing):
                # keep it and report it, so it cannot be silently ignored.
                quarantine_path = candidate
            else:
                # This run completed every previously quarantined cell: a
                # stale quarantine file would misreport the sweep as
                # degraded.
                os.remove(candidate)

    return RunSummary(
        spec_name=spec.name,
        rows=rows,
        computed_cells=len(computed),
        skipped_cells=len(completed),
        total_cells=len(cells),
        out_path=out_path,
        discarded_rows=discarded,
        profile_path=profile_path,
        retried_cells=retried_cells,
        quarantined_cells=len(quarantine_rows),
        quarantine_path=quarantine_path,
        stale_quarantined_cells=stale_quarantined,
    )
