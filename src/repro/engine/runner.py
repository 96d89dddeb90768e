"""Cell execution for experiment sweeps, with persisted, resumable results.

The runner turns a spec's cells into tasks for :mod:`repro.exec`: the
supervised pool shards them across worker processes (or runs them in-process
with ``workers=1``), the journal streams one JSON row per completed cell to
the output file and, on completion, compacts it into canonical grid order.
Rows are pure functions of their cell — exact rationals are serialised as
``"p/q"`` strings, every mapping key is a string, and the canonical
:func:`repro.exec.dump_row` is used throughout — so a fresh run and a
killed-then-resumed run of the same spec produce byte-identical files.

Resume keeps every well-formed row whose cell id belongs to the current grid
(matching spec, seed and schema version) and only computes the rest.  A cell
whose worker keeps dying (OOM kill, SIGKILL, segfault) is retried with
backoff and, after ``max_cell_retries`` deaths, quarantined to
``<out>.quarantine.jsonl`` instead of aborting the run.

Each worker clears the topology-scoped caches whenever it switches to an
unrelated topology (cells arrive grouped by topology, so this is rare) and
relies on :func:`repro.gf.field.get_field` canonicalisation to share field
tables within the worker.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.capacity.bounds import CapacityAnalysis, analyse_network
from repro.core.nab import Checkpoint
from repro.engine.protocol import get_protocol
from repro.engine.spec import Cell, ExperimentSpec, warm_graph
from repro.exceptions import ConfigurationError
from repro.exec import Journal, Task, crash_evidence, run_tasks
from repro.exec import dump_row  # noqa: F401 - re-exported: rows are dumped by the journal
from repro.graph.flow_cache import MinCutCache, clear_scope
from repro.transport.link_faults import fault_plan
from repro.types import RunRecord

#: Version stamp of the persisted row layout; bump on breaking changes so
#: resume never mixes incompatible rows.
ROW_SCHEMA_VERSION = 1


#: Per-process memo of analytical bounds keyed by (topology, source, f); the
#: bounds depend only on graph structure, so the handful of distinct keys in a
#: grid are computed once per worker instead of once per cell.
_ANALYSIS_MEMO = MinCutCache(max_entries=256, name="capacity_analyses", scope="process")


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


def run_cell_record(
    cell: Cell,
    snapshot: Optional[Dict[str, object]] = None,
    checkpoint: Optional[Checkpoint] = None,
) -> RunRecord:
    """Run a cell's protocol on its scenario, raising on failure: the one path
    from cell to record, under sweep rows and session rows alike.  Only a
    sequential ``nab`` cell takes a ``snapshot`` / ``checkpoint``."""
    scenario = cell.scenario()
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
    if snapshot is not None:
        params["snapshot"] = snapshot
    if checkpoint is not None:
        params["checkpoint"] = checkpoint
    return get_protocol(cell.protocol).run(
        scenario.graph,
        scenario.source,
        list(scenario.inputs),
        scenario.fault_model,
        params,
    )


def run_cell(cell: Cell) -> Dict[str, object]:
    """Execute one cell and return its persisted-row dict.

    The row is deterministic: it contains no timestamps or host information,
    only the cell identity, the protocol's :class:`RunRecord`
    (:func:`run_cell_record`) and the network's analytical bounds.  Failures
    are captured in an ``"error"`` field instead of aborting the sweep.
    """
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
        "source": cell.source,
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
        memo_key = (cell.topology, cell.source, cell.max_faults)
        analysis = _ANALYSIS_MEMO.lookup(memo_key)
        if analysis is None:
            analysis = analyse_network(warm_graph(*memo_key), cell.source, cell.max_faults)
            _ANALYSIS_MEMO.store(memo_key, analysis)
        if cell.bounds_only:
            # Analytical cell: gamma*/rho*/Eq. 6/Theorem 2 are the whole
            # deliverable; no protocol runs (record stays null, error None,
            # so resume keeps the row).
            row["record"] = None
            row["bounds"] = _bounds_jsonable(analysis)
            row["error"] = None
            return row
        row["record"] = run_cell_record(cell).to_jsonable()
        row["bounds"] = _bounds_jsonable(analysis)
        row["error"] = None
    except Exception as exc:  # noqa: BLE001 - sweeps must survive bad cells
        row["record"] = None
        row["bounds"] = None
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


_LAST_TOPOLOGY: Optional[str] = None


def _execute_cell(cell: Cell, _emit: object = None) -> Dict[str, object]:
    """The pool's handler: per-topology cache hygiene around :func:`run_cell`.

    Every topology-scoped cache (min-cut solutions, Gomory-Hu trees,
    arborescence packings, relay paths, rank verdicts, instance parameters)
    is keyed on canonical graph signatures, so clearing them is about memory,
    not correctness; cells arrive grouped by topology, so the clears are rare.
    A cell streams no events, hence the unused ``_emit``.
    """
    global _LAST_TOPOLOGY
    if cell.topology != _LAST_TOPOLOGY:
        clear_scope("topology")
        _LAST_TOPOLOGY = cell.topology
    return run_cell(cell)


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
            ``False`` any existing file (and quarantine file) is ignored and
            replaced.
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
    journal = Journal(
        out_path,
        "cell_id",
        {
            cell.cell_id: {"schema": ROW_SCHEMA_VERSION, "spec": spec.name, "seed": cell.seed}
            for cell in cells
        },
        resume,
    )
    pending = [cell for cell in cells if cell.cell_id not in journal.completed]
    if limit is not None:
        pending = pending[: max(0, limit)]

    profile_sections: List[str] = []

    def profiled(cell: Cell, _emit: object) -> Dict[str, object]:
        row, report = _profiled_cell(cell)
        profile_sections.append(f"=== {row['cell_id']}\n{report}")
        return row

    def on_done(_task: Task, row: Dict[str, object]) -> None:
        journal.append(row)
        if progress is not None:
            progress(row)

    with journal:
        outcome = run_tasks(
            [Task(cell) for cell in pending],
            workers,
            profiled if profile else _execute_cell,
            on_done,
            retries=max_cell_retries,
            backoff=retry_backoff,
        )

    # Quarantine rows mirror a result row's identity fields, so the file is
    # self-describing, and carry the crash evidence in place of a record.
    rows = journal.settle(
        [
            {
                "schema": ROW_SCHEMA_VERSION,
                "spec": task.request.spec_name,
                "cell_id": task.request.cell_id,
                "seed": task.request.seed,
                **crash_evidence(task, "cell"),
            }
            for task in outcome.dead
        ]
    )

    profile_path = None
    if profile and out_path and profile_sections:
        profile_path = out_path + ".profile.txt"
        with open(profile_path, "w", encoding="utf-8") as profile_handle:
            profile_handle.write("".join(profile_sections))

    return RunSummary(
        spec_name=spec.name,
        rows=rows,
        computed_cells=len(journal.computed),
        skipped_cells=len(journal.completed),
        total_cells=len(cells),
        out_path=out_path,
        discarded_rows=journal.discarded,
        profile_path=profile_path,
        retried_cells=outcome.retried,
        quarantined_cells=len(outcome.dead),
        quarantine_path=journal.quarantine_path,
        stale_quarantined_cells=journal.stale_quarantined,
    )
