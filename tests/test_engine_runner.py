"""Sweep expansion, the parallel runner, JSONL persistence and resume.

The satellite requirement: kill a sweep mid-grid (simulated with the runner's
``limit`` hook, which persists only the cells that finished), rerun, and the
merged JSONL must equal a fresh full run bit-for-bit.
"""

from __future__ import annotations

import json
import os
import re
import signal
from dataclasses import replace

import pytest

from repro.engine import (
    ExperimentSpec,
    FAULT_FREE,
    Protocol,
    dump_row,
    get_protocol,
    get_spec,
    named_specs,
    render_comparison,
    run_cell,
    run_spec,
    summarize_rows,
)
from repro.engine.protocol import _REGISTRY
from repro.engine.runner import run_cell_record
from repro.engine.spec import cell_seed
from repro.exceptions import ConfigurationError, ProtocolError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")

#: A small but representative grid: 2 topologies x 3 strategies x 2 protocols.
SMALL_SPEC = ExperimentSpec(
    name="unit_small",
    topologies=("k4-fast", "bottleneck4"),
    strategies=(FAULT_FREE, "equality-garbage", "equivocating-source"),
    payload_bytes=(4,),
    fault_counts=(1,),
    protocols=("nab", "classical-flooding"),
    instances=2,
)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class TestSpecExpansion:
    def test_grid_size_and_order_deterministic(self):
        first = SMALL_SPEC.expand()
        second = SMALL_SPEC.expand()
        assert len(first) == 2 * 3 * 2
        assert [cell.cell_id for cell in first] == [cell.cell_id for cell in second]
        assert [cell.seed for cell in first] == [cell.seed for cell in second]

    def test_cell_seeds_unique_and_stable(self):
        cells = SMALL_SPEC.expand()
        seeds = [cell.seed for cell in cells]
        assert len(set(seeds)) == len(seeds)
        assert cells[0].seed == cell_seed(0, cells[0].cell_id)

    def test_cell_id_encodes_every_axis_including_source(self):
        # A spec differing only in `source` must produce disjoint cell ids,
        # otherwise resume would silently reuse the other sweep's rows.
        cells = {cell.cell_id for cell in SMALL_SPEC.expand()}
        moved = ExperimentSpec(
            name=SMALL_SPEC.name,
            topologies=("k4-fast",),
            strategies=(FAULT_FREE,),
            payload_bytes=(4,),
            fault_counts=(1,),
            protocols=("nab",),
            instances=SMALL_SPEC.instances,
            source=2,
        )
        assert cells.isdisjoint(cell.cell_id for cell in moved.expand())

    def test_source_attack_places_fault_on_source(self):
        cells = {cell.cell_id: cell for cell in SMALL_SPEC.expand()}
        for cell in cells.values():
            if cell.strategy == "equivocating-source":
                assert cell.faulty_nodes == (1,)
            elif cell.strategy == FAULT_FREE:
                assert cell.faulty_nodes == ()
            else:
                assert cell.faulty_nodes == (4,)

    def test_infeasible_combinations_filtered(self):
        spec = ExperimentSpec(
            name="unit_infeasible",
            # figure1a has connectivity 1 < 2f + 1; k4-fast stays.
            topologies=("figure1a", "k4-fast"),
            strategies=(FAULT_FREE,),
            payload_bytes=(4,),
            fault_counts=(1,),
            protocols=("nab",),
            instances=1,
        )
        cells = spec.expand()
        assert [cell.topology for cell in cells] == ["k4-fast"]

    def test_adversary_at_f0_is_infeasible(self):
        # f = 0 sliced [:-1]: the source-attacker took every other node with
        # it, and a relay attacker's cell ran with no faulty node at all.
        spec = ExperimentSpec(
            name="unit_f0",
            topologies=("k4-fast",),
            strategies=(FAULT_FREE, "equivocating-source", "equality-garbage"),
            payload_bytes=(4,),
            fault_counts=(0, 1),
            protocols=("nab",),
            instances=1,
        )
        points = [(cell.max_faults, cell.strategy, cell.faulty_nodes) for cell in spec.expand()]
        assert points == [
            (0, FAULT_FREE, ()),
            (1, FAULT_FREE, ()),
            (1, "equivocating-source", (1,)),
            (1, "equality-garbage", (4,)),
        ]

    def test_unknown_strategy_rejected(self):
        spec = ExperimentSpec(
            name="unit_bad",
            topologies=("k4-fast",),
            strategies=("definitely-not-a-strategy",),
            payload_bytes=(4,),
            fault_counts=(1,),
            protocols=("nab",),
        )
        with pytest.raises(ConfigurationError):
            spec.expand()

    def test_named_specs_meet_acceptance_floor(self):
        assert "nab_vs_classical" in named_specs()
        spec = get_spec("nab_vs_classical")
        cells = spec.expand()
        assert len(cells) >= 24
        assert len({cell.topology for cell in cells}) >= 3
        adversaries = {cell.strategy for cell in cells} - {FAULT_FREE}
        assert len(adversaries) >= 6


class TestRunnerPersistence:
    def test_serial_run_writes_one_row_per_cell(self, tmp_path):
        out = str(tmp_path / "rows.jsonl")
        summary = run_spec(SMALL_SPEC, out_path=out, workers=1, resume=False)
        assert summary.computed_cells == summary.total_cells == 12
        lines = _read_bytes(out).decode().splitlines()
        assert len(lines) == 12
        rows = [json.loads(line) for line in lines]
        assert [row["cell_id"] for row in rows] == [
            cell.cell_id for cell in SMALL_SPEC.expand()
        ]
        for row in rows:
            assert row["error"] is None
            assert row["record"]["agreement_ok"] is True
            assert row["bounds"]["gamma_star"] >= 1
            # The canonical dump round-trips byte-identically.
            assert dump_row(json.loads(dump_row(row))) == dump_row(row)

    def test_in_memory_run_without_persistence(self):
        summary = run_spec(SMALL_SPEC, out_path=None, workers=1)
        assert summary.out_path is None
        assert len(summary.rows) == 12

    def test_rerun_skips_every_completed_cell(self, tmp_path):
        out = str(tmp_path / "rows.jsonl")
        run_spec(SMALL_SPEC, out_path=out, workers=1, resume=False)
        before = _read_bytes(out)
        summary = run_spec(SMALL_SPEC, out_path=out, workers=1)
        assert summary.computed_cells == 0
        assert summary.skipped_cells == 12
        assert _read_bytes(out) == before


class TestRunnerResume:
    def test_killed_sweep_resumes_and_merges_bit_for_bit(self, tmp_path):
        fresh_out = str(tmp_path / "fresh.jsonl")
        resumed_out = str(tmp_path / "resumed.jsonl")
        run_spec(SMALL_SPEC, out_path=fresh_out, workers=1, resume=False)

        # "Kill" the sweep after 5 cells: only those rows are persisted.
        partial = run_spec(SMALL_SPEC, out_path=resumed_out, workers=1, limit=5)
        assert partial.computed_cells == 5
        assert len(_read_bytes(resumed_out).decode().splitlines()) == 5

        # Rerun: completed cells are skipped, the rest computed, and the
        # merged file equals the fresh full run bit-for-bit.
        resumed = run_spec(SMALL_SPEC, out_path=resumed_out, workers=1)
        assert resumed.skipped_cells == 5
        assert resumed.computed_cells == 7
        assert _read_bytes(resumed_out) == _read_bytes(fresh_out)

    def test_truncated_last_line_is_recomputed(self, tmp_path):
        out = str(tmp_path / "rows.jsonl")
        run_spec(SMALL_SPEC, out_path=out, workers=1, resume=False)
        pristine = _read_bytes(out)
        # Simulate a kill mid-write: chop the last line in half.
        with open(out, "wb") as handle:
            handle.write(pristine[: len(pristine) - 40])
        summary = run_spec(SMALL_SPEC, out_path=out, workers=1)
        assert summary.computed_cells == 1
        assert summary.skipped_cells == 11
        assert summary.discarded_rows == 1
        assert _read_bytes(out) == pristine

    def test_truncated_row_never_corrupts_the_appended_rows(self, tmp_path):
        # A truncated trailing line has no newline; the runner must rewrite
        # the good rows before appending, so even a second kill mid-resume
        # leaves every line of the file parseable.
        out = str(tmp_path / "rows.jsonl")
        run_spec(SMALL_SPEC, out_path=out, workers=1, resume=False)
        pristine = _read_bytes(out)
        with open(out, "wb") as handle:
            handle.write(pristine[: len(pristine) - 40])
        partial = run_spec(SMALL_SPEC, out_path=out, workers=1, limit=1)
        assert partial.computed_cells == 1
        for line in _read_bytes(out).decode().splitlines():
            json.loads(line)
        # A final resume still converges to the pristine file bit for bit.
        run_spec(SMALL_SPEC, out_path=out, workers=1)
        assert _read_bytes(out) == pristine

    def test_missing_trailing_newline_never_glues_rows(self, tmp_path):
        # A kill can land after the full row text but before its "\n": the
        # last line then parses fine, yet appending to it would glue two
        # rows onto one line.  The runner must rewrite before appending.
        out = str(tmp_path / "rows.jsonl")
        run_spec(SMALL_SPEC, out_path=out, workers=1, resume=False)
        pristine = _read_bytes(out)
        # 11 valid rows, the 12th lost, and no newline after the 11th.
        lines = pristine.decode().splitlines()
        with open(out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]))
        partial = run_spec(SMALL_SPEC, out_path=out, workers=1, limit=1)
        assert partial.computed_cells == 1
        assert partial.skipped_cells == 11
        for line in _read_bytes(out).decode().splitlines():
            json.loads(line)
        run_spec(SMALL_SPEC, out_path=out, workers=1)
        assert _read_bytes(out) == pristine

    def test_garbage_lines_are_counted_not_fatal(self, tmp_path):
        out = str(tmp_path / "rows.jsonl")
        run_spec(SMALL_SPEC, out_path=out, workers=1, resume=False)
        pristine = _read_bytes(out)
        with open(out, "ab") as handle:
            handle.write(b"not json at all\n[1, 2, 3]\n")
        summary = run_spec(SMALL_SPEC, out_path=out, workers=1)
        assert summary.computed_cells == 0
        assert summary.skipped_cells == 12
        assert summary.discarded_rows == 2
        assert _read_bytes(out) == pristine

    def test_errored_cells_are_retried_on_resume(self, tmp_path):
        spec = ExperimentSpec(
            name="unit_error",
            topologies=("k4-fast",),
            strategies=(FAULT_FREE,),
            payload_bytes=(4,),
            fault_counts=(1,),
            # Unknown protocol: run_cell captures the lookup failure per cell.
            protocols=("nab", "no-such-protocol"),
            instances=1,
        )
        out = str(tmp_path / "rows.jsonl")
        first = run_spec(spec, out_path=out, workers=1, resume=False)
        errored = [row for row in first.rows if row["error"]]
        assert len(errored) == 1
        assert "no-such-protocol" in errored[0]["cell_id"]
        # The good cell is reused; the errored one is computed again, not
        # frozen in as "completed".
        second = run_spec(spec, out_path=out, workers=1)
        assert second.skipped_cells == 1
        assert second.computed_cells == 1
        assert [row["cell_id"] for row in second.rows] == [
            row["cell_id"] for row in first.rows
        ]

    def test_stale_seed_rows_are_not_reused(self, tmp_path):
        out = str(tmp_path / "rows.jsonl")
        run_spec(SMALL_SPEC, out_path=out, workers=1, resume=False)
        reseeded = ExperimentSpec(
            name=SMALL_SPEC.name,
            topologies=SMALL_SPEC.topologies,
            strategies=SMALL_SPEC.strategies,
            payload_bytes=SMALL_SPEC.payload_bytes,
            fault_counts=SMALL_SPEC.fault_counts,
            protocols=SMALL_SPEC.protocols,
            instances=SMALL_SPEC.instances,
            base_seed=99,
        )
        summary = run_spec(reseeded, out_path=out, workers=1)
        assert summary.skipped_cells == 0
        assert summary.computed_cells == 12


class TestParallelRunner:
    def test_parallel_equals_serial_bit_for_bit(self, tmp_path):
        serial_out = str(tmp_path / "serial.jsonl")
        parallel_out = str(tmp_path / "parallel.jsonl")
        run_spec(SMALL_SPEC, out_path=serial_out, workers=1, resume=False)
        summary = run_spec(SMALL_SPEC, out_path=parallel_out, workers=2, resume=False)
        assert summary.computed_cells == 12
        assert _read_bytes(parallel_out) == _read_bytes(serial_out)


def _files_matching(pattern: str) -> dict:
    """``{path under src/repro: match count}`` of every file matching ``pattern``."""
    found = {}
    for directory, _subdirs, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    count = len(re.findall(pattern, handle.read()))
                if count:
                    found[os.path.relpath(path, SRC)] = count
    return found


class TestOneRunPath:
    def test_a_sequential_nab_cell_resumes_from_any_checkpoint(self):
        cell = next(cell for cell in SMALL_SPEC.expand() if cell.strategy == "equality-garbage")
        cell = replace(cell, instances=3)
        checkpoints = []
        reference = dump_row(run_cell_record(cell, checkpoint=checkpoints.append).to_jsonable())
        assert reference == dump_row(run_cell(cell)["record"])
        assert [len(snapshot["results"]) for snapshot in checkpoints] == [1, 2]
        for snapshot in checkpoints:
            resumed = run_cell_record(cell, snapshot=json.loads(dump_row(snapshot)))
            assert dump_row(resumed.to_jsonable()) == reference

    @pytest.mark.parametrize(
        "protocol, execution",
        [("classical-flooding", "sequential"), ("eig", "sequential"), ("nab", "pipelined")],
    )
    def test_everything_else_is_checkpoint_free(self, protocol, execution):
        nab = next(cell for cell in SMALL_SPEC.expand() if cell.protocol == "nab")
        cell = replace(nab, protocol=protocol, execution=execution)
        snapshot = {"state": {}, "results": [], "pending_inputs": []}
        for resume in ({"checkpoint": lambda snapshot: None}, {"snapshot": snapshot}):
            with pytest.raises(ConfigurationError, match="checkpoint-free"):
                run_cell_record(cell, **resume)
        assert run_cell(cell)["error"] is None

    def test_infeasible_cell_is_refused_by_the_warm_graph(self):
        nab = next(cell for cell in SMALL_SPEC.expand() if cell.protocol == "nab")
        with pytest.raises(ProtocolError, match="figure1a: network connectivity"):
            run_cell_record(replace(nab, topology="figure1a"))

    def test_one_aggregation_one_precondition_gate(self):
        assert _files_matching(r"NABRunResult\(") == {os.path.join("core", "nab.py"): 1}
        assert _files_matching(r"validate_connectivity") == {}
        assert set(_files_matching(r"meets_connectivity_requirement\(")) == {
            os.path.join("graph", "connectivity.py")
        }
        assert set(_files_matching(r"resilience_violation\(")) == {
            os.path.join("graph", "connectivity.py"),
            os.path.join("core", "nab.py"),
            os.path.join("engine", "spec.py"),
        }


class _CrashUntilSentinel(Protocol):
    """A protocol that SIGKILLs its own worker until a sentinel file exists.

    Each death leaves one more marker file behind, so ``crashes`` controls how
    many times the cell takes its worker down before succeeding (delegating to
    NAB); registered under a throwaway name per test via ``monkeypatch``.
    Workers inherit the registration through ``fork``.
    """

    def __init__(self, name: str, marker_dir: str, crashes: int) -> None:
        self.name = name
        self.marker_dir = marker_dir
        self.crashes = crashes

    def run(self, graph, source, inputs, fault_model, params):
        died = len(
            [entry for entry in os.listdir(self.marker_dir) if entry.startswith("died")]
        )
        if died < self.crashes:
            with open(os.path.join(self.marker_dir, f"died{died}"), "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return get_protocol("nab").run(graph, source, inputs, fault_model, params)


def _crash_spec(protocol_name: str) -> ExperimentSpec:
    return ExperimentSpec(
        name="unit_crash",
        topologies=("k4-fast",),
        strategies=(FAULT_FREE,),
        payload_bytes=(4,),
        fault_counts=(1,),
        protocols=(protocol_name, "nab"),
        instances=2,
    )


class TestCrashTolerantWorkers:
    def test_sigkilled_worker_is_respawned_and_sweep_completes(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "markers"
        marker.mkdir()
        monkeypatch.setitem(
            _REGISTRY, "crash-once", _CrashUntilSentinel("crash-once", str(marker), 1)
        )
        spec = _crash_spec("crash-once")
        out = str(tmp_path / "rows.jsonl")
        summary = run_spec(spec, out_path=out, workers=2, retry_backoff=0)
        assert summary.computed_cells == summary.total_cells == 2
        assert summary.retried_cells == 1
        assert summary.quarantined_cells == 0
        assert summary.quarantine_path is None
        assert all(row["error"] is None for row in summary.rows)

    def test_crash_recovered_run_is_byte_identical_to_undisturbed(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "markers"
        marker.mkdir()
        monkeypatch.setitem(
            _REGISTRY, "crash-once", _CrashUntilSentinel("crash-once", str(marker), 1)
        )
        spec = _crash_spec("crash-once")
        crashed_out = str(tmp_path / "crashed.jsonl")
        run_spec(spec, out_path=crashed_out, workers=2, retry_backoff=0)
        # Same grid, markers already placed: no worker dies this time.
        clean_out = str(tmp_path / "clean.jsonl")
        clean = run_spec(spec, out_path=clean_out, workers=2, retry_backoff=0)
        assert clean.retried_cells == 0
        assert _read_bytes(crashed_out) == _read_bytes(clean_out)

    def test_persistent_crasher_is_quarantined_not_fatal(self, tmp_path, monkeypatch):
        marker = tmp_path / "markers"
        marker.mkdir()
        monkeypatch.setitem(
            _REGISTRY,
            "crash-always",
            _CrashUntilSentinel("crash-always", str(marker), 99),
        )
        spec = _crash_spec("crash-always")
        out = str(tmp_path / "rows.jsonl")
        summary = run_spec(
            spec, out_path=out, workers=2, retry_backoff=0, max_cell_retries=1
        )
        # The healthy cell completed; the crasher was quarantined.
        assert summary.computed_cells == 1
        assert summary.quarantined_cells == 1
        assert summary.quarantine_path == out + ".quarantine.jsonl"
        with open(summary.quarantine_path, encoding="utf-8") as handle:
            (quarantined,) = [json.loads(line) for line in handle]
        assert quarantined["cell_id"].startswith("crash-always|")
        assert quarantined["attempts"] == 2  # first attempt + 1 retry
        assert quarantined["worker_exitcodes"] == [-9, -9]
        assert "WorkerCrash" in quarantined["error"]
        # The main JSONL holds only real rows.
        with open(out, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        assert [row["cell_id"] for row in rows] == [
            cell.cell_id for cell in spec.expand() if cell.protocol == "nab"
        ]

    def test_resume_completes_quarantined_cells_and_clears_the_file(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "markers"
        marker.mkdir()
        # Dies twice, then succeeds — but the first run only tolerates one
        # retry, so the cell lands in quarantine.
        crasher = _CrashUntilSentinel("crash-twice", str(marker), 2)
        monkeypatch.setitem(_REGISTRY, "crash-twice", crasher)
        spec = _crash_spec("crash-twice")
        out = str(tmp_path / "rows.jsonl")
        first = run_spec(
            spec, out_path=out, workers=2, retry_backoff=0, max_cell_retries=1
        )
        assert first.quarantined_cells == 1
        assert os.path.exists(out + ".quarantine.jsonl")
        # Resume: the quarantined cell is simply pending again, succeeds now,
        # and the stale quarantine file is cleared.
        second = run_spec(spec, out_path=out, workers=2, retry_backoff=0)
        assert second.computed_cells == 1
        assert second.quarantined_cells == 0
        assert not os.path.exists(out + ".quarantine.jsonl")
        # The final file equals an undisturbed run of the same grid.
        clean_out = str(tmp_path / "clean.jsonl")
        run_spec(spec, out_path=clean_out, workers=2, retry_backoff=0)
        assert _read_bytes(out) == _read_bytes(clean_out)

    def test_stale_quarantine_is_reported_when_resume_retries_nothing(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "markers"
        marker.mkdir()
        monkeypatch.setitem(
            _REGISTRY,
            "crash-always",
            _CrashUntilSentinel("crash-always", str(marker), 99),
        )
        spec = _crash_spec("crash-always")
        out = str(tmp_path / "rows.jsonl")
        first = run_spec(
            spec, out_path=out, workers=2, retry_backoff=0, max_cell_retries=1
        )
        assert first.quarantined_cells == 1
        # Resume with limit=0: nothing is retried, so without the stale check
        # the leftover quarantine file would vanish from the summary.
        second = run_spec(spec, out_path=out, workers=2, limit=0)
        assert second.quarantined_cells == 0
        assert second.stale_quarantined_cells == 1
        assert second.quarantine_path == out + ".quarantine.jsonl"
        assert os.path.exists(out + ".quarantine.jsonl")


    def test_fresh_run_ignores_a_leftover_quarantine_file(self, tmp_path):
        out = str(tmp_path / "rows.jsonl")
        quarantine = out + ".quarantine.jsonl"
        with open(quarantine, "w", encoding="utf-8") as handle:
            handle.write('{"cell_id": "somebody|else"}\n')
        # Resumed, the foreign line is kept and reported ...
        resumed = run_spec(SMALL_SPEC, out_path=out, workers=1, limit=1)
        assert resumed.stale_quarantined_cells == 1
        assert resumed.quarantine_path == quarantine
        # ... but resume=False means fresh: it goes with the output file.
        fresh = run_spec(SMALL_SPEC, out_path=out, workers=1, limit=1, resume=False)
        assert fresh.stale_quarantined_cells == 0
        assert fresh.quarantine_path is None
        assert not os.path.exists(quarantine)


class TestCli:
    def test_list_specs_flag(self, capsys):
        from repro.engine.__main__ import main

        assert main(["--list-specs"]) == 0
        out = capsys.readouterr().out
        assert "nab_vs_classical" in out
        assert "pipelined_nab" in out
        # The original spelling keeps working.
        assert main(["--list"]) == 0

    def test_unknown_spec_is_a_friendly_error(self, capsys):
        from repro.engine.__main__ import main

        assert main(["--spec", "definitely-not-a-spec"]) == 2
        err = capsys.readouterr().err
        assert "unknown spec" in err
        assert "nab_vs_classical" in err

    def test_missing_spec_points_at_list_specs(self, capsys):
        from repro.engine.__main__ import main

        assert main([]) == 2
        assert "--list-specs" in capsys.readouterr().err


class TestReporting:
    def test_render_comparison_shows_protocols_and_bounds(self):
        summary = run_spec(SMALL_SPEC, out_path=None, workers=1)
        table = render_comparison(summary.rows)
        assert "nab bits/unit" in table
        assert "classical-flooding bits/unit" in table
        assert "Eq.6 bound" in table
        assert "Thm.2 bound" in table
        # One line per scenario (6 scenarios) plus header and rule.
        assert len(table.splitlines()) == 2 + 6

    def test_summarize_rows_counts(self):
        summary = run_spec(SMALL_SPEC, out_path=None, workers=1)
        counters = summarize_rows(summary.rows)
        assert counters["cells"] == 12
        assert counters["errors"] == 0
        assert counters["spec_violations"] == 0
        assert counters["dispute_control_executions"] >= 1
