"""The supervised session pool, WAL and orchestrator under crashes and load.

Worker deaths use the engine-runner crash idiom: a monkeypatched
``run_session`` that SIGKILLs its own worker process right after streaming a
checkpoint (marker files bound the crash count; workers inherit the patch
through ``fork``).  The contract under test is the tentpole's: a SIGKILLed
worker resumes its session from the write-ahead log and the completed output
is byte-identical to an undisturbed run.
"""

from __future__ import annotations

import json
import os
import signal
from fractions import Fraction

import pytest

from repro.engine.runner import dump_row
from repro.service import pool as pool_module
from repro.service.metrics import ServiceMetrics
from repro.service.pool import (
    ADMISSION_STEPS,
    AdmissionController,
    PoolTask,
    admission_point,
    run_pool,
)
from repro.service.service import (
    BroadcastSessionService,
    ServiceConfig,
    wal_path_for,
)
from repro.service.session import SESSION_SCHEMA_VERSION, run_session
from repro.service.wal import WriteAheadLog, load_wal, write_rows_atomically
from repro.service.workload import generate_sessions


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _workload(count, **overrides):
    arguments = dict(
        topologies=("k4-fast", "bottleneck4"),
        strategies=("fault-free", "equality-garbage"),
        payload_bytes=2,
        instances=3,
        max_faults=1,
        seed=11,
        service="pool-test",
    )
    arguments.update(overrides)
    return generate_sessions(count, **arguments)


def _run(sessions, workers, **overrides):
    metrics = ServiceMetrics()
    rows = {}
    snapshots = []
    retried, quarantined = run_pool(
        [PoolTask(spec=spec) for spec in sessions],
        workers=workers,
        emit=lambda row, task: rows.__setitem__(task.spec.session_id, row),
        wal_append=snapshots.append,
        metrics=metrics,
        retry_backoff=0,
        **overrides,
    )
    return rows, snapshots, retried, quarantined, metrics


def _assert_discarded_for_a_fresh_run(tmp_path, spec, snapshot):
    """A WAL holding ``snapshot`` resumes into a fresh run of ``spec``, byte
    for byte, with the snapshot counted as discarded and dropped from the WAL."""
    out = str(tmp_path / "sessions.jsonl")
    with WriteAheadLog(wal_path_for(out)) as wal:
        wal.append(snapshot)
    summary = BroadcastSessionService(ServiceConfig(name="pool-test", out_path=out)).run([spec])
    assert summary.metrics.sessions_restored == 0
    assert summary.discarded_rows == 1
    assert summary.rows[0]["error"] is None
    assert not os.path.exists(wal_path_for(out))
    fresh = str(tmp_path / "fresh.jsonl")
    BroadcastSessionService(ServiceConfig(name="pool-test", out_path=fresh)).run([spec])
    assert _read_bytes(out) == _read_bytes(fresh)


class TestPoolCompletion:
    def test_pooled_rows_equal_serial_rows_bit_for_bit(self):
        sessions = _workload(8)
        serial_rows, _, _, _, _ = _run(sessions, workers=1)
        pooled_rows, _, _, _, _ = _run(sessions, workers=3)
        assert set(pooled_rows) == set(serial_rows)
        for session_id, row in serial_rows.items():
            assert dump_row(pooled_rows[session_id]) == dump_row(row)

    def test_pool_streams_checkpoints_to_the_wal(self):
        sessions = _workload(4)
        _, snapshots, _, _, metrics = _run(sessions, workers=2)
        # 3 instances per session -> 2 checkpoints each.
        assert len(snapshots) == 8
        assert metrics.snapshots_written == 8
        assert all(row["kind"] == "snapshot" for row in snapshots)

    def test_bad_session_yields_error_row_not_a_stalled_pool(self):
        sessions = _workload(3)
        # An unknown strategy is a deterministic failure inside the worker.
        broken = sessions[1]
        sessions[1] = type(broken)(
            **{**broken.__dict__, "strategy": "no-such-strategy"}
        )
        rows, _, retried, quarantined, _ = _run(sessions, workers=2)
        assert retried == 0 and quarantined == []
        assert rows[sessions[1].session_id]["error"] is not None
        assert rows[sessions[0].session_id]["error"] is None
        assert rows[sessions[2].session_id]["error"] is None


def _install_crashy_run_session(monkeypatch, marker_dir, victims, crashes=1):
    """SIGKILL the worker right after the victim session's first checkpoint.

    ``crashes`` marker files bound how many times each victim takes its
    worker down; the checkpoint reaches the supervisor's pipe before the
    kill, so the retry resumes mid-flight.
    """
    real = run_session

    def crashy(spec, snapshot=None, checkpoint=None, checkpoint_every=1):
        def checkpoint_then_die(row):
            if checkpoint is not None:
                checkpoint(row)
            if spec.session_id in victims:
                died = len(
                    [
                        entry
                        for entry in os.listdir(marker_dir)
                        if entry.startswith(spec.session_id.replace("/", "_"))
                    ]
                )
                if died < crashes:
                    marker = os.path.join(
                        marker_dir, f"{spec.session_id.replace('/', '_')}-{died}"
                    )
                    with open(marker, "w"):
                        pass
                    os.kill(os.getpid(), signal.SIGKILL)

        return real(
            spec,
            snapshot=snapshot,
            checkpoint=checkpoint_then_die,
            checkpoint_every=checkpoint_every,
        )

    monkeypatch.setattr(pool_module, "run_session", crashy)


class TestCrashTolerantPool:
    def test_sigkilled_worker_resumes_from_its_checkpoint(
        self, tmp_path, monkeypatch
    ):
        sessions = _workload(6)
        reference_rows, _, _, _, _ = _run(sessions, workers=2)
        victim = sessions[2].session_id
        _install_crashy_run_session(monkeypatch, str(tmp_path), {victim})
        rows, snapshots, retried, quarantined, metrics = _run(sessions, workers=2)
        assert retried == 1
        assert quarantined == []
        assert metrics.sessions_restored >= 1
        for session_id, row in reference_rows.items():
            assert dump_row(rows[session_id]) == dump_row(row)
        # The victim's retry resumed mid-flight rather than starting over:
        # its snapshot stream shows a non-zero instance index.
        victim_snapshots = [
            row for row in snapshots if row["session_id"] == victim
        ]
        assert any(row["state"]["instances_run"] >= 1 for row in victim_snapshots)

    def test_poisoned_session_is_quarantined_not_fatal(
        self, tmp_path, monkeypatch
    ):
        sessions = _workload(4)
        victim = sessions[1].session_id
        _install_crashy_run_session(
            monkeypatch, str(tmp_path), {victim}, crashes=99
        )
        rows, _, retried, quarantined, metrics = _run(
            sessions, workers=2, max_session_retries=1
        )
        assert retried == 1
        assert len(quarantined) == 1
        assert metrics.sessions_quarantined == 1
        (row,) = quarantined
        assert row["session_id"] == victim
        assert row["attempts"] == 2
        assert row["worker_exitcodes"] == [-9, -9]
        assert "WorkerCrash" in row["error"]
        assert victim not in rows
        assert len(rows) == 3


class TestAdmissionController:
    def test_lattice_point_is_deterministic_and_in_range(self):
        point = admission_point(3, "svc/000001/k4-fast/fault-free")
        assert point == admission_point(3, "svc/000001/k4-fast/fault-free")
        assert Fraction(0) <= point < Fraction(1)
        assert point.denominator <= ADMISSION_STEPS
        assert point != admission_point(4, "svc/000001/k4-fast/fault-free")

    def test_shed_fraction_ramps_between_the_limits(self):
        admission = AdmissionController(seed=0, soft_limit=10, hard_limit=20)
        assert admission.shed_fraction(0) == 0
        assert admission.shed_fraction(9) == 0
        assert admission.shed_fraction(10) == 0
        assert admission.shed_fraction(15) == Fraction(1, 2)
        assert admission.shed_fraction(20) == 1
        assert admission.shed_fraction(999) == 1

    def test_disabled_controller_admits_everything(self):
        admission = AdmissionController()
        assert admission.admits("anything", 10**9)

    def test_full_overload_sheds_exactly_the_lattice(self):
        admission = AdmissionController(seed=5, soft_limit=0, hard_limit=1)
        for index in range(50):
            session_id = f"svc/{index:06d}/k4-fast/fault-free"
            # At or beyond the hard limit the whole lattice is shed.
            assert not admission.admits(session_id, 1)
            # Below the soft limit everything is admitted.
            assert admission.admits(session_id, -1) or True

    def test_overloaded_pool_sheds_exactly_the_lattice_prediction(self):
        # soft = -1, hard = 1 pins every admission decision at fraction 1/2
        # regardless of worker timing: the shed set is exactly the half of
        # the lattice below 1/2, making the integration test deterministic.
        sessions = _workload(10, instances=1)
        admission = AdmissionController(seed=2, soft_limit=-1, hard_limit=1)
        expected_shed = {
            spec.session_id
            for spec in sessions
            if admission_point(2, spec.session_id) < Fraction(1, 2)
        }
        assert expected_shed  # the seed was chosen so overload sheds something
        shed_ids = []
        metrics = ServiceMetrics()
        rows = {}
        run_pool(
            [PoolTask(spec=spec) for spec in sessions],
            workers=2,
            emit=lambda row, task: rows.__setitem__(task.spec.session_id, row),
            wal_append=lambda row: None,
            metrics=metrics,
            retry_backoff=0,
            admission=admission,
            on_shed=lambda spec: shed_ids.append(spec.session_id),
        )
        assert set(shed_ids) == expected_shed
        # Every session either completed or was shed — none lost.
        assert set(rows) | set(shed_ids) == {s.session_id for s in sessions}
        assert metrics.sessions_shed == len(shed_ids)


class TestWriteAheadLog:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "log.wal.jsonl")
        with WriteAheadLog(path, fsync_every=2) as wal:
            for index in range(3):
                wal.append(
                    {
                        "kind": "snapshot",
                        "schema": SESSION_SCHEMA_VERSION,
                        "session_id": "s/1",
                        "state": {"instances_run": index},
                    }
                )
            wal.append(
                {
                    "kind": "shed",
                    "schema": SESSION_SCHEMA_VERSION,
                    "session_id": "s/2",
                }
            )
        snapshots, shed_ids, discarded = load_wal(
            path, schema=SESSION_SCHEMA_VERSION
        )
        assert discarded == 0
        assert shed_ids == {"s/2"}
        # Latest snapshot per session wins.
        assert snapshots["s/1"]["state"]["instances_run"] == 2

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "log.wal.jsonl")
        with WriteAheadLog(path) as wal:
            wal.append(
                {
                    "kind": "snapshot",
                    "schema": SESSION_SCHEMA_VERSION,
                    "session_id": "s/1",
                    "state": {"instances_run": 0},
                }
            )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "snapshot", "session_id": "s/2", "trunc')
        snapshots, _, discarded = load_wal(path)
        assert list(snapshots) == ["s/1"]
        assert discarded == 1

    def test_schema_mismatch_is_discarded(self, tmp_path):
        path = str(tmp_path / "log.wal.jsonl")
        with WriteAheadLog(path) as wal:
            wal.append({"kind": "snapshot", "schema": 999, "session_id": "s/1"})
        snapshots, _, discarded = load_wal(path, schema=SESSION_SCHEMA_VERSION)
        assert snapshots == {}
        assert discarded == 1

    def test_missing_file_is_an_empty_log(self, tmp_path):
        snapshots, shed_ids, discarded = load_wal(str(tmp_path / "absent"))
        assert (snapshots, shed_ids, discarded) == ({}, set(), 0)

    def test_atomic_rewrite_replaces_without_a_partial_state(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        write_rows_atomically(path, [{"a": 1}, {"b": 2}])
        assert _read_bytes(path) == b'{"a":1}\n{"b":2}\n'
        write_rows_atomically(path, [{"c": 3}])
        assert _read_bytes(path) == b'{"c":3}\n'
        assert not os.path.exists(path + ".tmp")


class TestServiceOrchestration:
    def test_fresh_and_rerun_files_are_byte_identical(self, tmp_path):
        sessions = _workload(6)
        first = str(tmp_path / "first.jsonl")
        second = str(tmp_path / "second.jsonl")
        BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=first, workers=2,
                          retry_backoff=0)
        ).run(sessions)
        BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=second, workers=1)
        ).run(sessions)
        assert _read_bytes(first) == _read_bytes(second)
        # Settled runs leave no WAL behind.
        assert not os.path.exists(wal_path_for(first))

    def test_resume_reuses_completed_rows(self, tmp_path):
        sessions = _workload(5)
        out = str(tmp_path / "sessions.jsonl")
        service = BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=out, workers=1)
        )
        service.run(sessions[:3])
        summary = service.run(sessions)
        assert summary.skipped_sessions == 3
        assert summary.computed_sessions == 2
        fresh = str(tmp_path / "fresh.jsonl")
        BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=fresh, workers=1)
        ).run(sessions)
        assert _read_bytes(out) == _read_bytes(fresh)

    def test_mid_flight_wal_snapshot_is_restored_on_resume(self, tmp_path):
        sessions = _workload(4)
        out = str(tmp_path / "sessions.jsonl")
        fresh = str(tmp_path / "fresh.jsonl")
        BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=fresh, workers=1)
        ).run(sessions)
        # Forge an interrupted run: two sessions persisted, one mid-flight
        # checkpoint in the WAL, the rest never started.
        with open(fresh, "rb") as handle:
            completed_lines = handle.readlines()[:2]
        with open(out, "wb") as handle:
            handle.writelines(completed_lines)
        checkpoints = []
        run_session(sessions[2], checkpoint=checkpoints.append)
        with WriteAheadLog(wal_path_for(out)) as wal:
            wal.append(checkpoints[0])
        summary = BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=out, workers=1)
        ).run(sessions)
        assert summary.skipped_sessions == 2
        assert summary.computed_sessions == 2
        assert summary.metrics.sessions_restored == 1
        assert _read_bytes(out) == _read_bytes(fresh)
        assert not os.path.exists(wal_path_for(out))

    def test_large_payload_session_checkpoints_and_resumes(self, tmp_path):
        # A 4 KB output is a ~9900-digit integer and CPython refuses to print
        # integers beyond 4300 digits, so snapshot rows carry outputs as hex;
        # as JSON integers the checkpoint failed and the row came back an error.
        (spec,) = _workload(
            1, topologies=("k7-fast",), strategies=("fault-free",),
            payload_bytes=4096, instances=2,
        )
        summary = BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=str(tmp_path / "big.jsonl"),
                          workers=1, checkpoint_every=1)
        ).run([spec])
        (row,) = summary.rows
        assert row["error"] is None
        assert summary.metrics.snapshots_written == 1
        checkpoints = []
        reference = run_session(spec, checkpoint=checkpoints.append)
        (snapshot,) = checkpoints
        resumed = run_session(spec, snapshot=json.loads(dump_row(snapshot)))
        assert dump_row(resumed) == dump_row(reference) == dump_row(row)

    def test_truncated_output_tail_is_rewritten_cleanly(self, tmp_path):
        sessions = _workload(4)
        out = str(tmp_path / "sessions.jsonl")
        fresh = str(tmp_path / "fresh.jsonl")
        BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=fresh, workers=1)
        ).run(sessions)
        with open(fresh, "rb") as handle:
            content = handle.read()
        # Kill mid-write: the final line is half there, no newline.
        with open(out, "wb") as handle:
            handle.write(content[: len(content) - 40])
        summary = BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=out, workers=1)
        ).run(sessions)
        assert summary.discarded_rows == 1
        assert _read_bytes(out) == _read_bytes(fresh)

    def test_shed_sessions_stay_shed_across_resumes(self, tmp_path):
        sessions = _workload(6, instances=1)
        out = str(tmp_path / "sessions.jsonl")
        first = BroadcastSessionService(
            ServiceConfig(
                name="pool-test", out_path=out, workers=2, retry_backoff=0,
                admission_seed=2, shed_soft_limit=-1, shed_hard_limit=1,
            )
        ).run(sessions)
        assert first.shed_sessions > 0
        # Re-run without overload: previously shed sessions are not revived.
        second = BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=out, workers=1)
        ).run(sessions)
        assert second.shed_sessions == first.shed_sessions
        assert second.computed_sessions == 0
        snapshots, shed_ids, _ = load_wal(wal_path_for(out))
        assert snapshots == {}
        assert len(shed_ids) == first.shed_sessions

    def test_status_file_reports_the_ops_schema(self, tmp_path):
        sessions = _workload(3)
        out = str(tmp_path / "sessions.jsonl")
        summary = BroadcastSessionService(
            ServiceConfig(name="pool-test", out_path=out, workers=1)
        ).run(sessions)
        assert summary.status_path is not None
        with open(summary.status_path, encoding="utf-8") as handle:
            status = json.load(handle)
        metrics = status["metrics"]
        assert status["service"] == "pool-test"
        assert status["settled_sessions"] == 3
        assert metrics["sessions"]["completed"] == 3
        assert metrics["snapshots"]["written"] == 6
        assert metrics["throughput"]["sessions_per_minute"] > 0
        assert metrics["latency"]["count"] == 3
        # Every registered cache family reports, not a hand-picked four.
        assert {
            "topology_contexts", "instance_parameters", "mincut", "kernels",
            "gomory_hu", "arborescence_packs", "relay_paths", "rank_verdicts",
            "rss_bytes",
        } <= set(metrics["caches"])
        assert set(metrics["degradation"]) == {"backpressure_waits"}

    def test_snapshot_left_by_another_seed_is_not_a_resume_point(self, tmp_path):
        # Session ids do not contain the seed: restoring seed 1's state into
        # the seed 2 session persisted a row with validity_ok false for a
        # fault-free source — a fabricated specification violation.
        def session(seed):
            (spec,) = generate_sessions(
                1, topologies=("k4-fast",), payload_bytes=2, instances=3,
                seed=seed, service="svc",
            )
            return spec

        checkpoints = []
        run_session(session(1), checkpoint=checkpoints.append)
        out = str(tmp_path / "sessions.jsonl")
        with WriteAheadLog(wal_path_for(out)) as wal:
            wal.append(checkpoints[-1])
        summary = BroadcastSessionService(
            ServiceConfig(name="svc", out_path=out)
        ).run([session(2)])
        assert summary.metrics.sessions_restored == 0
        assert summary.discarded_rows == 1
        assert summary.rows[0]["record"]["validity_ok"] is True
        fresh = str(tmp_path / "fresh.jsonl")
        BroadcastSessionService(
            ServiceConfig(name="svc", out_path=fresh)
        ).run([session(2)])
        assert _read_bytes(out) == _read_bytes(fresh)

    @pytest.mark.parametrize("pending", [["ffff", "ffff"], "truncate"])
    def test_snapshot_with_foreign_pending_inputs_is_not_a_resume_point(
        self, tmp_path, pending
    ):
        # Such a snapshot resumed into a row unlike the fresh run's (or, cut
        # short, into a record of fewer instances than the session has).
        (spec,) = _workload(
            1, topologies=("k4-fast",), strategies=("equality-garbage",), instances=4
        )
        checkpoints = []
        run_session(spec, checkpoint=checkpoints.append)
        snapshot = json.loads(dump_row(checkpoints[1]))
        snapshot["pending_inputs"] = (
            snapshot["pending_inputs"][:1] if pending == "truncate" else pending
        )
        _assert_discarded_for_a_fresh_run(tmp_path, spec, snapshot)

    @pytest.mark.parametrize(
        "mutate",
        [
            # Results written before these keys existed.
            lambda snapshot: [
                result.pop(key)
                for result in snapshot["results"]
                for key in ("link_bits", "phase1_depth", "newly_identified_faulty")
            ],
            lambda snapshot: snapshot["state"].update(instances_run="2"),
            lambda snapshot: snapshot.update(
                results=snapshot["results"] + snapshot["results"][-1:],
                pending_inputs=snapshot["pending_inputs"][1:],
            ),
        ],
        ids=["older-layout", "index-as-string", "duplicated-result"],
    )
    def test_snapshot_the_restore_parsers_refuse_is_not_a_resume_point(self, tmp_path, mutate):
        # It matches its session field for field, so it used to reach the
        # worker, fail to restore there and persist an error row.
        (spec,) = _workload(
            1, topologies=("k4-fast",), strategies=("equality-garbage",), instances=4
        )
        checkpoints = []
        run_session(spec, checkpoint=checkpoints.append)
        snapshot = json.loads(dump_row(checkpoints[1]))
        mutate(snapshot)
        _assert_discarded_for_a_fresh_run(tmp_path, spec, snapshot)

    def test_fresh_run_ignores_a_leftover_quarantine_file(self, tmp_path, capsys):
        from repro.service.__main__ import main

        out = str(tmp_path / "sessions.jsonl")
        quarantine = out + ".quarantine.jsonl"
        write_rows_atomically(quarantine, [{"session_id": "somebody/else"}])
        sessions = _workload(2)
        config = ServiceConfig(name="pool-test", out_path=out, workers=1)
        # Resumed, the foreign line is kept and reported ...
        resumed = BroadcastSessionService(config).run(sessions)
        assert resumed.stale_quarantined_sessions == 1
        assert main(["--status", "--out", out]) == 1
        # ... but --fresh means fresh: it goes with the output and the WAL.
        fresh = BroadcastSessionService(config).run(sessions, resume=False)
        assert fresh.stale_quarantined_sessions == 0
        assert fresh.quarantine_path is None
        assert not os.path.exists(quarantine)
        assert main(["--status", "--out", out]) == 0
        assert "health: ok" in capsys.readouterr().out
