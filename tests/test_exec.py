"""The execution substrate on its own: no NAB, handlers that take milliseconds.

``repro.exec`` is what the sweep runner, the session service and the
adversarial search stand on; these tests hold its three contracts directly —
the atomic writer and tolerant reader, the journal's resume/settle rules, the
supervised pool's protocol, retry clock and admission verdicts — so a defect
there fails here by name rather than as a digest mismatch somewhere above.
"""

from __future__ import annotations

import json
import os
import re
import signal
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.exec import (
    ADMIT,
    DROP,
    HOLD,
    Journal,
    Task,
    dump_row,
    quarantine_path_for,
    read_jsonl,
    run_tasks,
    write_atomically,
    write_rows_atomically,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# ------------------------------------------------------------------- pool
#
# Handlers are module-level so forked workers find them; a request is a small
# dict saying what the handler should do.


def _square(request, emit):
    return request["n"] ** 2


def _count_then_square(request, emit):
    for step in range(request["events"]):
        emit((request["n"], step))
    return request["n"] ** 2


def _die_until_marked(request, emit):
    """SIGKILL this worker ``request["deaths"]`` times (marker files count)."""
    prefix = f"died-{request['n']}-"
    died = len([name for name in os.listdir(request["dir"]) if name.startswith(prefix)])
    if died < request.get("deaths", 0):
        with open(os.path.join(request["dir"], f"{prefix}{died}"), "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return request["n"] ** 2


def _report_pid(request, emit):
    return os.getpid()


def _collect(tasks, workers, handler, **options):
    results = {}
    outcome = run_tasks(
        tasks,
        workers,
        handler,
        lambda task, result: results.__setitem__(task.request["n"], result),
        **options,
    )
    return results, outcome


class TestPoolCompletion:
    @pytest.mark.parametrize("workers", [1, 2, 9])
    def test_pooled_results_equal_serial_results(self, workers):
        tasks = [Task({"n": n}) for n in range(6)]
        results, outcome = _collect(tasks, workers, _square)
        assert results == {n: n * n for n in range(6)}
        assert (outcome.dead, outcome.retried, outcome.holds) == ([], 0, 0)

    def test_no_tasks_is_no_work(self):
        assert _collect([], 2, _square) == ({}, ([], 0, 0, []))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_events_arrive_in_order_before_their_done(self, workers):
        seen = []
        run_tasks(
            [Task({"n": n, "events": 3}) for n in range(4)],
            workers,
            _count_then_square,
            lambda task, result: seen.append((task.request["n"], "done", result)),
            lambda task, payload: seen.append((task.request["n"], "event", payload)),
        )
        for n in range(4):
            assert [entry[1:] for entry in seen if entry[0] == n] == [
                ("event", (n, 0)),
                ("event", (n, 1)),
                ("event", (n, 2)),
                ("done", n * n),
            ]

    def test_farewells_come_from_every_surviving_worker(self):
        _, outcome = _collect([Task({"n": n}) for n in range(4)], 2, _square, farewell=os.getpid)
        assert 1 <= len(outcome.farewells) <= 2
        assert os.getpid() not in outcome.farewells


class TestPoolCrashes:
    def test_mid_task_sigkill_is_retried_on_a_fresh_worker(self, tmp_path):
        tasks = [Task({"n": n, "dir": str(tmp_path), "deaths": int(n == 2)}) for n in range(5)]
        retried = []
        results, outcome = _collect(
            tasks, 2, _die_until_marked, backoff=0, on_retry=retried.append
        )
        assert results == {n: n * n for n in range(5)}
        assert outcome.retried == 1 and outcome.dead == []
        assert retried == [tasks[2]]
        assert (tasks[2].attempts, tasks[2].exitcodes) == (1, [-9])
        assert all(task.attempts == 0 for task in tasks if task is not tasks[2])

    def test_poisoned_task_comes_back_dead_after_its_budget(self, tmp_path):
        tasks = [Task({"n": n, "dir": str(tmp_path), "deaths": 99 * (n == 1)}) for n in range(4)]
        results, outcome = _collect(tasks, 2, _die_until_marked, retries=1, backoff=0)
        assert results == {0: 0, 2: 4, 3: 9}
        assert outcome.dead == [tasks[1]]
        assert outcome.retried == 1
        assert tasks[1].attempts == 2
        assert tasks[1].exitcodes == [-9, -9]

    def test_worker_killed_while_idle_charges_no_attempt(self):
        # The policy keeps one task in flight, so the worker that ran the
        # first task is idle — and killed from its own on_done — before the
        # second is offered to it.
        tasks = [Task({"n": 0}), Task({"n": 1})]
        pids = []

        def kill_the_idle_worker(task, pid):
            pids.append(pid)
            if len(pids) == 1:
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                        if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                            break
                    time.sleep(0.005)

        outcome = run_tasks(
            tasks,
            2,
            _report_pid,
            kill_the_idle_worker,
            admit=lambda task, unfinished: HOLD if unfinished else ADMIT,
        )
        assert len(pids) == 2 and pids[0] != pids[1]
        assert [(task.attempts, task.exitcodes) for task in tasks] == [(0, []), (0, [])]
        assert (outcome.dead, outcome.retried) == ([], 0)

    def test_a_backoff_belongs_to_its_task_not_to_the_pool(self, tmp_path):
        # Two poisoned-once tasks and six healthy ones: the two 0.5 s waits
        # run side by side and nobody else waits for them.
        tasks = [
            Task({"n": n, "dir": str(tmp_path), "deaths": int(n < 2)}) for n in range(8)
        ]
        order = []
        started = time.perf_counter()
        outcome = run_tasks(
            tasks,
            2,
            _die_until_marked,
            lambda task, result: order.append(task.request["n"]),
            backoff=0.5,
        )
        elapsed = time.perf_counter() - started
        assert outcome.retried == 2 and outcome.dead == []
        assert sorted(order[:6]) == [2, 3, 4, 5, 6, 7]
        assert sorted(order[6:]) == [0, 1]
        assert 0.5 <= elapsed < 1.0


class TestAdmission:
    def test_hold_drop_and_admit_verdicts(self):
        asked = []

        def one_at_a_time_no_odd_numbers(task, unfinished):
            asked.append((task.request["n"], unfinished))
            if unfinished:
                return HOLD
            return DROP if task.request["n"] % 2 else ADMIT

        order = []
        outcome = run_tasks(
            [Task({"n": n}) for n in range(6)],
            3,
            _square,
            lambda task, result: order.append(task.request["n"]),
            admit=one_at_a_time_no_odd_numbers,
        )
        # Dropped tasks never ran; held ones ran strictly after what held them.
        assert order == [0, 2, 4]
        assert {unfinished for _n, unfinished in asked} == {0, 1}
        assert outcome.holds >= 2

    def test_in_process_runs_have_no_queue_to_shed_from(self):
        results, _ = _collect(
            [Task({"n": n}) for n in range(3)], 1, _square, admit=lambda task, unfinished: DROP
        )
        assert results == {0: 0, 1: 1, 2: 4}

    def test_holding_with_nothing_running_is_an_error_not_a_hang(self):
        with pytest.raises(ConfigurationError):
            run_tasks(
                [Task({"n": 0})], 2, _square, lambda task, result: None,
                admit=lambda task, unfinished: HOLD,
            )


# ---------------------------------------------------------------- journal

KEYS = [f"task-{index}" for index in range(5)]
STAMPS = {key: {"schema": 1, "owner": "me", "seed": len(key) + index} for index, key in enumerate(KEYS)}


def _row(key: str, **overrides) -> dict:
    row = {"key": key, **STAMPS.get(key, {"schema": 1, "owner": "me", "seed": 0})}
    row.update({"value": key.upper(), "error": None})
    row.update(overrides)
    return row


FRESH = "".join(dump_row(_row(key)) + "\n" for key in KEYS).encode()

_usable = st.sampled_from(KEYS).map(lambda key: ("usable", key, dump_row(_row(key))))
_unusable = st.one_of(
    # A row torn anywhere by a kill mid-write.
    st.tuples(st.sampled_from(KEYS), st.integers(1, 20)).map(
        lambda pair: dump_row(_row(pair[0]))[: -pair[1]]
    ),
    # Garbage, and JSON that is not an object.
    st.text(alphabet=string.ascii_letters + string.digits + ' {}[]:,"', max_size=30).map(
        lambda text: "#" + text
    ),
    st.sampled_from(["[1, 2, 3]", "3", "null", '"task-0"', "{}", '{"key": ["task-0"]}']),
    # Rows of another run: unknown key, another owner, seed or schema.
    st.just(dump_row(_row("task-99"))),
    st.sampled_from(KEYS).map(lambda key: dump_row(_row(key, owner="you"))),
    st.sampled_from(KEYS).map(lambda key: dump_row(_row(key, seed=-1))),
    st.sampled_from(KEYS).map(lambda key: dump_row(_row(key, schema=2))),
    # A row that recorded a failure is retried, not frozen in.
    st.sampled_from(KEYS).map(lambda key: dump_row(_row(key, error="Boom: transient"))),
).map(lambda text: ("unusable", None, text))
_blank = st.sampled_from(["", "   "]).map(lambda text: ("blank", None, text))


class TestJournal:
    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(st.one_of(_usable, _unusable, _blank), max_size=12),
        final_newline=st.booleans(),
    )
    def test_resume_and_settle_write_the_bytes_of_a_fresh_run(
        self, tmp_path_factory, lines, final_newline
    ):
        path = str(tmp_path_factory.mktemp("journal") / "rows.jsonl")
        text = "\n".join(text for _kind, _key, text in lines)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + ("\n" if final_newline and lines else ""))
        journal = Journal(path, "key", STAMPS)
        assert journal.discarded == sum(1 for kind, _key, _text in lines if kind == "unusable")
        assert set(journal.completed) == {key for kind, key, _text in lines if kind == "usable"}
        with journal:
            for key in KEYS:
                if key not in journal.completed:
                    journal.append(_row(key))
                    # However the old file ended, every line stays parseable.
                    assert read_jsonl(path)[1] == 0
        assert journal.settle() == [_row(key) for key in KEYS]
        assert _read_bytes(path) == FRESH
        assert journal.quarantine_path is None

    def test_in_memory_journal_keeps_canonical_order(self):
        journal = Journal(None, "key", STAMPS)
        with journal:
            for key in reversed(KEYS):
                journal.append(_row(key))
        assert [row["key"] for row in journal.settle()] == KEYS

    def test_quarantine_is_written_vindicated_and_reported_stale(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        quarantine = quarantine_path_for(path)
        first = Journal(path, "key", STAMPS)
        with first:
            first.append(_row(KEYS[0]))
        first.settle([{"key": KEYS[1], "attempts": 3}, {"key": KEYS[2], "attempts": 3}])
        assert first.quarantine_path == quarantine
        with open(quarantine, "a", encoding="utf-8") as handle:
            handle.write("torn li")
        # One named task completes; the other and the corrupt line are stale.
        second = Journal(path, "key", STAMPS)
        with second:
            second.append(_row(KEYS[1]))
        second.settle()
        assert (second.stale_quarantined, second.quarantine_path) == (2, quarantine)
        # Everything it can name has a row and nothing else is in it: removed.
        write_rows_atomically(quarantine, [{"key": KEYS[1]}, {"key": KEYS[2]}])
        third = Journal(path, "key", STAMPS)
        with third:
            third.append(_row(KEYS[2]))
        third.settle()
        assert (third.stale_quarantined, third.quarantine_path) == (0, None)
        assert not os.path.exists(quarantine)

    def test_not_resuming_removes_the_quarantine_file_too(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        write_rows_atomically(path, [_row(KEYS[0])])
        write_rows_atomically(quarantine_path_for(path), [{"key": "somebody-else"}])
        journal = Journal(path, "key", STAMPS, resume=False)
        assert (journal.completed, journal.discarded) == ({}, 0)
        with journal:
            pass
        journal.settle()
        assert (journal.stale_quarantined, journal.quarantine_path) == (0, None)
        assert not os.path.exists(quarantine_path_for(path))
        assert _read_bytes(path) == b""


class TestReadJsonl:
    def test_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "absent.jsonl")) == ([], 0)

    def test_undecodable_bytes_are_counted_not_fatal(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"a":1}\n\xff\xfe{"b"\n\n{"c":3}')
        assert read_jsonl(path) == ([{"a": 1}, {"c": 3}], 1)


# ----------------------------------------------------------- atomic writer
#
# Every full-file write in src/ — compaction, pre-append rewrite, WAL
# rewrite, quarantine file, status.json — is this one function (see
# TestOneOfEach), so these hold for all of them.


class TestCrashSafeWrites:
    def test_kill_between_write_and_rename_preserves_the_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "rows.jsonl")
        write_rows_atomically(path, [{"a": 1}, {"b": 2}])
        before = _read_bytes(path)
        assert before == b'{"a":1}\n{"b":2}\n'

        # Simulate a SIGKILL landing mid-write: the fsync (the last step
        # before the rename) never returns.
        def killed(fd):
            raise KeyboardInterrupt("killed mid-compaction")

        monkeypatch.setattr(os, "fsync", killed)
        with pytest.raises(KeyboardInterrupt):
            write_rows_atomically(path, [{"c": 3}])
        assert _read_bytes(path) == before
        assert not os.path.exists(path + ".tmp")

    def test_tmp_file_is_fsynced_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (events.append("replace"), real_replace(src, dst))[1]
        )
        path = str(tmp_path / "status.json")
        write_atomically(path, ["{", "}\n"])
        assert events == ["fsync", "replace", "fsync"]
        assert _read_bytes(path) == b"{}\n"

    def test_directory_fsync_is_best_effort(self, tmp_path, monkeypatch):
        real_fsync, calls = os.fsync, []

        def fsync(fd):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError("this filesystem cannot fsync a directory")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = str(tmp_path / "rows.jsonl")
        write_rows_atomically(path, [{"a": 1}])
        assert _read_bytes(path) == b'{"a":1}\n'

    def test_failed_write_cleans_up_its_tmp_file(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")

        class Unserialisable:
            pass

        with pytest.raises(TypeError):
            write_rows_atomically(path, [{"ok": 1}, {"bad": Unserialisable()}])
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")


# ------------------------------------------------------------- one of each


def _files_matching(pattern: str) -> set:
    found = set()
    for directory, _subdirs, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    if re.search(pattern, handle.read()):
                        found.add(os.path.relpath(path, SRC))
    return found


class TestOneOfEach:
    def test_one_supervisor_one_atomic_writer_one_tolerant_reader(self):
        assert _files_matching(r"connection\.wait\(|connection import .*\bwait\b") == {"exec.py"}
        assert _files_matching(r"os\.replace\(") == {"exec.py", os.path.join("gf", "backends.py")}
        assert _files_matching(r"JSONDecodeError") == {
            "exec.py",
            os.path.join("service", "__main__.py"),
        }

    def test_runner_and_pool_hold_no_supervision_or_file_format_code(self):
        for name in (os.path.join("engine", "runner.py"), os.path.join("service", "pool.py")):
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                source = handle.read()
            for forbidden in ("Pipe", "Process", "connection.wait", "os.replace", "json.loads"):
                assert forbidden not in source, f"{name} mentions {forbidden}"

    def test_search_reaches_into_no_other_package(self):
        with open(os.path.join(SRC, "adversary", "search.py"), encoding="utf-8") as handle:
            imports = re.findall(r"^from (repro\.\S+) import \(?([^)]*?)\)?$", handle.read(), re.M | re.S)
        assert imports
        for module, names in imports:
            for name in re.split(r"[\s,]+", names.strip()):
                assert not name.startswith("_"), f"search.py imports {module}.{name}"

    def test_status_json_goes_through_the_atomic_writer(self, tmp_path, monkeypatch):
        from repro.service import BroadcastSessionService, ServiceConfig, generate_sessions

        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (replaced.append(dst), real_replace(src, dst))[1]
        )
        out = str(tmp_path / "sessions.jsonl")
        sessions = generate_sessions(1, topologies=("k4-fast",), service="svc")
        summary = BroadcastSessionService(ServiceConfig(name="svc", out_path=out)).run(sessions)
        assert summary.status_path in replaced
        with open(summary.status_path, encoding="utf-8") as handle:
            assert json.load(handle)["settled_sessions"] == 1
