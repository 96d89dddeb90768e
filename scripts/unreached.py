#!/usr/bin/env python
"""List the ``src/`` functions no run reaches, by function-entry measurement.

Two stages run in fresh interpreters under a ``sys.setprofile`` hook that
records every function entry: the tier-1 suite (``pytest -q``), and the runs
— one cell of every shape (protocol, execution, link model, fault plan,
strategy; smallest payload) of every registered spec, then one small service
batch (two-instance sessions, so each checkpoints once) on two forked workers.  Forked workers are followed too: each child
hands its entries back through a file when it exits.  Every function defined
under ``src/repro`` is then one of:

* ``never entered`` by either stage;
* ``tests only``: entered while tier-1 ran, never by the runs;
* reached by the runs, and not listed.

Lambdas and comprehensions are not listed.  Arguments are path prefixes that
filter the listing (default: all of ``src/``); stage output goes to stderr.

Usage:
    PYTHONPATH=src python scripts/unreached.py [src/repro/gf/ ...]
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
entered = set()  # code objects


def hook(frame, event, _arg):
    if event == "call":
        entered.add(frame.f_code)


def dump(stage: str, spool: str) -> None:
    sys.setprofile(None)  # else the comprehension below grows the set it reads
    found = {(code.co_filename, code.co_firstlineno, code.co_qualname) for code in entered}
    with open(os.path.join(spool, f"{stage}-{os.getpid()}.pickle"), "wb") as handle:
        pickle.dump(found, handle)


class Rehook:
    """A pytest plugin: a test that runs ``cProfile`` leaves no profile hook."""

    @staticmethod
    def pytest_runtest_setup(item):
        sys.setprofile(hook)


def tests_stage(_spool: str) -> None:
    import pytest

    print("tier-1 exit status:", pytest.main(["-q", "-p", "no:cacheprovider", ROOT], plugins=[Rehook()]))


def runs_stage(spool: str) -> None:
    from repro.engine.runner import run_cell
    from repro.engine.specs import get_spec, named_specs
    from repro.service.__main__ import main as service_main

    for name in named_specs():
        shapes = {}
        for cell in sorted(get_spec(name).expand(), key=lambda cell: cell.payload_bytes):
            shape = (cell.protocol, cell.execution, cell.link_model, cell.fault_plan, cell.strategy)
            shapes.setdefault(shape, cell)
        errors = [row["error"] for row in map(run_cell, shapes.values()) if row["error"]]
        print(f"{name}: {len(shapes)} cells, errors: {errors}")
    service_main(
        ["--out", os.path.join(spool, "sessions.jsonl"), "--sessions", "12", "--workers", "2"]
        + ["--strategies", "fault-free,equality-garbage", "--max-faults", "1"]
        + ["--instances", "2"]  # a one-instance session never checkpoints to the WAL
    )


def traced(stage: str, spool: str) -> None:
    import multiprocessing.util

    def follow_fork(_hook):
        # A forked worker leaves through multiprocessing, not atexit, and its
        # bootstrap clears the finalizer registry before it runs these
        # callbacks: a finalizer registered any earlier (os.register_at_fork)
        # is gone by the time the worker exits.
        multiprocessing.util.Finalize(None, dump, args=(stage, spool), exitpriority=0)

    multiprocessing.util.register_after_fork(hook, follow_fork)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        {"tests": tests_stage, "runs": runs_stage}[stage](spool)
    finally:
        dump(stage, spool)


def defined():
    """``(path, line, qualified name)`` of every function in ``src/repro``."""
    for folder, _dirs, files in os.walk(SRC):
        for path in sorted(os.path.join(folder, name) for name in files if name.endswith(".py")):
            with open(path, encoding="utf-8") as handle:
                stack = [compile(handle.read(), path, "exec")]
            while stack:
                code = stack.pop()
                stack.extend(const for const in code.co_consts if hasattr(const, "co_code"))
                if not code.co_name.startswith("<"):
                    yield code.co_filename, code.co_firstlineno, code.co_qualname


def main(prefixes) -> None:
    spool = tempfile.mkdtemp(prefix="unreached-")
    try:
        for stage in ("tests", "runs"):
            command = [sys.executable, os.path.abspath(__file__), "--stage", stage, spool]
            subprocess.run(command, check=True, cwd=ROOT, stdout=sys.stderr)
        reached = {"tests": set(), "runs": set()}
        for name in os.listdir(spool):
            if name.endswith(".pickle"):
                with open(os.path.join(spool, name), "rb") as handle:
                    reached[name.split("-")[0]] |= pickle.load(handle)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    prefixes = [os.path.abspath(prefix) for prefix in prefixes] or [SRC]
    for function in sorted(set(defined())):
        if function not in reached["runs"] and any(map(function[0].startswith, prefixes)):
            label = "tests only" if function in reached["tests"] else "never entered"
            print(f"{label:14} {os.path.relpath(function[0], ROOT)}:{function[1]} {function[2]}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--stage"]:
        traced(sys.argv[2], sys.argv[3])
    else:
        main(sys.argv[1:])
