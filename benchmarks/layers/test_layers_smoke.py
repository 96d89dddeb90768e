"""Tier-1 smoke test of the reference benchmark (collected by plain ``pytest``).

One ``--smoke`` run (a tiny batch per workload, each in a fresh interpreter)
checks the command end to end; the manifest comparison keeps ``BENCHMARK.json``
and the code from drifting apart; the tracer is exercised in-process.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import seams  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("layers") / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "5", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_emits_every_end_to_end_metric(smoke_report):
    registered = smoke_report["benchmark"]
    workloads = [entry["name"] for entry in registered["workloads"]]
    assert list(smoke_report["workloads"]) == sorted(workloads) and len(workloads) == 6
    assert smoke_report["ok"] is True
    assert {"cpu_count", "python", "numpy", "platform", "loadavg_at_start"} <= set(
        smoke_report["host"]
    )
    for name in workloads:
        entry = smoke_report["workloads"][name]
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        assert entry["failed_ops_share"] == 0
        for metric in registered["end_to_end"]:
            cell = entry["end_to_end"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert cell["value"] > 0, (name, metric["name"])
            assert cell["samples"], (name, metric["name"])


def test_benchmark_json_matches_the_registered_manifest(smoke_report):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == smoke_report["benchmark"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in committed[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert all(len(entry["why"]) <= 200 for entry in committed["workloads"])
    assert len(committed["per_layer"]) <= 128
    assert any(
        metric == {"name": "setup_s", "unit": "s", "better": "lower", "bound": metric["bound"]}
        for metric in committed["end_to_end"]
    )
    assert all(0 <= metric["bound"] <= 0.25 for metric in committed["end_to_end"])
    with open(os.path.join(HERE, "pins.json"), "r", encoding="utf-8") as handle:
        assert set(json.load(handle)) == {entry["name"] for entry in committed["workloads"]}


def test_unresolvable_seam_is_reported_missing_and_wrappers_are_removed():
    from repro.gf import symbols

    original = symbols.bits_to_symbols
    tracer = tracing.Tracer(
        [
            seams.Seam("gf.symbols", "gf", ("repro.gf.symbols:bits_to_symbols",)),
            seams.Seam("gone.function", "gf", ("repro.gf.symbols:no_such_function",)),
            seams.Seam("gone.module", "gf", ("repro.no_such_module:anything",)),
        ],
        {"gone.counter": "repro.gf.symbols:_NoSuchClass.method"},
    )
    tracer.install()
    try:
        assert symbols.bits_to_symbols is not original
        traced = tracer.root(lambda: symbols.bits_to_symbols(0b1011, 4, 2))()
    finally:
        tracer.uninstall()
    assert symbols.bits_to_symbols is original
    assert traced == original(0b1011, 4, 2)
    assert tracer.missing == ["gone.function", "gone.module", "gone.counter"]
    stats = tracer.seam_stats()
    assert stats["gf.symbols"]["calls"] == 1 and stats["gone.function"]["calls"] == 0
    # Self times partition the entry span: seam self + untraced = wall.
    assert stats["gf.symbols"]["self_s"] + tracer.untraced_seconds() == pytest.approx(
        tracer.wall()
    )


def test_every_registered_seam_resolves_today():
    tracer = tracing.Tracer(seams.SEAMS, seams.COUNT_ONLY)
    tracer.install(seams.PRELOAD)
    tracer.uninstall()
    assert tracer.missing == []
