"""``scripts/unreached_expected.txt`` names functions that exist, each with a reason.

The probe itself (``scripts/unreached.py --expect``) takes minutes and runs in
its own CI job; this is the static half, cheap enough for tier-1: every
entry is a ``path qualified-name`` pair of a function defined under
``src/repro``, no entry is listed twice, and every entry carries its
keep-reason after a ``#``.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "scripts", "unreached_expected.txt")

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the probe names functions by co_qualname"
)


def _probe():
    spec = importlib.util.spec_from_file_location(
        "unreached", os.path.join(ROOT, "scripts", "unreached.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_is_a_function_of_src_with_a_reason():
    probe = _probe()
    defined = {(os.path.relpath(path, ROOT), name) for path, _line, name in probe.defined()}
    entries = []
    with open(EXPECTED, encoding="utf-8") as handle:
        for line in handle:
            entry, _hash, reason = line.partition("#")
            if entry.split():
                assert len(entry.split()) == 2 and reason.strip(), line
                entries.append(tuple(entry.split()))
    assert len(entries) == len(set(entries))
    assert set(entries) == probe.expected_entries(EXPECTED)
    assert set(entries) <= defined, sorted(set(entries) - defined)


def test_the_graph_layer_keeps_at_most_fifteen_unreached_functions():
    graph = [path for path, _name in _probe().expected_entries(EXPECTED) if "/graph/" in path]
    assert 0 < len(graph) <= 15


def test_listing_counts_by_top_level_directory():
    probe = _probe()
    src = os.path.join(ROOT, "src", "repro")
    assert probe.top_level(os.path.join(src, "graph", "maxflow.py")) == "src/repro/graph/"
    assert probe.top_level(os.path.join(src, "exec.py")) == "src/repro/"
