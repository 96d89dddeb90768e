"""Fixtures shared across the test modules."""

from __future__ import annotations

import pytest

from repro.graph import gomory_hu
from repro.graph.maxflow import _DinicSolver


@pytest.fixture
def contractions(monkeypatch):
    """The adjacency of every global min-cut contraction run so far.

    Each entry is a copy taken before the call, since the kernel contracts
    its argument in place.
    """
    calls = []
    original = gomory_hu._ma_global_mincut

    def counted(adjacency):
        calls.append({node: dict(row) for node, row in adjacency.items()})
        return original(adjacency)

    monkeypatch.setattr(gomory_hu, "_ma_global_mincut", counted)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """The ``(source, sink)`` of every ``_DinicSolver.max_flow`` call made so far."""
    calls = []
    original = _DinicSolver.max_flow

    def counted(self, source, sink, limit=None):
        calls.append((source, sink))
        return original(self, source, sink, limit)

    monkeypatch.setattr(_DinicSolver, "max_flow", counted)
    return calls
