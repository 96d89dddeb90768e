"""Fixtures shared across the test modules."""

from __future__ import annotations

import pytest

from repro.graph import gomory_hu


@pytest.fixture
def contractions(monkeypatch):
    """The unit signature of every global min-cut contraction run so far."""
    calls = []
    original = gomory_hu._ma_global_mincut

    def counted(signature):
        calls.append(signature)
        return original(signature)

    monkeypatch.setattr(gomory_hu, "_ma_global_mincut", counted)
    return calls
