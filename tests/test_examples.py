"""Every script under ``examples/`` runs to completion as ``__main__`` and prints.

The examples call the public run API the way a user would, so an API change
that breaks one fails here rather than on a reader's machine.
"""

from __future__ import annotations

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")


@pytest.mark.parametrize(
    "script", sorted(name for name in os.listdir(EXAMPLES) if name.endswith(".py"))
)
def test_example_runs(script, capsys):
    runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
    assert capsys.readouterr().out
