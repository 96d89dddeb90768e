"""Tests for the adversarial search driver.

The driver's contracts: deterministic trajectories (kill + resume is
byte-identical to an uninterrupted run), pluggable objectives, per-row
forensic auditing that escalates any specification violation to a loud
:class:`repro.exceptions.ReproductionFinding`, and a resumable JSONL
persistence format shared with the experiment engine.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest

import repro.adversary.search as search_module
from repro.adversary.search import OBJECTIVES, main, run_search
from repro.exceptions import ConfigurationError, ReproductionFinding

TOPOLOGY = "k7-unit"


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_search_persists_a_deterministic_trajectory(tmp_path):
    out = tmp_path / "search.jsonl"
    summary = run_search(
        TOPOLOGY, budget=3, seed=0, out_path=str(out), max_faults=2, resume=False
    )
    assert summary.iterations == 3
    assert summary.resumed_rows == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["iteration"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert row["spec"] == "adversary_search"
        assert row["strategy"] == "composed"
        assert row["objective"] == "dispute-control"
        # The objective value is stored as an exact fraction string.
        Fraction(row["objective_value"])
    assert summary.best_score == max(Fraction(r["objective_value"]) for r in rows)
    assert summary.best_candidate is not None
    assert summary.best_candidate.params


def test_kill_and_resume_is_byte_identical_to_uninterrupted(tmp_path):
    reference = tmp_path / "reference.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    run_search(
        TOPOLOGY, budget=4, seed=0, out_path=str(reference), max_faults=2,
        resume=False,
    )
    # Simulate a mid-run kill: stop after 2 candidates, then resume to 4.
    partial = run_search(
        TOPOLOGY, budget=2, seed=0, out_path=str(resumed), max_faults=2,
        resume=False,
    )
    assert partial.iterations == 2
    # A truncated final line (the crash case _write_rows_atomically guards
    # against upstream) must also be absorbed by the resume path.
    with open(resumed, "ab") as handle:
        handle.write(b'{"truncated')
    final = run_search(
        TOPOLOGY, budget=4, seed=0, out_path=str(resumed), max_faults=2,
        resume=True,
    )
    assert final.resumed_rows == 2
    assert final.iterations == 4
    assert _read(str(reference)) == _read(str(resumed))


def test_fixed_budget_search_finds_the_worst_case(tmp_path):
    # The adversary_zoo grid's worst cell (the composed strategy) forces 4
    # dispute-control executions on this arena; every hand-written strategy
    # forces 1.  Seed 0 first reaches 4 at iteration 29.
    out = tmp_path / "search.jsonl"
    summary = run_search(
        TOPOLOGY, objective="dispute-control", budget=30, seed=0,
        out_path=str(out), max_faults=2, resume=False,
    )
    assert summary.iterations == 30
    assert summary.best_score == 4
    scores = [Fraction(json.loads(line)["objective_value"]) for line in out.read_text().splitlines()]
    assert scores.index(Fraction(4)) == 29


def test_resume_ignores_rows_from_a_different_search(tmp_path):
    out = tmp_path / "search.jsonl"
    run_search(TOPOLOGY, budget=1, seed=0, out_path=str(out), max_faults=2,
               resume=False)
    row = json.loads(out.read_text())
    row["seed"] = row["seed"] + 1  # belongs to some other base seed now
    out.write_text(json.dumps(row) + "\n")
    summary = run_search(
        TOPOLOGY, budget=1, seed=0, out_path=str(out), max_faults=2, resume=True
    )
    assert summary.resumed_rows == 0
    assert summary.iterations == 1


def test_unknown_objective_is_rejected():
    with pytest.raises(ConfigurationError):
        run_search(TOPOLOGY, objective="no-such-objective", budget=1)


def test_throughput_degradation_objective():
    summary = run_search(
        TOPOLOGY, objective="throughput-degradation", budget=2, seed=0,
        max_faults=2,
    )
    assert summary.best_score is not None
    # Degradation is 1 - throughput/capacity: inside [0, 1) for a run that
    # completes below the Theorem 2 bound.
    assert Fraction(0) <= summary.best_score < Fraction(1)


def test_objective_registry_scores_rows_exactly():
    row = {
        "record": {"dispute_control_executions": 3, "throughput": "1/2"},
        "bounds": {"capacity_upper_bound": "2"},
    }
    assert OBJECTIVES["dispute-control"](row) == Fraction(3)
    assert OBJECTIVES["throughput-degradation"](row) == Fraction(3, 4)
    # Rows that never produced a record score as worst-possible.
    assert OBJECTIVES["dispute-control"]({"record": None}) == Fraction(-1)


def test_specification_violation_aborts_loudly(tmp_path, monkeypatch):
    out = tmp_path / "search.jsonl"
    monkeypatch.setattr(
        search_module, "audit_rows", lambda rows: ["synthetic violation"]
    )
    with pytest.raises(ReproductionFinding, match="synthetic violation"):
        run_search(
            TOPOLOGY, budget=1, seed=0, out_path=str(out), max_faults=2,
            resume=False,
        )
    # The offending row must have been persisted before the abort.
    assert os.path.exists(out)
    assert len(out.read_text().splitlines()) == 1


def test_cli_entry_point(tmp_path, capsys):
    out = tmp_path / "cli.jsonl"
    status = main(
        ["--topology", TOPOLOGY, "--budget", "1", "--seed", "0",
         "--out", str(out), "--max-faults", "2"]
    )
    assert status == 0
    captured = capsys.readouterr().out
    assert "1 candidate(s) explored" in captured
    assert "best score" in captured
    assert out.exists()
