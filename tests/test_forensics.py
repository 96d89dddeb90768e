"""Tests for pod-style ledger forensics.

The accountability contract, property-tested across the whole adversary zoo:

* **Soundness** — no fault-free node is ever accused, whatever the adversary
  does (the headline guarantee; a forensic pass with false positives would be
  worse than none).
* **Completeness** — every recorded dispute touches at least one truly
  faulty node, and whenever the protocol ran dispute control at all, some
  truly faulty node appears among the suspects or accused.
* Strategies that forge flags or lie in dispute claims produce direct,
  evidence-backed accusations.
"""

from __future__ import annotations

import pytest

from repro.analysis import ForensicRecorder, analyze_records, audit_rows
from repro.core.nab import NetworkAwareBroadcast
from repro.engine.spec import Cell, canonical_params
from repro.workloads import named_strategies

#: (strategy, faulty placement) pairs on k7-unit at f = 2.  The equivocating
#: source must actually be the source; every other strategy corrupts two
#: non-source nodes.
K7_PLACEMENTS = [
    (name, (1, 7) if name == "equivocating-source" else (6, 7))
    for name in sorted(named_strategies())
]


def _run_with_recorder(strategy_name, faulty, params=None, instances=3):
    scenario = Cell(
        spec_name="unit",
        cell_id="unit",
        topology="k7-unit",
        strategy=strategy_name,
        payload_bytes=8,
        instances=instances,
        max_faults=2,
        protocol="nab",
        source=1,
        seed=11,
        faulty_nodes=tuple(faulty),
        strategy_params=canonical_params(params) if params else "",
    ).scenario()
    recorder = ForensicRecorder()
    protocol = NetworkAwareBroadcast(
        scenario.graph,
        scenario.source,
        scenario.max_faults,
        scenario.fault_model,
        coding_seed=scenario.seed,
        recorder=recorder,
    )
    record = protocol.run_record(list(scenario.inputs))
    return recorder, record


@pytest.mark.parametrize("strategy_name,faulty", K7_PLACEMENTS)
def test_soundness_no_honest_node_is_ever_accused(strategy_name, faulty):
    recorder, _ = _run_with_recorder(strategy_name, faulty)
    report = recorder.analyze()
    assert report.accused_nodes() <= set(faulty), (
        f"{strategy_name}: honest node accused: "
        f"{sorted(report.accused_nodes() - set(faulty))}"
    )


@pytest.mark.parametrize("strategy_name,faulty", K7_PLACEMENTS)
def test_completeness_every_dispute_touches_a_faulty_node(strategy_name, faulty):
    recorder, record = _run_with_recorder(strategy_name, faulty)
    report = recorder.analyze()
    for pair in report.disputes:
        assert set(pair) & set(faulty), (
            f"{strategy_name}: dispute {sorted(pair)} among honest nodes"
        )
    if record.dispute_control_executions > 0 and report.disputes:
        culprits = report.suspects | report.accused_nodes()
        assert culprits & set(faulty), (
            f"{strategy_name}: dispute control ran but no faulty node is "
            f"even suspected"
        )


def test_forgers_are_directly_accused():
    """Flag forgery and claim-table lies leave checkable evidence."""
    for strategy_name in ("false-flag", "equality-garbage", "dispute-liar"):
        recorder, record = _run_with_recorder(strategy_name, (6, 7))
        report = recorder.analyze()
        assert record.dispute_control_executions > 0
        accused = report.accused_nodes()
        assert accused, f"{strategy_name}: no accusation despite dispute control"
        assert accused <= {6, 7}
        # Every accusation carries human-readable evidence.
        for node, reasons in report.accused.items():
            assert reasons, node


def test_adaptive_dodger_is_caught_by_the_ledger():
    """The dodger survives DC3 by patching its claims — but the patched
    claims then contradict the public ledger, which is exactly rule 2."""
    recorder, _ = _run_with_recorder(
        "composed",
        (4, 6),
        params={
            "components": [
                {"kind": "adaptive-dodger", "targets": 1, "aggressors": 1}
            ],
            "rotate": True,
        },
        instances=8,
    )
    report = recorder.analyze()
    assert report.accused_nodes()
    assert report.accused_nodes() <= {4, 6}


def test_fault_free_run_accuses_nobody():
    recorder, record = _run_with_recorder("crash", (6, 7))
    # Crash faults are omissions; whatever happens, accusations must stay
    # within the faulty set — and an entirely fault-free run is silent.
    assert recorder.analyze().accused_nodes() <= {6, 7}
    assert analyze_records([]).accused == {}
    assert analyze_records([]).suspects == frozenset()


# ----------------------------------------------------------------- audit_rows


def _row(**overrides):
    row = {
        "cell_id": "test-cell",
        "faulty_nodes": [6, 7],
        "record": {
            "agreement_ok": True,
            "validity_ok": True,
            "metadata": {"disputes": [[2, 6]], "identified_faulty": [7]},
        },
    }
    row.update(overrides)
    return row


def test_audit_rows_passes_clean_rows():
    assert audit_rows([_row()]) == []


def test_audit_rows_skips_rows_without_records():
    assert audit_rows([_row(record=None)]) == []


def test_audit_rows_flags_false_identification():
    row = _row()
    row["record"]["metadata"]["identified_faulty"] = [2]
    violations = audit_rows([row])
    assert any("identified as faulty" in v for v in violations)


def test_audit_rows_flags_disputes_between_honest_nodes():
    row = _row()
    row["record"]["metadata"]["disputes"] = [[2, 3]]
    violations = audit_rows([row])
    assert any("between fault-free nodes" in v for v in violations)


def test_audit_rows_flags_spec_violations():
    row = _row()
    row["record"]["agreement_ok"] = False
    row["record"]["validity_ok"] = False
    violations = audit_rows([row])
    assert any("agreement_ok" in v for v in violations)
    assert any("validity_ok" in v for v in violations)
