"""Protocol-interface and registry tests.

The satellite requirement: every registered protocol runs a 4-node ``f = 1``
cell under each named adversary strategy and either satisfies the Byzantine
broadcast specification or correctly reports violating it — the record's
flags must agree with what the raw outputs actually show.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.engine import (
    Cell,
    FAULT_FREE,
    Protocol,
    cell_seed,
    get_protocol,
    register_protocol,
    registered_protocols,
)
from repro.engine.runner import run_cell_record
from repro.exceptions import ConfigurationError
from repro.types import broadcast_spec_flags, canonical_output
from repro.workloads import named_strategies


def _cell(protocol: str, strategy: str) -> Cell:
    cell_id = f"{protocol}|k4-fast|{strategy}|f=1|L=4|Q=2"
    if strategy == FAULT_FREE:
        faulty = ()
    elif strategy == "equivocating-source":
        faulty = (1,)
    else:
        faulty = (4,)
    return Cell(
        spec_name="unit",
        cell_id=cell_id,
        topology="k4-fast",
        strategy=strategy,
        payload_bytes=4,
        instances=2,
        max_faults=1,
        protocol=protocol,
        source=1,
        seed=cell_seed(0, cell_id),
        faulty_nodes=faulty,
    )


class TestRegistry:
    def test_builtin_protocols_registered(self):
        names = registered_protocols()
        assert "nab" in names
        assert "classical-flooding" in names
        assert "eig" in names

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            get_protocol("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_protocol(get_protocol("nab"))
        # Explicit replacement is allowed and idempotent.
        register_protocol(get_protocol("nab"), replace=True)

    def test_abstract_name_rejected(self):
        class Nameless(Protocol):
            def run(self, graph, source, inputs, fault_model, params):
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            register_protocol(Nameless())


class TestEveryProtocolUnderEveryAdversary:
    @pytest.mark.parametrize("protocol_name", ["nab", "classical-flooding", "eig"])
    @pytest.mark.parametrize("strategy", [FAULT_FREE] + named_strategies())
    def test_flags_match_actual_outputs(self, protocol_name, strategy):
        cell = _cell(protocol_name, strategy)
        scenario = cell.scenario()
        record = run_cell_record(cell)

        assert record.protocol == protocol_name
        assert record.instances == 2
        assert record.payload_bits == 2 * 4 * 8
        assert record.elapsed > 0
        assert record.bits_sent > 0
        assert record.link_bits and sum(record.link_bits.values()) == record.bits_sent

        # The spec flags must be exactly what the raw outputs imply.
        source_faulty = scenario.fault_model.is_faulty(scenario.source)
        agreement, validity = broadcast_spec_flags(
            record.outputs, list(scenario.inputs), source_faulty
        )
        assert record.agreement_ok == agreement
        assert record.validity_ok == validity
        if source_faulty:
            assert record.validity_ok is None

        # All three registered protocols guarantee agreement for n >= 3f + 1,
        # and validity whenever the source is fault-free.
        assert record.spec_ok
        assert record.agreement_ok
        if not source_faulty:
            assert record.validity_ok is True
            for value, outputs in zip(scenario.inputs, record.outputs):
                assert {canonical_output(out) for out in outputs.values()} == {
                    canonical_output(value)
                }

    def test_only_nab_runs_dispute_control(self):
        nab_record = run_cell_record(_cell("nab", "equality-garbage"))
        classical_record = run_cell_record(_cell("classical-flooding", "equality-garbage"))
        assert nab_record.dispute_control_executions >= 1
        assert classical_record.dispute_control_executions == 0


class TestCanonicalOutputs:
    def test_byte_outputs_differing_in_leading_zeros_are_distinct(self):
        assert canonical_output(b"\x00\x01") != canonical_output(b"\x01")
        assert canonical_output(b"") != canonical_output(b"\x00")
        agreement, validity = broadcast_spec_flags(
            [{2: b"\x00\x01", 3: b"\x01"}], [b"\x00\x01"], source_faulty=False
        )
        assert agreement is False
        assert validity is False

    def test_missing_instance_outputs_fail_agreement(self):
        agreement, validity = broadcast_spec_flags(
            [{2: b"\x01", 3: b"\x01"}], [b"\x01", b"\x02"], source_faulty=False
        )
        assert agreement is False
        assert validity is False
        # With a faulty source validity stays unconstrained but agreement
        # still fails for the missing instance.
        agreement, validity = broadcast_spec_flags([], [b"\x01"], source_faulty=True)
        assert agreement is False
        assert validity is None

    def test_short_output_is_not_valid_for_padded_input(self):
        agreement, validity = broadcast_spec_flags(
            [{2: b"\x07", 3: b"\x07"}], [b"\x00\x07"], source_faulty=False
        )
        assert agreement is True
        assert validity is False

    def test_nab_integer_outputs_preserve_payload_length(self):
        cell = _cell("nab", FAULT_FREE)
        record = run_cell_record(cell)
        scenario = cell.scenario()
        for value, outputs in zip(scenario.inputs, record.outputs):
            for output in outputs.values():
                assert isinstance(output, bytes)
                assert len(output) == len(value)


class TestRunRecordShape:
    def test_throughput_and_jsonable(self):
        record = run_cell_record(_cell("nab", FAULT_FREE))
        assert record.throughput == Fraction(record.payload_bits) / record.elapsed
        payload = record.to_jsonable()
        assert payload["protocol"] == "nab"
        assert Fraction(payload["elapsed"]) == record.elapsed
        assert Fraction(payload["throughput"]) == record.throughput
        assert all(isinstance(key, str) for key in payload["link_bits"])
        assert sum(payload["link_bits"].values()) == record.bits_sent

    def test_identical_cells_produce_identical_records(self):
        first = run_cell_record(_cell("nab", "chaos"))
        second = run_cell_record(_cell("nab", "chaos"))
        assert first.to_jsonable() == second.to_jsonable()
