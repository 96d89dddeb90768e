"""Tests for the analysis helpers, reporting, workloads and the public package API."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import repro
from repro.analysis.reporting import format_table
from repro.analysis.throughput import (
    amortization_curve,
    measure_nab_throughput,
    verify_agreement_and_validity,
)
from repro.adversary.strategies import EqualityGarbageStrategy
from repro.engine.spec import FAULT_FREE, Cell
from repro.exceptions import AgreementViolationError, ConfigurationError
from repro.graph.generators import complete_graph
from repro.transport.faults import FaultModel
from repro.workloads.scenarios import input_stream
from repro.workloads.topologies import named_topologies, topology


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__ == "1.0.0"
        assert hasattr(repro, "NetworkAwareBroadcast")
        assert hasattr(repro, "FaultModel")
        assert hasattr(repro, "analyse_network")

    def test_quickstart_flow(self):
        nab = repro.NetworkAwareBroadcast(complete_graph(4, capacity=2), 1, 1)
        result = nab.run_instance(b"hi")
        assert result.agreed_value() == int.from_bytes(b"hi", "big")


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["longer", Fraction(1, 3)]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "0.3333" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_floats(self):
        assert "1.5" in format_table(["x"], [[1.5]])


class TestThroughputMeasurement:
    def test_measurement_reports_bounds(self):
        graph = complete_graph(4, capacity=2)
        inputs = [bytes([i] * 8) for i in range(3)]
        measurement = measure_nab_throughput(graph, 1, 1, inputs)
        assert measurement.instances == 3
        assert measurement.payload_bits == 3 * 64
        assert measurement.throughput > 0
        assert measurement.fraction_of_upper_bound() <= 1
        assert measurement.analysis.capacity_upper_bound >= measurement.analysis.nab_lower_bound

    def test_measurement_with_adversary_counts_dispute_control(self):
        graph = complete_graph(4, capacity=2)
        inputs = [bytes([i] * 4) for i in range(6)]
        fault_model = FaultModel([3], EqualityGarbageStrategy())
        measurement = measure_nab_throughput(graph, 1, 1, inputs, fault_model=fault_model)
        assert measurement.dispute_control_executions >= 1
        assert measurement.dispute_control_executions <= 2

    def test_amortization_curve_improves_with_q(self):
        graph = complete_graph(4, capacity=2)
        fault_model = FaultModel([3], EqualityGarbageStrategy())
        curve = amortization_curve(
            graph, 1, 1, instance_counts=[1, 6], value_length=4, fault_model=fault_model
        )
        assert len(curve) == 2
        assert curve[1].throughput > curve[0].throughput

    def test_verify_agreement_detects_disagreement(self):
        graph = complete_graph(4, capacity=2)
        nab = repro.NetworkAwareBroadcast(graph, 1, 1)
        run = nab.run([b"\x01\x02"])
        # Tamper with the result to simulate a disagreement.
        tampered_outputs = dict(run.instances[0].outputs)
        first = next(iter(tampered_outputs))
        tampered_outputs[first] ^= 1
        from dataclasses import replace

        tampered_instance = replace(run.instances[0], outputs=tampered_outputs)
        tampered_run = replace(run, instances=(tampered_instance,))
        with pytest.raises(AgreementViolationError):
            verify_agreement_and_validity(tampered_run, [b"\x01\x02"], source_faulty=False)

    def test_verify_validity_detects_wrong_value(self):
        graph = complete_graph(4, capacity=2)
        nab = repro.NetworkAwareBroadcast(graph, 1, 1)
        run = nab.run([b"\x01\x02"])
        with pytest.raises(AgreementViolationError):
            verify_agreement_and_validity(run, [b"\xff\xff"], source_faulty=False)
        # With a faulty source validity is not required, so no exception.
        verify_agreement_and_validity(run, [b"\xff\xff"], source_faulty=True)


def _scenario(strategy, faulty_nodes=(), instances=5, payload_bytes=8, seed=0):
    return Cell(
        spec_name="unit",
        cell_id="unit",
        topology="k4-fast",
        strategy=strategy,
        payload_bytes=payload_bytes,
        instances=instances,
        max_faults=1,
        protocol="nab",
        source=1,
        seed=seed,
        faulty_nodes=tuple(faulty_nodes),
    ).scenario()


class TestWorkloads:
    def test_named_topologies_buildable(self):
        names = named_topologies()
        assert "figure1a" in names and "k4-fast" in names
        for name in names:
            graph = topology(name)
            assert graph.node_count() >= 3

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            topology("does-not-exist")

    def test_fault_free_scenario(self):
        scenario = _scenario(FAULT_FREE, instances=3, payload_bytes=4, seed=1)
        assert len(scenario.inputs) == 3
        assert all(len(value) == 4 for value in scenario.inputs)
        assert scenario.fault_model.fault_count() == 0

    def test_adversarial_scenario_by_name(self):
        scenario = _scenario("false-flag", [2])
        assert scenario.fault_model.is_faulty(2)
        assert scenario.fault_model.strategy.name == "false-flag"

    def test_adversarial_scenario_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            _scenario("nope", [3])

    def test_scenarios_are_reproducible(self):
        first = _scenario(FAULT_FREE, seed=7)
        second = _scenario(FAULT_FREE, seed=7)
        assert list(first.inputs) == list(second.inputs)

    @pytest.mark.parametrize("value_bytes", [0, 1, 2, 65536])
    def test_input_stream_is_randrange_byte_by_byte(self, value_bytes):
        # Persisted rows embed the inputs, and callers go on drawing from the
        # generator they passed: values and final state are both contract.
        for seed in (0, 1, 7, 2**40 + 3):
            rng, reference = random.Random(seed), random.Random(seed)
            expected = [
                bytes(reference.randrange(256) for _ in range(value_bytes)) for _ in range(3)
            ]
            assert input_stream(rng, 3, value_bytes) == expected
            assert rng.getstate() == reference.getstate()

    def test_scenario_runs_end_to_end(self):
        scenario = _scenario("equality-garbage", [3], instances=3, payload_bytes=4)
        nab = repro.NetworkAwareBroadcast(
            scenario.graph, scenario.source, scenario.max_faults, fault_model=scenario.fault_model
        )
        run = nab.run(list(scenario.inputs))
        for value, result in zip(scenario.inputs, run.instances):
            assert result.agreed_value() == int.from_bytes(value, "big")
