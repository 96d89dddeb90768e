"""Tests for the pipelined NAB executor (Figure 3 on the event kernel)."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.analysis import pipeline_gap_from_record
from repro.capacity.pipelining import pipelined_schedule
from repro.core.nab import NetworkAwareBroadcast
from repro.core.pipeline import run_pipelined
from repro.engine import dump_row, get_spec, run_cell, run_spec
from repro.engine.spec import FAULT_FREE, Cell, ExperimentSpec
from repro.exceptions import ConfigurationError, ProtocolError
from repro.transport.faults import FaultModel
from repro.workloads.topologies import topology

#: The headline grid's topologies plus the deep layered pipelines.
TOPOLOGIES = ("k4-fast", "bottleneck4", "ring7-chords", "pipeline-3x3", "pipeline-4x3")


def _inputs(count, length=8):
    return [bytes(((11 * index + offset) % 255) + 1 for offset in range(length)) for index in range(count)]


def _scenario(topology_name, strategy, faulty_nodes, instances, seed):
    return Cell(
        spec_name="unit",
        cell_id="unit",
        topology=topology_name,
        strategy=strategy,
        payload_bytes=8,
        instances=instances,
        max_faults=1,
        protocol="nab",
        source=1,
        seed=seed,
        faulty_nodes=faulty_nodes,
    ).scenario()


class TestFaultFreeSteadyState:
    @pytest.mark.parametrize("topology_name", TOPOLOGIES)
    def test_measured_time_equals_pipelined_schedule_exactly(self, topology_name):
        nab = NetworkAwareBroadcast(topology(topology_name), 1, 1)
        result = nab.run_pipelined(_inputs(8))
        assert result.analytic is not None
        assert result.round_overhead is not None
        # The event-simulated makespan equals the Figure 3 closed form as
        # exact rationals — no tolerance.
        assert result.total_elapsed == result.analytic.total_time
        # And the closed form is reproducible from first principles.
        parameters = result.instances[0].parameters
        rebuilt = pipelined_schedule(
            64,
            parameters.gamma,
            parameters.rho,
            result.depth,
            8,
            flag_overhead=result.round_overhead,
        )
        assert rebuilt.total_time == result.total_elapsed

    @pytest.mark.parametrize("topology_name", TOPOLOGIES)
    def test_semantics_identical_to_sequential_run(self, topology_name):
        inputs = _inputs(5)
        sequential = NetworkAwareBroadcast(topology(topology_name), 1, 1).run(inputs)
        pipelined = NetworkAwareBroadcast(topology(topology_name), 1, 1).run_pipelined(
            inputs
        )
        assert pipelined.outputs_per_instance() == sequential.outputs_per_instance()
        assert pipelined.total_bits == sequential.total_bits
        assert pipelined.dispute_control_executions == 0

    def test_stage_timeline_matches_round_recurrence(self):
        instances = 6
        nab = NetworkAwareBroadcast(topology("pipeline-3x3"), 1, 1)
        result = nab.run_pipelined(_inputs(instances))
        depth, round_length = result.depth, result.round_length
        assert depth == 3
        stages = {(stage.instance, stage.hop): stage for stage in result.stage_timeline}
        assert len(stages) == instances * depth
        for (q, h), stage in stages.items():
            assert stage.end == (q + h) * round_length
            assert stage.end - stage.start == round_length
        assert result.total_elapsed == (instances + depth - 1) * round_length

    def test_pipelining_beats_sequential_on_deep_topology(self):
        # 64-byte payloads on the depth-3 pipeline: the measured speedup is
        # an exact rational and deterministic, comfortably above 1.2x at 8
        # instances (the >= 1.5x claim is pinned on the depth-4 pipeline
        # below).
        nab = NetworkAwareBroadcast(topology("pipeline-3x3"), 1, 1)
        result = nab.run_pipelined(_inputs(8, length=64))
        assert result.sequential_elapsed > result.total_elapsed
        assert result.speedup >= Fraction(13, 10)

    def test_deep_pipeline_speedup_is_exact(self):
        # Q = 16 instances of 128 B on the depth-4 pipeline, both runs on the
        # simulated clock: the ~1.58x speedup is a constant of the code.
        inputs = [
            bytes(((7 * index + offset) % 255) + 1 for offset in range(128))
            for index in range(16)
        ]
        result = NetworkAwareBroadcast(topology("pipeline-4x3"), 1, 1).run_pipelined(inputs)
        assert result.total_elapsed == result.analytic.total_time
        assert result.speedup == Fraction(17536, 11077)

    def test_speedup_grows_with_instances(self):
        speedups = []
        for count in (2, 8, 16):
            nab = NetworkAwareBroadcast(topology("pipeline-3x3"), 1, 1)
            speedups.append(nab.run_pipelined(_inputs(count)).speedup)
        assert speedups == sorted(speedups)

    def test_shallow_topology_gains_nothing(self):
        # Depth-1 broadcast (complete graph): (Q + 0) rounds — no overlap to
        # exploit, pipelined equals sequential exactly.
        nab = NetworkAwareBroadcast(topology("k4-fast"), 1, 1)
        result = nab.run_pipelined(_inputs(4))
        if result.depth == 1:
            assert result.total_elapsed == result.sequential_elapsed

    def test_empty_values_rejected(self):
        nab = NetworkAwareBroadcast(topology("k4-fast"), 1, 1)
        with pytest.raises(ProtocolError):
            nab.run_pipelined([])


class TestAdversarialPipeline:
    def test_dispute_control_stalls_but_preserves_agreement(self):
        scenario = _scenario("ring7-chords", "equality-garbage", (7,), instances=5, seed=3)
        nab = NetworkAwareBroadcast(
            scenario.graph, scenario.source, scenario.max_faults,
            fault_model=scenario.fault_model,
        )
        result = nab.run_pipelined(list(scenario.inputs))
        assert result.dispute_control_executions >= 1
        # Heterogeneous rounds: no homogeneous closed form applies.
        assert result.analytic is None
        record = result.as_run_record(list(scenario.inputs), source_faulty=False)
        assert record.agreement_ok and record.validity_ok
        # The dispute stall is charged: the pipeline cannot be faster than
        # the widest single instance.
        assert result.total_elapsed >= max(r.elapsed for r in result.instances)

    def test_outputs_match_sequential_under_attack(self):
        scenario = _scenario("k4-fast", "phase1-relay", (4,), instances=4, seed=9)
        sequential = NetworkAwareBroadcast(
            scenario.graph, scenario.source, scenario.max_faults,
            fault_model=scenario.fault_model,
        ).run(list(scenario.inputs))
        pipelined = NetworkAwareBroadcast(
            scenario.graph, scenario.source, scenario.max_faults,
            fault_model=scenario.fault_model,
        ).run_pipelined(list(scenario.inputs))
        assert pipelined.outputs_per_instance() == sequential.outputs_per_instance()
        assert (
            pipelined.dispute_control_executions
            == sequential.dispute_control_executions
        )


class TestPipelineRecordsAndAnalysis:
    def test_run_record_metadata_carries_event_timeline(self):
        nab = NetworkAwareBroadcast(topology("pipeline-3x3"), 1, 1)
        inputs = _inputs(4)
        record = nab.run_pipelined_record(inputs)
        metadata = record.metadata
        assert metadata["execution"] == "pipelined"
        assert metadata["matches_analytic"] is True
        assert len(metadata["stage_timeline"]) == 4 * metadata["pipeline_depth"]
        # The record is JSON-safe and round-trips canonically.
        dumped = json.dumps(record.to_jsonable(), sort_keys=True)
        assert json.loads(dumped)["metadata"]["stage_timeline"] == metadata[
            "stage_timeline"
        ]

    def test_pipeline_gap_from_record(self):
        nab = NetworkAwareBroadcast(topology("pipeline-3x3"), 1, 1)
        record = nab.run_pipelined_record(_inputs(6))
        gap = pipeline_gap_from_record(record)
        assert gap.exact is True
        assert gap.gap == 0
        assert gap.speedup == gap.sequential / gap.measured
        with pytest.raises(ProtocolError):
            pipeline_gap_from_record(
                NetworkAwareBroadcast(topology("k4-fast"), 1, 1).run_record(_inputs(1))
            )


class TestEngineIntegration:
    def test_pipelined_axis_expands_only_for_capable_protocols(self):
        spec = ExperimentSpec(
            name="unit_pipe",
            topologies=("k4-fast",),
            strategies=(FAULT_FREE,),
            payload_bytes=(4,),
            fault_counts=(1,),
            protocols=("nab", "classical-flooding"),
            executions=("sequential", "pipelined"),
            instances=2,
        )
        cells = spec.expand()
        modes = {(cell.protocol, cell.execution) for cell in cells}
        assert ("nab", "pipelined") in modes
        assert ("classical-flooding", "pipelined") not in modes
        assert ("classical-flooding", "sequential") in modes
        # Non-default axis values are stamped into the cell id; default cells
        # keep the historical id shape (stable seeds across releases).
        for cell in cells:
            assert ("exec=pipelined" in cell.cell_id) == (cell.execution == "pipelined")
            assert "lm=" not in cell.cell_id  # instant is the default

    def test_unknown_execution_or_link_model_rejected(self):
        base = dict(
            name="unit_bad",
            topologies=("k4-fast",),
            strategies=(FAULT_FREE,),
            payload_bytes=(4,),
            fault_counts=(1,),
            protocols=("nab",),
        )
        with pytest.raises(ConfigurationError):
            ExperimentSpec(executions=("warp",), **base).expand()
        with pytest.raises(ConfigurationError):
            ExperimentSpec(link_models=("wormhole",), **base).expand()

    def test_pipelined_cell_row_records_exact_match(self):
        spec = get_spec("pipelined_nab")
        cell = next(
            cell
            for cell in spec.expand()
            if cell.execution == "pipelined" and cell.topology == "pipeline-3x3"
        )
        row = run_cell(cell)
        assert row["error"] is None
        assert row["execution"] == "pipelined"
        metadata = row["record"]["metadata"]
        assert metadata["matches_analytic"] is True
        assert row["record"]["elapsed"] == metadata["analytic_total"]
        assert dump_row(json.loads(dump_row(row))) == dump_row(row)

    def test_non_capable_protocol_rejects_pipelined_params(self):
        from repro.engine import get_protocol

        with pytest.raises(ConfigurationError):
            get_protocol("classical-flooding").run(
                topology("k4-fast"), 1, [b"\x01"], FaultModel(),
                {"max_faults": 1, "execution": "pipelined"},
            )

    def test_default_cells_skip_the_scheduled_transport(self):
        # The "instant" default must not pay scheduling bookkeeping: run_cell
        # omits the link_model param, so no ScheduledNetwork is constructed.
        from repro.transport.scheduled import ScheduledNetwork

        spec = get_spec("nab_vs_classical_quick")
        cell = spec.expand()[0]
        assert cell.link_model == "instant"
        constructed = []
        original_init = ScheduledNetwork.__init__

        def capturing_init(self, *args, **kwargs):
            constructed.append(self)
            original_init(self, *args, **kwargs)

        try:
            ScheduledNetwork.__init__ = capturing_init
            row = run_cell(cell)
        finally:
            ScheduledNetwork.__init__ = original_init
        assert row["error"] is None
        assert constructed == []

    def test_report_marks_pipelined_rows_with_like_for_like_speedup(self):
        from repro.engine import render_comparison

        spec = ExperimentSpec(
            name="unit_pipe_report",
            topologies=("pipeline-3x3",),
            strategies=(FAULT_FREE,),
            payload_bytes=(4,),
            fault_counts=(1,),
            protocols=("nab",),
            executions=("sequential", "pipelined"),
            instances=3,
        )
        table = render_comparison(run_spec(spec, out_path=None, workers=1).rows)
        assert "x vs per-hop seq" in table

    def test_pipelined_spec_runs_end_to_end(self, tmp_path):
        spec = ExperimentSpec(
            name="unit_pipe_run",
            topologies=("k4-fast", "pipeline-3x3"),
            strategies=(FAULT_FREE,),
            payload_bytes=(4,),
            fault_counts=(1,),
            protocols=("nab",),
            executions=("sequential", "pipelined"),
            instances=3,
        )
        out = str(tmp_path / "rows.jsonl")
        summary = run_spec(spec, out_path=out, workers=1, resume=False)
        assert summary.computed_cells == 4
        by_mode = {}
        for row in summary.rows:
            assert row["error"] is None
            by_mode[(row["topology"], row["execution"])] = row
        piped = by_mode[("pipeline-3x3", "pipelined")]
        assert piped["record"]["metadata"]["matches_analytic"] is True
