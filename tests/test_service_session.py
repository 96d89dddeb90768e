"""Snapshot/restore exactness: sessions resume byte-identically mid-flight.

The tentpole property (ISSUE 10 satellite 1): a snapshot → restore round trip
of ``DisputeState`` and a mid-flight session reproduces the uninterrupted
run's outputs, bits and dispute-control count *exactly*, across every
registered adversary strategy on the headline topologies.  Sessions are pure
functions of their spec, so the checkpoint taken after instance ``k`` plus
the spec must determine the rest of the run bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro.core.dispute_state import DisputeState
from repro.core.instance import instance_result_from_jsonable
from repro.core.nab import NetworkAwareBroadcast
from repro.engine.runner import dump_row
from repro.exceptions import ProtocolError
from repro.service.session import (
    FAULT_FREE,
    SessionSpec,
    clear_topology_contexts,
    run_session,
    session_seed,
    topology_context_stats,
    warm_graph,
)
from repro.service.workload import generate_sessions
from repro.workloads.scenarios import make_strategy, named_strategies
from repro.workloads.topologies import topology

#: The headline topologies of the comparison grids (all feasible at f = 1).
HEADLINE_TOPOLOGIES = ("k4-fast", "bottleneck4", "ring7-chords")


def _spec(topology_name: str, strategy: str, instances: int = 4) -> SessionSpec:
    (spec,) = generate_sessions(
        1,
        topologies=(topology_name,),
        strategies=(strategy,),
        payload_bytes=2,
        instances=instances,
        max_faults=1,
        seed=7,
        service="prop",
    )
    return spec


def _json_round_trip(row):
    """Simulate persistence: through the canonical serialisation and back."""
    return json.loads(dump_row(row))


class TestSnapshotRestoreProperty:
    @pytest.mark.parametrize("topology_name", HEADLINE_TOPOLOGIES)
    @pytest.mark.parametrize("strategy", [FAULT_FREE] + named_strategies())
    def test_every_checkpoint_resumes_byte_identically(
        self, topology_name, strategy
    ):
        spec = _spec(topology_name, strategy)
        checkpoints = []
        reference = run_session(spec, checkpoint=checkpoints.append)
        # Q instances at cadence 1 yield a checkpoint after each non-final one.
        assert len(checkpoints) == spec.instances - 1
        for snapshot in checkpoints:
            resumed = run_session(spec, snapshot=_json_round_trip(snapshot))
            assert dump_row(resumed) == dump_row(reference)

    @pytest.mark.parametrize("strategy", ["equality-garbage", "phase1-relay"])
    def test_outputs_bits_and_dispute_control_survive_the_round_trip(
        self, strategy
    ):
        spec = _spec("bottleneck4", strategy, instances=5)
        checkpoints = []
        reference = run_session(spec, checkpoint=checkpoints.append)
        record = reference["record"]
        for snapshot in checkpoints:
            resumed = run_session(spec, snapshot=_json_round_trip(snapshot))["record"]
            assert resumed["outputs"] == record["outputs"]
            assert resumed["bits_sent"] == record["bits_sent"]
            assert (
                resumed["dispute_control_executions"]
                == record["dispute_control_executions"]
            )

    def test_checkpoint_cadence_thins_snapshots_without_changing_the_row(self):
        spec = _spec("k4-fast", "equality-garbage", instances=6)
        dense, sparse = [], []
        reference = run_session(spec, checkpoint=dense.append, checkpoint_every=1)
        thinned = run_session(spec, checkpoint=sparse.append, checkpoint_every=3)
        assert dump_row(reference) == dump_row(thinned)
        assert len(dense) == 5
        assert len(sparse) == 1

    def test_snapshot_of_wrong_session_is_rejected(self):
        spec = _spec("k4-fast", FAULT_FREE)
        other = _spec("k4-fast", "equality-garbage")
        checkpoints = []
        run_session(other, checkpoint=checkpoints.append)
        with pytest.raises(ProtocolError):
            run_session(spec, snapshot=checkpoints[0])


    def test_snapshot_of_the_same_id_under_another_seed_is_rejected(self):
        # The id names neither seed nor size: every spec field must match.
        spec = _spec("k4-fast", FAULT_FREE)
        checkpoints = []
        run_session(spec, checkpoint=checkpoints.append)
        for change in ({"seed": spec.seed + 1}, {"payload_bytes": 3}, {"instances": 5}):
            other = type(spec)(**{**spec.__dict__, **change})
            assert other.session_id == spec.session_id
            with pytest.raises(ProtocolError):
                run_session(other, snapshot=checkpoints[0])


class TestDisputeStateSerialisation:
    def test_round_trip_preserves_knowledge(self):
        state = DisputeState(2)
        state.add_dispute(1, 3)
        state.add_dispute(4, 2)
        state.mark_faulty(5)
        restored = DisputeState.from_jsonable(
            json.loads(json.dumps(state.to_jsonable()))
        )
        assert restored.snapshot() == state.snapshot()
        assert restored.max_faults == state.max_faults

    def test_rendering_is_canonical(self):
        first = DisputeState(1)
        first.add_dispute(3, 1)
        first.add_dispute(2, 4)
        second = DisputeState(1)
        second.add_dispute(4, 2)
        second.add_dispute(1, 3)
        assert json.dumps(first.to_jsonable(), sort_keys=True) == json.dumps(
            second.to_jsonable(), sort_keys=True
        )

    def test_malformed_dispute_is_rejected(self):
        with pytest.raises(ProtocolError):
            DisputeState.from_jsonable(
                {"max_faults": 1, "disputes": [[1, 1]], "known_faulty": []}
            )


class TestNABStateHooks:
    def test_restore_rejects_mismatched_max_faults(self):
        graph = topology("k4-fast")
        nab = NetworkAwareBroadcast(graph, 1, 1)
        snapshot = nab.snapshot_state()
        snapshot["dispute_state"]["max_faults"] = 2
        with pytest.raises(ProtocolError):
            nab.restore_state(snapshot)

    def test_restore_rejects_negative_instance_index(self):
        graph = topology("k4-fast")
        nab = NetworkAwareBroadcast(graph, 1, 1)
        snapshot = nab.snapshot_state()
        snapshot["instances_run"] = -1
        with pytest.raises(ProtocolError):
            nab.restore_state(snapshot)

    def test_instance_result_round_trip_is_exact(self):
        spec = _spec("bottleneck4", "equality-garbage", instances=2)
        graph = topology(spec.topology)
        nab = NetworkAwareBroadcast(
            graph, spec.source, spec.max_faults,
            fault_model=spec.fault_model(), coding_seed=spec.seed,
        )
        for value in spec.inputs():
            result = nab.run_instance(value)
            rendered = result.to_jsonable()
            restored = instance_result_from_jsonable(
                json.loads(json.dumps(rendered))
            )
            assert restored.to_jsonable() == rendered
            assert restored.outputs == result.outputs
            assert restored.elapsed == result.elapsed
            assert restored.link_bits == result.link_bits
            assert restored.new_disputes == result.new_disputes


class TestWarmTopologyContext:
    def test_repeat_sessions_hit_the_warm_context(self):
        clear_topology_contexts()
        warm_graph("k4-fast", 1, 1)
        warm_graph("k4-fast", 1, 1)
        stats = topology_context_stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_infeasible_parameters_fail_on_the_miss(self):
        clear_topology_contexts()
        with pytest.raises(ProtocolError):
            warm_graph("k4-fast", 1, 2)  # n=4 < 3*2+1

    def test_warm_path_row_equals_cold_path_row(self):
        spec = _spec("ring7-chords", "equality-garbage", instances=2)
        clear_topology_contexts()
        cold = run_session(spec)
        warm = run_session(spec)  # context now warm: validation skipped
        assert dump_row(cold) == dump_row(warm)
        assert topology_context_stats()["hits"] >= 1


class TestSessionSeeds:
    def test_session_seed_is_stable_and_id_sensitive(self):
        assert session_seed(0, "a") == session_seed(0, "a")
        assert session_seed(0, "a") != session_seed(0, "b")
        assert session_seed(0, "a") != session_seed(1, "a")

    def test_spec_round_trip(self):
        spec = _spec("k4-fast", "equality-garbage")
        assert SessionSpec.from_jsonable(
            json.loads(json.dumps(spec.to_jsonable()))
        ) == spec
