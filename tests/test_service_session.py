"""Snapshot/restore exactness: sessions resume byte-identically mid-flight.

The tentpole property (ISSUE 10 satellite 1): a snapshot → restore round trip
of ``DisputeState`` and a mid-flight session reproduces the uninterrupted
run's outputs, bits and dispute-control count *exactly*, across every
registered adversary strategy on the headline topologies.  Sessions are pure
functions of their spec, so the checkpoint taken after instance ``k`` plus
the spec must determine the rest of the run bit for bit.

A session is a cell: its record is the one :func:`run_cell` computes for
``spec.cell()``, its faulty set the one spec expansion places, and a
checkpoint that does not belong to it — or does not parse — is refused with
:class:`ProtocolError`, never resumed into another row.
"""

from __future__ import annotations

import copy
import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dispute_state import DisputeState
from repro.core.instance import instance_result_from_jsonable
from repro.core.nab import NetworkAwareBroadcast, parse_checkpoint
from repro.engine.runner import dump_row, run_cell
from repro.engine.spec import FAULT_FREE, ExperimentSpec, cell_seed
from repro.exceptions import ConfigurationError, ProtocolError
from repro.graph.flow_cache import clear_scope
from repro.service.session import (
    SessionSpec,
    run_session,
    snapshot_belongs_to,
    topology_context_stats,
    warm_graph,
)
from repro.service.workload import generate_sessions
from repro.types import node_pair
from repro.workloads.scenarios import named_strategies
from repro.workloads.topologies import topology

#: The headline topologies of the comparison grids (all feasible at f = 1).
HEADLINE_TOPOLOGIES = ("k4-fast", "bottleneck4", "ring7-chords")

#: Every registered strategy, plus no adversary at all.
STRATEGIES = [FAULT_FREE] + named_strategies()


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
    @pytest.mark.parametrize("strategy", STRATEGIES)
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


    def test_snapshot_with_foreign_pending_inputs_is_rejected(self):
        # Resumed, these snapshots gave an error-free row that differs from
        # the fresh run, and one whose record counted 2 of 4 instances.
        spec = _spec("k4-fast", "equality-garbage")
        checkpoints = []
        run_session(spec, checkpoint=checkpoints.append)
        altered = _json_round_trip(checkpoints[0])
        altered["pending_inputs"] = ["ffff"] * len(altered["pending_inputs"])
        truncated = _json_round_trip(checkpoints[0])
        truncated["pending_inputs"] = truncated["pending_inputs"][:1]
        for snapshot in (altered, truncated):
            with pytest.raises(ProtocolError):
                run_session(spec, snapshot=snapshot)

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
        state.add_disputes([node_pair(1, 3)])
        state.add_disputes([node_pair(4, 2)])
        state.mark_faulty(5)
        restored = DisputeState.from_jsonable(
            json.loads(json.dumps(state.to_jsonable()))
        )
        assert restored.disputes() == state.disputes()
        assert restored.to_jsonable() == state.to_jsonable()
        assert restored.max_faults == state.max_faults

    def test_rendering_is_canonical(self):
        first = DisputeState(1)
        first.add_disputes([node_pair(3, 1)])
        first.add_disputes([node_pair(2, 4)])
        second = DisputeState(1)
        second.add_disputes([node_pair(4, 2)])
        second.add_disputes([node_pair(1, 3)])
        assert json.dumps(first.to_jsonable(), sort_keys=True) == json.dumps(
            second.to_jsonable(), sort_keys=True
        )

    def test_malformed_dispute_is_rejected(self):
        with pytest.raises(ProtocolError):
            DisputeState.from_jsonable(
                {"max_faults": 1, "disputes": [[1, 1]], "known_faulty": []}
            )


def _restore_mutations():
    """One structural edit of a checkpoint: what a torn or hostile WAL holds."""
    foreign = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 5),
        st.floats(allow_nan=False),
        st.text(max_size=3),
        st.lists(st.integers(0, 5), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(0, 5), max_size=2),
    )
    hex_value = st.binary(min_size=0, max_size=3).map(bytes.hex)
    return st.one_of(
        st.tuples(st.just("drop_result"), st.integers(0, 9)),
        st.tuples(st.just("duplicate_result"), st.integers(0, 9)),
        st.tuples(st.just("truncate_pending"), st.integers(0, 9)),
        st.tuples(st.just("extend_pending"), st.lists(hex_value, min_size=1, max_size=2)),
        st.tuples(st.just("alter_pending"), st.tuples(st.integers(0, 9), hex_value)),
        st.tuples(st.just("delete_key"), st.integers(0, 999)),
        st.tuples(st.just("confuse_instances_run"), foreign),
        st.tuples(st.just("confuse_dispute_state"), foreign),
    )


def _key_paths(snapshot):
    """Every deletable key path: top level, state, dispute state, results."""
    paths = [(key,) for key in snapshot]
    paths += [("state", key) for key in snapshot["state"]]
    paths += [("state", "dispute_state", key) for key in snapshot["state"]["dispute_state"]]
    for index, result in enumerate(snapshot["results"]):
        paths += [("results", index, key) for key in result]
    return paths


def _mutate(snapshot, mutation):
    mutated = copy.deepcopy(snapshot)
    kind, argument = mutation
    results, pending = mutated["results"], mutated["pending_inputs"]
    if kind == "drop_result":
        del results[argument % len(results)]
    elif kind == "duplicate_result":
        index = argument % len(results)
        results.insert(index, copy.deepcopy(results[index]))
    elif kind == "truncate_pending":
        del pending[argument % len(pending):]
    elif kind == "extend_pending":
        pending.extend(argument)
    elif kind == "alter_pending":
        pending[argument[0] % len(pending)] = argument[1]
    elif kind == "delete_key":
        paths = _key_paths(mutated)
        *parents, key = paths[argument % len(paths)]
        container = mutated
        for parent in parents:
            container = container[parent]
        del container[key]
    elif kind == "confuse_instances_run":
        mutated["state"]["instances_run"] = argument
    else:
        mutated["state"]["dispute_state"] = argument
    return mutated


@functools.lru_cache(maxsize=None)
def _restore_case(strategy):
    """A session with real checkpoints, and the bytes of its fresh run."""
    spec = _spec("k4-fast", strategy)
    checkpoints = []
    reference = dump_row(run_session(spec, checkpoint=checkpoints.append))
    return spec, tuple(dump_row(snapshot) for snapshot in checkpoints), reference


class TestRestoreRejectsMalformedSnapshots:
    @settings(max_examples=80, deadline=None)
    @example(  # dropped then duplicated: the count holds, the instance order does not
        strategy="equality-garbage",
        index=1,
        mutations=[("drop_result", 0), ("duplicate_result", 0)],
    )
    @given(
        strategy=st.sampled_from(["equality-garbage", "dispute-liar"]),
        index=st.integers(0, 2),
        mutations=st.lists(_restore_mutations(), min_size=1, max_size=2),
    )
    def test_mutated_checkpoint_is_refused_or_resumes_exactly(
        self, strategy, index, mutations
    ):
        # Structural edits only: the contents of a stored instance result
        # cannot be checked without re-running it.
        spec, checkpoints, reference = _restore_case(strategy)
        snapshot = json.loads(checkpoints[index % len(checkpoints)])
        for mutation in mutations:
            if not snapshot.get("results") or not snapshot.get("pending_inputs"):
                break
            if not isinstance(snapshot.get("state"), dict) or not isinstance(
                snapshot["state"].get("dispute_state"), dict
            ):
                break
            snapshot = _mutate(snapshot, mutation)
        if not snapshot_belongs_to(spec, snapshot):
            # The service's resume gate: it discards the snapshot and runs
            # the session fresh, so no other exception may escape here.
            with pytest.raises(ProtocolError):
                run_session(spec, snapshot=snapshot)
            return
        assert dump_row(run_session(spec, snapshot=snapshot)) == reference


class TestSessionIsACell:
    @pytest.mark.parametrize("topology_name", HEADLINE_TOPOLOGIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_session_record_and_placement_are_its_cells(self, topology_name, strategy):
        spec = _spec(topology_name, strategy)
        assert run_session(spec)["record"] == run_cell(spec.cell())["record"]
        (cell,) = ExperimentSpec(
            name="placement",
            topologies=(topology_name,),
            strategies=(strategy,),
            payload_bytes=(spec.payload_bytes,),
            fault_counts=(spec.max_faults,),
            protocols=("nab",),
            instances=spec.instances,
            source=spec.source,
        ).expand()
        assert cell.faulty_nodes == spec.faulty_nodes

    @pytest.mark.parametrize("strategy", ["equivocating-source", "equality-garbage"])
    def test_adversary_at_f0_is_refused(self, strategy):
        # f = 0 sliced [:-1]: an equivocating source took 6 of k7-unit's 7
        # nodes with it, and other strategies ran "adversarial" with none.
        with pytest.raises(ConfigurationError):
            generate_sessions(1, strategies=(strategy,), max_faults=0)
        (fault_free,) = generate_sessions(1, max_faults=0)
        assert fault_free.faulty_nodes == ()


class TestNABStateHooks:
    def test_restore_rejects_mismatched_max_faults(self):
        graph = topology("k4-fast")
        nab = NetworkAwareBroadcast(graph, 1, 1)
        state = nab.snapshot_state()
        parse_checkpoint({"state": state, "results": []}, 1, 1)
        state["dispute_state"]["max_faults"] = 2
        with pytest.raises(ProtocolError):
            parse_checkpoint({"state": state, "results": []}, 1, 1)

    def test_restore_rejects_negative_instance_index(self):
        graph = topology("k4-fast")
        nab = NetworkAwareBroadcast(graph, 1, 1)
        state = nab.snapshot_state()
        state["instances_run"] = -1
        with pytest.raises(ProtocolError):
            parse_checkpoint({"state": state, "results": []}, 1, 1)

    def test_instance_result_round_trip_is_exact(self):
        spec = _spec("bottleneck4", "equality-garbage", instances=2)
        scenario = spec.cell().scenario()
        nab = NetworkAwareBroadcast(
            scenario.graph, spec.source, spec.max_faults,
            fault_model=scenario.fault_model, coding_seed=spec.seed,
        )
        for value in scenario.inputs:
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
        clear_scope("process")  # the warm topology contexts
        warm_graph("k4-fast", 1, 1)
        warm_graph("k4-fast", 1, 1)
        stats = topology_context_stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_infeasible_parameters_fail_on_the_miss(self):
        clear_scope("process")  # the warm topology contexts
        with pytest.raises(ProtocolError):
            warm_graph("k4-fast", 1, 2)  # n=4 < 3*2+1

    def test_warm_path_row_equals_cold_path_row(self):
        spec = _spec("ring7-chords", "equality-garbage", instances=2)
        clear_scope("process")  # the warm topology contexts
        cold = run_session(spec)
        warm = run_session(spec)  # context now warm: validation skipped
        assert dump_row(cold) == dump_row(warm)
        assert topology_context_stats()["hits"] >= 1


class TestSessionSeeds:
    def test_session_seed_is_the_cell_seed_of_its_id(self):
        first, second = generate_sessions(2, seed=3, service="seeds")
        assert first.seed == cell_seed(3, first.session_id)
        assert second.seed == cell_seed(3, second.session_id)
        assert first.seed != second.seed

    def test_spec_is_a_sequential_nab_cell(self):
        spec = _spec("k4-fast", "equality-garbage")
        cell = spec.cell()
        assert (cell.spec_name, cell.cell_id, cell.seed) == (
            spec.service, spec.session_id, spec.seed
        )
        assert (cell.protocol, cell.execution, cell.link_model, cell.fault_plan) == (
            "nab", "sequential", "instant", "none"
        )
        assert cell.faulty_nodes == spec.faulty_nodes
        assert not cell.bounds_only
