"""The public NAB entry point: repeated Byzantine broadcast with amortised dispute control.

:class:`NetworkAwareBroadcast` runs a sequence of NAB instances on one
network, carrying the dispute state from instance to instance exactly as the
paper prescribes.  It accepts inputs as byte strings (the natural application
interface) and reports one instance's :class:`InstanceResult`, or a whole
run folded into a :class:`repro.types.RunRecord` whose throughput is measured
in bits per time unit under the link-capacity model.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.dispute_state import DisputeState
from repro.core.instance import InstanceResult, NABInstance, instance_result_from_jsonable
from repro.core.pipeline import pipelined_timing
from repro.transport.network import NetworkFactory
from repro.exceptions import ProtocolError
from repro.graph.connectivity import resilience_violation
from repro.graph.network_graph import NetworkGraph
from repro.transport.faults import FaultModel
from repro.types import NodeId, RunRecord, fold_instances

#: The per-instance hook of :meth:`NetworkAwareBroadcast.run`.
Checkpoint = Callable[[Dict[str, object]], None]


class NetworkAwareBroadcast:
    """Runs NAB repeatedly on a fixed network with a fixed (unknown) faulty set.

    Args:
        graph: The point-to-point network ``G`` with link capacities.
        source: The broadcasting node (the paper uses node 1).
        max_faults: The resilience parameter ``f``; requires
            ``n >= 3f + 1`` and network connectivity ``>= 2f + 1``.
        fault_model: Which nodes actually are Byzantine and how they behave.
            Defaults to no faults.
        coding_seed: Public seed for the coding matrices (part of the
            algorithm specification).
        network_factory: Builds the transport each instance runs on; defaults
            to the zero-delay :class:`repro.transport.network.SynchronousNetwork`.
            Pass a factory that gives it a link model to measure delivery on
            its replayed link clock, or a fault plan to run over lossy links.

    Raises:
        ProtocolError: if the preconditions on ``n``, ``f``, the source or the
            connectivity are violated.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        source: NodeId,
        max_faults: int,
        fault_model: FaultModel | None = None,
        coding_seed: int = 0,
        network_factory: NetworkFactory | None = None,
        recorder=None,
    ) -> None:
        if not graph.has_node(source):
            raise ProtocolError(f"source {source} is not a node of the network")
        if max_faults < 0:
            raise ProtocolError(f"max_faults must be non-negative, got {max_faults}")
        violation = resilience_violation(graph, max_faults)
        if violation is not None:
            raise ProtocolError(violation)
        self.graph = graph if graph.is_frozen else graph.copy().freeze()
        self.source = source
        self.max_faults = max_faults
        self.fault_model = fault_model if fault_model is not None else FaultModel()
        self.fault_model.validate_for(graph.node_count(), max_faults)
        self.coding_seed = coding_seed
        self.network_factory = network_factory
        #: Optional :class:`repro.analysis.forensics.ForensicRecorder`; when
        #: set, every instance deposits its public ledger for the
        #: accountability pass.  ``None`` leaves behaviour untouched.
        self.recorder = recorder
        self.dispute_state = DisputeState(max_faults)
        self._instances_run = 0

    # ----------------------------------------------------------------- running

    def run_instance(self, value: bytes) -> InstanceResult:
        """Run one NAB instance broadcasting ``value`` (``L = 8 * len(value)`` bits)."""
        if not value:
            raise ProtocolError("the broadcast value must contain at least one byte")
        total_bits = 8 * len(value)
        input_bits = int.from_bytes(value, "big")
        executor = NABInstance(
            self.graph,
            self.source,
            self.max_faults,
            self.fault_model,
            self.dispute_state,
            instance=self._instances_run,
            coding_seed=self.coding_seed,
            network_factory=self.network_factory,
            recorder=self.recorder,
        )
        result = executor.run(input_bits, total_bits)
        self._instances_run += 1
        return result

    def run(
        self,
        values: Sequence[bytes],
        snapshot: Optional[Mapping[str, object]] = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> RunRecord:
        """Run one instance per value, fresh or resumed, and fold the run.

        ``checkpoint`` is called after every instance but the last with the
        JSON-safe ``state`` (:meth:`snapshot_state`), completed ``results``
        and hex ``pending_inputs``; passed back as ``snapshot`` with the same
        ``values``, such a payload resumes the run exactly.

        Raises:
            ProtocolError: if no values are given, or ``snapshot`` is
                malformed or inconsistent with its state or ``values``.
        """
        return self._fold(values, self._run_instances(values, snapshot, checkpoint))

    def run_pipelined(self, values: Sequence[bytes]) -> RunRecord:
        """Run one instance per value with Figure 3 pipelined timing.

        Instance semantics (outputs, bits, dispute-state evolution) are
        identical to :meth:`run`; ``elapsed`` is the makespan of the Figure 3
        pipeline over the instances' measured stage durations, and the stage
        timeline lands in ``metadata`` (see :mod:`repro.core.pipeline`).

        Raises:
            ProtocolError: if no values are given.
        """
        results = self._run_instances(values)
        return self._fold(values, results, *pipelined_timing(results, values))

    def _run_instances(
        self,
        values: Sequence[bytes],
        snapshot: Optional[Mapping[str, object]] = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> List[InstanceResult]:
        """The one instance loop of NAB, with its restore and checkpoint hook."""
        if not values:
            raise ProtocolError("at least one value is required")
        results: List[InstanceResult] = []
        if snapshot is not None:
            self.dispute_state, self._instances_run, results = parse_checkpoint(
                snapshot, self.max_faults, len(values)
            )
        for value in values[len(results):]:
            results.append(self.run_instance(value))
            if checkpoint is not None and len(results) < len(values):
                checkpoint(
                    {
                        "state": self.snapshot_state(),
                        "results": [result.to_jsonable() for result in results],
                        "pending_inputs": [pending.hex() for pending in values[len(results):]],
                    }
                )
        return results

    def _fold(
        self,
        values: Sequence[bytes],
        results: Sequence[InstanceResult],
        elapsed: Optional[Fraction] = None,
        timing: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        """The run's :class:`RunRecord`: integer outputs become byte strings of
        their payload's length (``7`` on a 2-byte payload is ``b"\\x00\\x07"``),
        and ``timing`` is the pipelined metadata of :func:`pipelined_timing`."""
        instances = [
            (
                {node: value.to_bytes(len(payload), "big") for node, value in result.outputs.items()},
                vars(result),  # an InstanceResult carries its result_accounting() fields
            )
            for payload, result in zip(values, results)
        ]
        return fold_instances(
            "nab",
            values,
            self.fault_model.is_faulty(self.source),
            instances,
            dispute_control_executions=sum(1 for result in results if result.dispute_control_ran),
            elapsed=elapsed,
            metadata={
                "algorithm": "nab",
                "disputes": sorted(
                    sorted(pair) for result in results for pair in result.new_disputes
                ),
                "identified_faulty": sorted(
                    node for result in results for node in result.newly_identified_faulty
                ),
                "mismatch_instances": sum(1 for result in results if result.mismatch_announced),
                **(timing or {}),
            },
        )

    # ------------------------------------------------------------------ state

    def snapshot_state(self) -> Dict[str, object]:
        """The JSON-safe cross-instance state of this run.

        Everything an instance's execution depends on beyond the (immutable)
        constructor arguments: the accumulated dispute knowledge and the index
        of the next instance.  Together with the constructor arguments and the
        pending inputs this fully determines the remainder of the run —
        instances are deterministic — which is the contract the session
        service's snapshot/restore relies on.
        """
        return {
            "instances_run": self._instances_run,
            "dispute_state": self.dispute_state.to_jsonable(),
        }


def parse_checkpoint(
    snapshot: Mapping[str, object], max_faults: int, instances: int
) -> Tuple[DisputeState, int, List[InstanceResult]]:
    """The dispute state, next instance index and completed results of a
    :meth:`NetworkAwareBroadcast.run` checkpoint, for a run of ``instances``
    values at ``max_faults``: what a resumed run adopts, so its next instance
    continues exactly where the captured run stopped.

    Raises:
        ProtocolError: if any of the three restore parsers refuses the
            snapshot (a malformed or older-layout payload), or its state and
            results disagree with each other or with the run.
    """
    try:
        state = snapshot["state"]
        dispute_state = DisputeState.from_jsonable(state["dispute_state"])
        instances_run = state["instances_run"]
        results = [instance_result_from_jsonable(data) for data in snapshot["results"]]
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed snapshot: {type(exc).__name__}: {exc}") from exc
    if dispute_state.max_faults != max_faults:
        raise ProtocolError(
            f"snapshot was taken with max_faults={dispute_state.max_faults}, "
            f"this run uses {max_faults}"
        )
    if type(instances_run) is not int or instances_run < 0:
        raise ProtocolError(f"snapshot claims instance index {instances_run!r}")
    stored = [result.instance for result in results]
    if stored != list(range(instances_run)) or len(results) > instances:
        raise ProtocolError(
            f"inconsistent snapshot: state says {instances_run} instance(s) "
            f"ran, results are of instances {stored}, the run has {instances}"
        )
    return dispute_state, instances_run, results
