"""One NAB instance: the three phases glued together with time accounting.

The orchestration mirrors Section 2 of the paper, including its two special
cases:

* if the source is no longer in ``G_k`` (it has been identified as faulty),
  all fault-free nodes adopt a default output and the instance costs nothing;
* if the source is in ``G_k`` but at least ``f`` other nodes have been
  excluded, every remaining node is fault-free and Phase 1 alone suffices.

The per-phase costs follow Appendix D: Phase 1 costs ``~L / gamma_k``, the
Equality Check ``~L / rho_k``, the 1-bit flag broadcasts a (measured)
polynomial-in-``n`` amount independent of ``L``, and dispute control a large
``L``-dependent amount that is incurred at most ``f (f + 1)`` times across a
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from repro.coding.coding_matrix import generate_coding_scheme
from repro.core.dispute_state import DisputeState
from repro.core.parameters import InstanceParameters, compute_instance_parameters
from repro.core.phase1_broadcast import run_phase1
from repro.core.phase2_equality import run_phase2
from repro.core.phase3_dispute import DEFAULT_OUTPUT, run_phase3
from repro.exceptions import ProtocolError
from repro.gf.symbols import symbol_size_for
from repro.graph.network_graph import NetworkGraph
from repro.transport.faults import FaultModel
from repro.transport.network import NetworkFactory, SynchronousNetwork
from repro.types import NodeId, PhaseTiming, accumulate_link_bits


@dataclass(frozen=True)
class InstanceResult:
    """Everything one NAB instance produced.

    Attributes:
        instance: The instance index ``k`` (0-based).
        outputs: Output value (integer of ``L`` bits) of every fault-free node.
        elapsed: Total elapsed time of the instance in time units.
        bits_sent: Total bits sent on all links.
        phase_timings: Per-phase breakdown.
        parameters: ``gamma_k`` / ``U_k`` / ``rho_k`` used (``None`` for the
            default-output special case).
        dispute_control_ran: Whether Phase 3 executed.
        new_disputes: Disputed pairs discovered by this instance.
        newly_identified_faulty: Faulty nodes identified by this instance.
        mismatch_announced: Whether any node announced MISMATCH in step 2.2.
        link_bits: Bits sent per directed link over the whole instance.
        phase1_depth: Maximum depth over the packed Phase 1 arborescences (the
            number of store-and-forward hops the broadcast needs under
            propagation delay); ``None`` when Phase 1 did not run.
    """

    instance: int
    outputs: Dict[NodeId, int]
    elapsed: Fraction
    bits_sent: int
    phase_timings: Tuple[PhaseTiming, ...]
    parameters: Optional[InstanceParameters]
    dispute_control_ran: bool
    new_disputes: Tuple[frozenset, ...]
    newly_identified_faulty: Tuple[NodeId, ...]
    mismatch_announced: bool
    link_bits: Dict[tuple, int] = field(default_factory=dict)
    phase1_depth: Optional[int] = None

    def agreed_value(self) -> int:
        """The common output of the fault-free nodes.

        Raises:
            ProtocolError: if they do not agree (which would indicate a bug —
                NAB guarantees agreement).
        """
        values = set(self.outputs.values())
        if len(values) != 1:
            raise ProtocolError(f"fault-free nodes disagree: {sorted(values)}")
        return next(iter(values))

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-safe rendering that :func:`instance_result_from_jsonable` inverts.

        Every mapping key is a string and every exact rational a ``"p/q"``
        string, matching the :meth:`repro.types.RunRecord.to_jsonable`
        conventions, so session snapshots embedding these rows serialise
        bit-for-bit reproducibly under ``json.dumps(..., sort_keys=True)``.
        Outputs are rendered as hex strings of one width (the widest
        output's): CPython refuses to print integers beyond 4300 digits, so a
        payload above ~1.7 KB could not be persisted as a JSON integer.
        """
        width = len(format(max(self.outputs.values(), default=0), "x"))
        return {
            "instance": self.instance,
            "outputs": {
                str(node): format(value, f"0{width}x")
                for node, value in self.outputs.items()
            },
            "elapsed": str(self.elapsed),
            "bits_sent": self.bits_sent,
            "phase_timings": [
                {
                    "name": timing.name,
                    "time_units": str(timing.time_units),
                    "bits_sent": timing.bits_sent,
                }
                for timing in self.phase_timings
            ],
            "parameters": None
            if self.parameters is None
            else {
                "gamma": self.parameters.gamma,
                "omega": [list(nodes) for nodes in self.parameters.omega],
                "uk": self.parameters.uk,
                "rho": self.parameters.rho,
            },
            "dispute_control_ran": self.dispute_control_ran,
            "new_disputes": [sorted(pair) for pair in self.new_disputes],
            "newly_identified_faulty": list(self.newly_identified_faulty),
            "mismatch_announced": self.mismatch_announced,
            "link_bits": {
                f"{tail}->{head}": bits
                for (tail, head), bits in sorted(self.link_bits.items())
            },
            "phase1_depth": self.phase1_depth,
        }


def instance_result_from_jsonable(data: Dict[str, object]) -> InstanceResult:
    """Rebuild an :class:`InstanceResult` rendered by :meth:`InstanceResult.to_jsonable`.

    The round trip is exact: node ids come back as integers, times as
    :class:`~fractions.Fraction`, disputes as frozensets — so a session
    restored from a write-ahead snapshot aggregates its completed instances
    into a :class:`repro.types.RunRecord` byte-identical to an uninterrupted
    run's.  Outputs are accepted as hex strings (the current rendering) or as
    JSON integers.  Every key is required: a payload written before one of
    them existed raises here, and the session service discards such a
    snapshot and runs its session fresh rather than guess the missing value.
    """
    parameters = data["parameters"]
    return InstanceResult(
        instance=int(data["instance"]),
        outputs={
            int(node): value if isinstance(value, int) else int(value, 16)
            for node, value in data["outputs"].items()
        },
        elapsed=Fraction(data["elapsed"]),
        bits_sent=int(data["bits_sent"]),
        phase_timings=tuple(
            PhaseTiming(
                name=timing["name"],
                time_units=Fraction(timing["time_units"]),
                bits_sent=int(timing["bits_sent"]),
            )
            for timing in data["phase_timings"]
        ),
        parameters=None
        if parameters is None
        else InstanceParameters(
            gamma=int(parameters["gamma"]),
            omega=tuple(tuple(nodes) for nodes in parameters["omega"]),
            uk=int(parameters["uk"]),
            rho=int(parameters["rho"]),
        ),
        dispute_control_ran=bool(data["dispute_control_ran"]),
        new_disputes=tuple(frozenset(pair) for pair in data["new_disputes"]),
        newly_identified_faulty=tuple(data["newly_identified_faulty"]),
        mismatch_announced=bool(data["mismatch_announced"]),
        link_bits={
            tuple(int(part) for part in edge.split("->")): bits
            for edge, bits in data["link_bits"].items()
        },
        phase1_depth=data["phase1_depth"],
    )


def summarize_instances(
    results: "Sequence[InstanceResult]", inputs: "Sequence[bytes]"
) -> Tuple[
    Tuple[Dict[NodeId, bytes], ...],
    Dict[tuple, int],
    list,
    list,
]:
    """Aggregate per-instance results into the shared ``RunRecord`` ingredients.

    The single definition used by both the sequential (``NABRunResult``) and
    pipelined (``PipelinedNABResult``) record builders, so the two execution
    paths can never disagree on output canonicalisation or dispute
    aggregation.

    Returns:
        ``(outputs, link_totals, disputes, identified)`` where ``outputs``
        renders each instance's integer outputs as byte strings of the
        instance's payload length — the canonical form is length-preserving
        (an output of 7 on a 2-byte payload is ``b"\\x00\\x07"``, distinct
        from a 1-byte payload's ``b"\\x07"``).
    """
    link_totals: Dict[tuple, int] = {}
    disputes: list = []
    identified: list = []
    for result in results:
        accumulate_link_bits(link_totals, result.link_bits)
        disputes.extend(sorted(pair) for pair in result.new_disputes)
        identified.extend(result.newly_identified_faulty)
    outputs = tuple(
        {
            node: value.to_bytes(len(payload), "big")
            for node, value in result.outputs.items()
        }
        for payload, result in zip(inputs, results)
    )
    return outputs, link_totals, disputes, identified


class NABInstance:
    """Executor for a single instance ``k`` of NAB."""

    def __init__(
        self,
        graph: NetworkGraph,
        source: NodeId,
        max_faults: int,
        fault_model: FaultModel,
        dispute_state: DisputeState,
        instance: int,
        coding_seed: int = 0,
        network_factory: NetworkFactory | None = None,
        recorder=None,
    ) -> None:
        self.graph = graph
        self.source = source
        self.max_faults = max_faults
        self.fault_model = fault_model
        self.dispute_state = dispute_state
        self.instance = instance
        self.coding_seed = coding_seed
        self.network_factory = (
            network_factory if network_factory is not None else SynchronousNetwork
        )
        #: Optional forensic recorder (``repro.analysis.forensics``): when set,
        #: every instance that reaches Phase 2 deposits its ledger evidence —
        #: transcripts, flags, agreed claims — via ``recorder.record(...)``.
        #: ``None`` (the default) changes nothing.
        self.recorder = recorder

    # ----------------------------------------------------------------- running

    def run(self, input_bits: int, total_bits: int) -> InstanceResult:
        """Run the instance for the given ``L``-bit input (as an integer)."""
        if total_bits < 1:
            raise ProtocolError(f"total_bits must be >= 1, got {total_bits}")
        if input_bits < 0 or input_bits >= (1 << total_bits):
            raise ProtocolError(f"input does not fit in {total_bits} bits")
        network = self.network_factory(self.graph, self.fault_model)
        instance_graph = self.dispute_state.instance_graph(self.graph)
        all_nodes = self.graph.nodes()
        fault_free = self.fault_model.fault_free(all_nodes)

        # The adversary knows everything public: topology, instance graph,
        # source, and the agreed dispute state (a private copy — mutating it
        # cannot influence the protocol).  Adaptive strategies use this to
        # retarget away from already-disputed edges.
        self.fault_model.strategy.observe_instance(
            self.instance,
            self.graph,
            instance_graph,
            self.source,
            self.max_faults,
            self.dispute_state.copy(),
        )

        # Special case 1: the source has been identified as faulty.
        if not instance_graph.has_node(self.source):
            outputs = {node: DEFAULT_OUTPUT for node in fault_free}
            return self._result(network, outputs, None, False, (), (), False)

        participants = instance_graph.nodes()
        excluded = len(all_nodes) - len(participants)
        residual_faults = max(0, self.max_faults - excluded)

        parameters = compute_instance_parameters(
            instance_graph, self.source, len(all_nodes), self.max_faults, self.dispute_state
        )
        scheme = generate_coding_scheme(
            instance_graph,
            parameters.rho,
            symbol_size_for(total_bits, parameters.rho),
            seed=self.coding_seed,
            instance=self.instance,
        )

        phase1 = run_phase1(
            network,
            instance_graph,
            self.source,
            input_bits,
            total_bits,
            parameters.gamma,
            instance=self.instance,
        )
        phase1_depth = max((tree.depth() for tree in phase1.trees), default=1)

        # Special case 2: at least f nodes excluded -> everyone left is
        # fault-free and Phase 1 alone is reliable.
        if excluded >= self.max_faults:
            outputs = {
                node: phase1.values[node]
                for node in fault_free
                if node in phase1.values
            }
            return self._result(
                network, outputs, parameters, False, (), (), False, phase1_depth
            )

        phase2 = run_phase2(
            network,
            instance_graph,
            phase1.values,
            total_bits,
            scheme,
            participants,
            residual_faults,
            self.max_faults,
            instance=self.instance,
        )

        if not phase2.mismatch_announced:
            self._record_evidence(participants, phase1, phase2, None)
            outputs = {
                node: phase1.values[node]
                for node in fault_free
                if node in phase1.values
            }
            return self._result(
                network, outputs, parameters, False, (), (), False, phase1_depth
            )

        phase3 = run_phase3(
            network,
            instance_graph,
            self.source,
            input_bits,
            total_bits,
            phase1,
            phase2.check,
            phase2.announced_flags,
            scheme,
            participants,
            residual_faults,
            self.max_faults,
            instance=self.instance,
        )
        self._record_evidence(participants, phase1, phase2, phase3)
        # Update the shared dispute state (all fault-free nodes do this
        # identically because the claims table is agreed via Byzantine
        # broadcast).
        self.dispute_state.add_disputes(phase3.new_disputes)
        for node in phase3.identified_faulty:
            self.dispute_state.mark_faulty(node)
        outputs = {node: phase3.output_bits for node in fault_free}
        return self._result(
            network,
            outputs,
            parameters,
            True,
            phase3.new_disputes,
            phase3.identified_faulty,
            True,
            phase1_depth,
        )

    # ----------------------------------------------------------------- helpers

    def _record_evidence(self, participants, phase1, phase2, phase3) -> None:
        """Deposit this instance's public ledger with the forensic recorder.

        Everything recorded is information every fault-free node holds after
        the instance completes: the transport ledger (delivered Phase 1
        symbols and equality-check vectors), the agreed flag vector, and —
        when dispute control ran — the agreed claims table with its verdicts.
        The set of actually-faulty nodes is deliberately *not* included; the
        forensic pass must reconstruct culpability from public evidence only.
        """
        if self.recorder is None:
            return
        self.recorder.record(
            {
                "instance": self.instance,
                "source": self.source,
                "participants": tuple(sorted(participants)),
                "max_faults": self.max_faults,
                "tree_parents": tuple(dict(tree.parents) for tree in phase1.trees),
                "phase1_sent": dict(phase1.sent_symbols),
                "phase1_received": dict(phase1.received_symbols),
                "equality_sent": {
                    edge: tuple(vector)
                    for edge, vector in phase2.check.sent_vectors.items()
                },
                "true_flags": dict(phase2.check.flags),
                "announced_flags": dict(phase2.announced_flags),
                "claims": None if phase3 is None else phase3.claims,
                "new_disputes": () if phase3 is None else phase3.new_disputes,
                "identified": () if phase3 is None else phase3.identified_faulty,
            }
        )

    def _result(
        self,
        network: SynchronousNetwork,
        outputs: Dict[NodeId, int],
        parameters: Optional[InstanceParameters],
        dispute_control_ran: bool,
        new_disputes,
        identified_faulty,
        mismatch_announced: bool,
        phase1_depth: Optional[int] = None,
    ) -> InstanceResult:
        return InstanceResult(
            instance=self.instance,
            outputs=outputs,
            parameters=parameters,
            dispute_control_ran=dispute_control_ran,
            new_disputes=tuple(new_disputes),
            newly_identified_faulty=tuple(identified_faulty),
            mismatch_announced=mismatch_announced,
            phase1_depth=phase1_depth,
            **network.result_accounting(),
        )
