"""Common type aliases and small value objects shared across the library.

The paper models the network as a directed simple graph ``G(V, E)`` whose
vertices are the nodes ``1 .. n`` and whose directed edges carry positive
integer capacities.  Throughout the library nodes are identified by plain
integers and directed edges by ``(tail, head)`` tuples; this module pins those
conventions down and provides the small frozen dataclasses used to pass
structured results between subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

#: A node identifier.  The paper numbers nodes ``1 .. n`` with node 1 as the
#: source; the library follows the same convention but does not require
#: contiguous identifiers.
NodeId = int

#: A directed edge identified by ``(tail, head)``.
Edge = Tuple[NodeId, NodeId]

#: An unordered node pair, used for disputes and undirected edges.  Stored as
#: a ``frozenset`` of exactly two node identifiers.
NodePair = FrozenSet[NodeId]

#: Time durations and throughputs are exact rationals so that the analytical
#: quantities of the paper (e.g. ``L / gamma_k``) can be compared without
#: floating-point noise.
TimeUnits = Fraction


def node_pair(a: NodeId, b: NodeId) -> NodePair:
    """Return the canonical unordered pair for nodes ``a`` and ``b``.

    Raises:
        ValueError: if ``a == b`` — a node cannot be in dispute with itself
            and the network graph has no self loops.
    """
    if a == b:
        raise ValueError(f"a node pair requires two distinct nodes, got {a!r} twice")
    return frozenset((a, b))


@dataclass(frozen=True)
class PhaseTiming:
    """Elapsed time attributed to one phase of a protocol instance.

    Attributes:
        name: Human-readable phase name (e.g. ``"phase1_broadcast"``).
        time_units: Elapsed time in the paper's abstract time units, i.e. the
            maximum over all links of ``bits sent on the link / link capacity``
            plus any fixed overhead charged to the phase.
        bits_sent: Total number of bits sent on all links during the phase.
    """

    name: str
    time_units: Fraction
    bits_sent: int = 0


def accumulate_link_bits(totals: Dict[Edge, int], link_bits: Dict[Edge, int]) -> None:
    """Fold one per-link bit ledger into ``totals`` in place.

    The single definition of "sum per-link usage" shared by the phase
    accountant and every protocol adapter, so persisted ``link_bits`` can
    never diverge between protocols.
    """
    for edge, bits in link_bits.items():
        totals[edge] = totals.get(edge, 0) + bits


def canonical_output(value: object) -> str:
    """A canonical string form of a broadcast output value.

    Protocols report outputs in different shapes — byte strings from the
    classical baselines, and Byzantine injections can surface arbitrary
    objects.  Agreement and validity are judged on this canonical form.  Byte
    strings canonicalise losslessly (``0x`` + full hex digits), so values that
    differ only in leading zero bytes — or in length — stay distinct.
    Integer outputs must be converted to byte strings of the payload length by
    their protocol before canonicalisation (NAB does this before it calls
    :func:`fold_instances`); a bare integer canonicalises as ``hex`` and never
    equals a byte string's form.
    """
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return hex(value)
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    if value is None:
        return "none"
    return repr(value)


def broadcast_spec_flags(
    outputs: Sequence[Dict[NodeId, object]],
    inputs: Sequence[bytes],
    source_faulty: bool,
) -> Tuple[bool, Optional[bool]]:
    """Evaluate the Byzantine-broadcast specification over a run's outputs.

    Args:
        outputs: Per-instance fault-free outputs (one mapping per instance).
        inputs: The byte-string input of each instance, in the same order.
        source_faulty: Whether the broadcasting source is Byzantine.

    Returns:
        ``(agreement_ok, validity_ok)``.  ``validity_ok`` is ``None`` when the
        source is faulty (the specification does not constrain validity then).
        A run reporting a different number of output maps than inputs fails
        agreement outright — a missing instance never passes the spec check.
    """
    agreement_ok = len(outputs) == len(inputs)
    validity_ok: Optional[bool] = None if source_faulty else agreement_ok
    for value, instance_outputs in zip(inputs, outputs):
        decided = {canonical_output(output) for output in instance_outputs.values()}
        if len(decided) != 1:
            agreement_ok = False
            if not source_faulty:
                validity_ok = False
            continue
        if not source_faulty and decided != {canonical_output(value)}:
            validity_ok = False
    return agreement_ok, validity_ok


@dataclass(frozen=True)
class RunRecord:
    """The one result shape every protocol run produces (see :func:`fold_instances`).

    One :class:`RunRecord` summarises a whole protocol run — ``instances``
    repeated broadcasts of the given inputs on one network — in a form that the
    experiment engine, the session service and the reporting layer can all
    consume without knowing which protocol produced it.

    Attributes:
        protocol: Registry name of the protocol that produced the record.
        instances: Number of broadcast instances executed (``Q``).
        payload_bits: Total broadcast payload across instances (``Q * L``).
        outputs: Per-instance fault-free outputs, in execution order.
        elapsed: Total elapsed time in the paper's abstract time units.
        bits_sent: Total bits sent on all links across all instances.
        link_bits: Bits sent per directed link, aggregated over the run.
        dispute_control_executions: How many instances ran Phase 3 (always 0
            for protocols without dispute control).
        agreement_ok: Whether every instance's fault-free nodes agreed.
        validity_ok: Whether every instance decided the source's input;
            ``None`` when the source is faulty (validity is then unconstrained).
        metadata: Free-form JSON-safe diagnostics (per-protocol).
    """

    protocol: str
    instances: int
    payload_bits: int
    outputs: Tuple[Dict[NodeId, object], ...]
    elapsed: Fraction
    bits_sent: int
    link_bits: Dict[Edge, int] = field(default_factory=dict)
    dispute_control_executions: int = 0
    agreement_ok: bool = True
    validity_ok: Optional[bool] = True
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> Optional[Fraction]:
        """``payload_bits / elapsed`` in bits per time unit (``None`` if no time elapsed)."""
        if self.elapsed <= 0:
            return None
        return Fraction(self.payload_bits) / self.elapsed

    @property
    def spec_ok(self) -> bool:
        """Whether the run satisfied the broadcast specification.

        Agreement must hold; validity must hold unless the source was faulty
        (``validity_ok is None``).
        """
        return self.agreement_ok and self.validity_ok is not False

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-safe dict with a stable, bit-for-bit reproducible layout.

        All mapping keys are strings and all exact rationals are rendered as
        ``"p/q"`` strings, so ``json.dumps(..., sort_keys=True)`` of the result
        round-trips byte-identically through a parse/re-dump cycle — the
        property the runner's resume-by-skipping relies on.
        """
        throughput = self.throughput
        return {
            "protocol": self.protocol,
            "instances": self.instances,
            "payload_bits": self.payload_bits,
            "outputs": [
                {str(node): canonical_output(value) for node, value in instance.items()}
                for instance in self.outputs
            ],
            "elapsed": str(self.elapsed),
            "bits_sent": self.bits_sent,
            "throughput": None if throughput is None else str(throughput),
            "link_bits": {
                f"{tail}->{head}": bits
                for (tail, head), bits in sorted(self.link_bits.items())
            },
            "dispute_control_executions": self.dispute_control_executions,
            "agreement_ok": self.agreement_ok,
            "validity_ok": self.validity_ok,
            "metadata": dict(self.metadata),
        }


def fold_instances(
    protocol: str,
    inputs: Sequence[bytes],
    source_faulty: bool,
    instances: Sequence[Tuple[Dict[NodeId, object], Mapping[str, object]]],
    dispute_control_executions: int = 0,
    elapsed: Optional[Fraction] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> RunRecord:
    """Fold a run's instances into its :class:`RunRecord`.

    The one place a record is built, so every protocol sums bits, times and
    per-link usage and judges agreement and validity the same way.

    Args:
        protocol: Registry name stamped on the record.
        inputs: The byte-string input of each instance, in execution order.
        source_faulty: Whether the source is Byzantine (validity is then
            unconstrained).
        instances: Per instance, the fault-free outputs (byte strings of the
            payload length, or whatever a Byzantine source made nodes decide)
            and a mapping with the ``elapsed``, ``bits_sent`` and
            ``link_bits`` of the network's ``result_accounting()``.
        dispute_control_executions: How many instances ran Phase 3.
        elapsed: The run's completion time when it is not the sum of the
            instances' times (a pipelined makespan).
        metadata: JSON-safe per-protocol diagnostics.
    """
    outputs = tuple(instance_outputs for instance_outputs, _accounting in instances)
    link_bits: Dict[Edge, int] = {}
    for _outputs, accounting in instances:
        accumulate_link_bits(link_bits, accounting["link_bits"])
    if elapsed is None:
        elapsed = sum((accounting["elapsed"] for _, accounting in instances), Fraction(0))
    agreement_ok, validity_ok = broadcast_spec_flags(outputs, inputs, source_faulty)
    return RunRecord(
        protocol=protocol,
        instances=len(instances),
        payload_bits=sum(8 * len(value) for value in inputs),
        outputs=outputs,
        elapsed=elapsed,
        bits_sent=sum(accounting["bits_sent"] for _, accounting in instances),
        link_bits=link_bits,
        dispute_control_executions=dispute_control_executions,
        agreement_ok=agreement_ok,
        validity_ok=validity_ok,
        metadata={} if metadata is None else metadata,
    )
