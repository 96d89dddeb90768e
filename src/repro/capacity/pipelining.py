"""Pipelining across propagation delays (Appendix D and Figure 3).

The paper's base model has zero propagation delay, but Appendix D notes that
with per-hop propagation a symbol cannot be forwarded before it has been fully
received, so the Phase 1 broadcast effectively advances one hop every
``L / gamma`` time units and the naive per-instance time grows with the
network diameter ``D``.  Figure 3 shows the fix: divide time into rounds of
``L / gamma* + L / rho* + O(n^alpha)`` time units and pipeline the instances,
so instance ``q`` occupies round ``q + hop`` at depth ``hop``; after a fill-in
latency of ``D - 1`` rounds, one instance completes per round and the
throughput of Eq. 6 is recovered.

This module provides exact schedule calculators for both the naive
(unpipelined) and the pipelined execution, which is what the Figure 3
benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class PipelineSchedule:
    """Timing summary of running ``Q`` instances under a given schedule.

    Attributes:
        instances: Number of instances ``Q``.
        round_length: Duration of one pipeline round (or of one full instance
            in the unpipelined case), in time units.
        total_time: Total time until the last instance completes.
        throughput: ``Q * L / total_time`` in bits per time unit.
    """

    instances: int
    round_length: Fraction
    total_time: Fraction
    throughput: Fraction


def _validate(total_bits: int, gamma_value: int, rho_value: int, hops: int, instances: int) -> None:
    if total_bits < 1:
        raise ProtocolError("total_bits must be positive")
    if gamma_value < 1 or rho_value < 1:
        raise ProtocolError("gamma and rho must be positive")
    if hops < 1:
        raise ProtocolError("the broadcast depth must be at least one hop")
    if instances < 1:
        raise ProtocolError("at least one instance is required")


def unpipelined_schedule(
    total_bits: int,
    gamma_value: int,
    rho_value: int,
    hops: int,
    instances: int,
    flag_overhead: Fraction | int = 0,
) -> PipelineSchedule:
    """Naive execution: each instance waits for the previous one to finish completely.

    With propagation delay the Phase 1 data needs ``hops * L / gamma`` time to
    reach the deepest node, followed by ``L / rho`` for the equality check and
    the fixed flag-broadcast overhead.
    """
    _validate(total_bits, gamma_value, rho_value, hops, instances)
    per_instance = (
        Fraction(total_bits, gamma_value) * hops
        + Fraction(total_bits, rho_value)
        + Fraction(flag_overhead)
    )
    total = per_instance * instances
    return PipelineSchedule(
        instances=instances,
        round_length=per_instance,
        total_time=total,
        throughput=Fraction(total_bits * instances) / total,
    )


def pipelined_schedule(
    total_bits: int,
    gamma_value: int,
    rho_value: int,
    hops: int,
    instances: int,
    flag_overhead: Fraction | int = 0,
) -> PipelineSchedule:
    """Figure 3's pipelined execution.

    Every round lasts ``L / gamma + L / rho + overhead``; instance ``q``'s
    Phase 1 data advances one hop per round, so the last instance finishes at
    round ``instances + hops - 1``.
    """
    _validate(total_bits, gamma_value, rho_value, hops, instances)
    round_length = (
        Fraction(total_bits, gamma_value)
        + Fraction(total_bits, rho_value)
        + Fraction(flag_overhead)
    )
    total = round_length * (instances + hops - 1)
    return PipelineSchedule(
        instances=instances,
        round_length=round_length,
        total_time=total,
        throughput=Fraction(total_bits * instances) / total,
    )
