"""Time accounting for the paper's deterministic link-capacity model.

A directed link of capacity ``z_e`` bits per time unit can carry ``z_e * tau``
bits in ``tau`` time units.  A synchronous protocol phase in which ``b_e``
bits are sent over each link ``e`` therefore takes

    ``max_e  b_e / z_e``

time units (all links transmit in parallel), plus any fixed overhead the
protocol charges to the phase (e.g. the ``O(n^alpha)`` cost of broadcasting
1-bit flags with a classical BB algorithm, which the paper accounts separately
from the ``L``-dependent cost).  All durations are exact
:class:`fractions.Fraction` values so analytical identities such as
``L / gamma_k`` hold without floating-point error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.exceptions import ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.types import Edge, PhaseTiming, accumulate_link_bits


@dataclass
class _PhaseLedger:
    """Mutable ledger for one named phase."""

    link_bits: Dict[Edge, int]
    fixed_overhead: Fraction

    def total_bits(self) -> int:
        return sum(self.link_bits.values())


class TimeAccountant:
    """Accumulates per-phase link usage and converts it into elapsed time."""

    def __init__(self, graph: NetworkGraph) -> None:
        self._graph = graph
        #: Ledgers in first-use order (dict insertion order), which is also
        #: the order the phases execute in.
        self._phases: Dict[str, _PhaseLedger] = {}

    # ------------------------------------------------------------- recording

    def _ledger(self, phase: str) -> _PhaseLedger:
        ledger = self._phases.get(phase)
        if ledger is None:
            ledger = self._phases[phase] = _PhaseLedger(link_bits={}, fixed_overhead=Fraction(0))
        return ledger

    def link_ledger(self, phase: str) -> Dict[Edge, int]:
        """The live per-link bit ledger of ``phase`` (registered on first use).

        For transport code that has already validated the link and the bit
        count: ``SynchronousNetwork.send`` charges every wire copy, delivered
        or wasted, into it in place.
        """
        ledger = self._phases.get(phase)
        if ledger is None:
            ledger = self._ledger(phase)
        return ledger.link_bits

    def add_fixed_overhead(self, phase: str, time_units: Fraction | int) -> None:
        """Charge a fixed amount of time (independent of link usage) to ``phase``."""
        duration = Fraction(time_units)
        if duration < 0:
            raise ProtocolError(f"fixed overhead must be non-negative, got {duration}")
        self._ledger(phase).fixed_overhead += duration

    # --------------------------------------------------------------- reporting

    def phase_names(self) -> List[str]:
        """Phases seen so far, in first-use order."""
        return list(self._phases)

    def total_link_bits(self) -> Dict[Edge, int]:
        """Bits charged to each link, aggregated across every phase."""
        totals: Dict[Edge, int] = {}
        for ledger in self._phases.values():
            accumulate_link_bits(totals, ledger.link_bits)
        return totals

    def phase_fixed_overhead(self, phase: str) -> Fraction:
        """Fixed (link-independent) time charged to ``phase`` so far."""
        if phase not in self._phases:
            return Fraction(0)
        return self._phases[phase].fixed_overhead

    def _ledger_elapsed(self, ledger: _PhaseLedger) -> Fraction:
        """``max_e bits_e / z_e`` plus fixed overhead, as one exact ``Fraction``.

        The slowest link is found by integer cross-multiplication
        (``b1 / z1 > b2 / z2`` iff ``b1 * z2 > b2 * z1`` for positive
        capacities), so only the maximum is ever normalised into a
        ``Fraction`` — this runs for every phase of every result record.
        """
        capacity_of = self._graph.capacity
        worst_bits, worst_capacity = 0, 1
        for (tail, head), bits in ledger.link_bits.items():
            capacity = capacity_of(tail, head)
            if bits * worst_capacity > worst_bits * capacity:
                worst_bits, worst_capacity = bits, capacity
        transmission_time = Fraction(worst_bits, worst_capacity)
        if ledger.fixed_overhead:
            return transmission_time + ledger.fixed_overhead
        return transmission_time

    def total_elapsed(self) -> Fraction:
        """Sum of the elapsed times of all phases (phases run sequentially)."""
        return sum(map(self._ledger_elapsed, self._phases.values()), Fraction(0))

    def phase_timings(self) -> Tuple[PhaseTiming, ...]:
        """Immutable per-phase summary in execution order."""
        return tuple(
            PhaseTiming(
                name=phase,
                time_units=self._ledger_elapsed(ledger),
                bits_sent=ledger.total_bits(),
            )
            for phase, ledger in self._phases.items()
        )
