"""Theorem 2 (capacity upper bound), Eq. 6 (NAB lower bound) and Theorem 3 (ratios).

All quantities are exact rationals in bits per time unit:

* ``T_NAB(G) = gamma* rho* / (gamma* + rho*)`` — the throughput NAB approaches
  for large ``L`` and ``Q`` (Phase 1 takes ``L / gamma*`` and the Equality
  Check ``L / rho*``; everything else amortises away);
* ``C_BB(G) <= min(gamma*, 2 rho*)`` — no algorithm can beat this;
* Theorem 3: ``T_NAB >= C_BB / 3`` always, and ``T_NAB >= C_BB / 2`` whenever
  ``gamma* <= rho*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.exceptions import ProtocolError
from repro.capacity.gamma_star import gamma_star
from repro.capacity.rho_star import rho_star
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId


def nab_throughput_lower_bound(gamma_value: int, rho_value: int) -> Fraction:
    """Eq. 6: ``T_NAB = gamma* rho* / (gamma* + rho*)``."""
    if gamma_value < 1 or rho_value < 1:
        raise ProtocolError("gamma* and rho* must be positive")
    return Fraction(gamma_value * rho_value, gamma_value + rho_value)


def capacity_upper_bound(gamma_value: int, rho_value: int) -> Fraction:
    """Theorem 2: ``C_BB <= min(gamma*, 2 rho*)``."""
    if gamma_value < 1 or rho_value < 1:
        raise ProtocolError("gamma* and rho* must be positive")
    return Fraction(min(gamma_value, 2 * rho_value))


def theorem3_guarantee(gamma_value: int, rho_value: int) -> Fraction:
    """The fraction of capacity Theorem 3 guarantees NAB achieves (1/2 or 1/3)."""
    if gamma_value < 1 or rho_value < 1:
        raise ProtocolError("gamma* and rho* must be positive")
    return Fraction(1, 2) if gamma_value <= rho_value else Fraction(1, 3)


@dataclass(frozen=True)
class CapacityAnalysis:
    """The full analytical picture for one network.

    Attributes:
        gamma_star: Worst-case Phase 1 rate over the ``Gamma`` family.
        rho_star: Worst-case Equality Check rate (``U_1 / 2``).
        nab_lower_bound: Eq. 6 throughput lower bound.
        capacity_upper_bound: Theorem 2 upper bound on ``C_BB``.
        guaranteed_fraction: The 1/2 or 1/3 guarantee of Theorem 3.
        achieved_fraction: ``nab_lower_bound / capacity_upper_bound`` — the
            fraction actually certified for this network (Theorem 3: always
            at least ``guaranteed_fraction``).
    """

    gamma_star: int
    rho_star: int
    nab_lower_bound: Fraction
    capacity_upper_bound: Fraction
    guaranteed_fraction: Fraction
    achieved_fraction: Fraction


def analyse_network(graph: NetworkGraph, source: NodeId, max_faults: int) -> CapacityAnalysis:
    """Compute every Theorem 2 / Theorem 3 quantity for one network."""
    gamma_value = gamma_star(graph, source, max_faults)
    rho_value = rho_star(graph, max_faults)
    lower = nab_throughput_lower_bound(gamma_value, rho_value)
    upper = capacity_upper_bound(gamma_value, rho_value)
    return CapacityAnalysis(
        gamma_star=gamma_value,
        rho_star=rho_value,
        nab_lower_bound=lower,
        capacity_upper_bound=upper,
        guaranteed_fraction=theorem3_guarantee(gamma_value, rho_value),
        achieved_fraction=lower / upper,
    )
