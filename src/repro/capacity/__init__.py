"""Throughput and capacity analysis (Section 5 and Appendices D–G of the paper).

The quantities implemented here are the ones the paper's main theorems are
stated in terms of:

* ``gamma*`` — the worst-case Phase 1 rate over every graph ``G_k`` that NAB
  could ever run on (the family ``Gamma`` of Appendix E);
* ``rho* = U_1 / 2`` — the worst-case Equality Check rate (Appendix C.2 shows
  ``U_k >= U_1`` for every reachable ``G_k``);
* the NAB throughput lower bound ``T_NAB = gamma* rho* / (gamma* + rho*)``
  (Eq. 6);
* the capacity upper bound ``C_BB <= min(gamma*, 2 rho*)`` (Theorem 2);
* the resulting constant-factor guarantees of Theorem 3 (``>= 1/3`` always,
  ``>= 1/2`` when ``gamma* <= rho*``);
* the pipelined schedule of Appendix D / Figure 3 that hides propagation
  delays across multi-hop networks.
"""

from repro.capacity.bounds import (
    CapacityAnalysis,
    analyse_network,
    capacity_upper_bound,
    nab_throughput_lower_bound,
    theorem3_guarantee,
)
from repro.capacity.gamma_star import gamma_star
from repro.capacity.pipelining import PipelineSchedule, pipelined_schedule, unpipelined_schedule
from repro.capacity.rho_star import rho_star, u1_value

__all__ = [
    "gamma_star",
    "rho_star",
    "u1_value",
    "capacity_upper_bound",
    "nab_throughput_lower_bound",
    "theorem3_guarantee",
    "CapacityAnalysis",
    "analyse_network",
    "PipelineSchedule",
    "pipelined_schedule",
    "unpipelined_schedule",
]
