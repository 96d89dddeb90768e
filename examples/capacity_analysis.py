#!/usr/bin/env python3
"""Capacity analysis across topologies: Eq. 6, Theorem 2 and Theorem 3 in action.

For a collection of named topologies this example computes gamma*, rho*, the
NAB throughput lower bound, the capacity upper bound and the fraction of
capacity NAB is certified to achieve, and verifies Theorem 3's 1/3 (or 1/2)
promise on every one of them.

Run with:  python examples/capacity_analysis.py
"""

from __future__ import annotations

from fractions import Fraction

from repro import analyse_network
from repro.analysis.reporting import format_table
from repro.workloads.topologies import named_topologies, topology

#: Topologies that satisfy NAB's preconditions for f = 1 (the paper's Figure 1
#: graphs are illustration-only and do not meet the connectivity requirement).
ANALYSABLE = [
    "k4-unit",
    "k4-fast",
    "k5-unit",
    "k7-unit",
    "k7-fast",
    "ring7-chords",
    "bottleneck4",
    "bottleneck5",
    "random6",
    "random7",
]


def main() -> None:
    rows = []
    for name in ANALYSABLE:
        graph = topology(name)
        analysis = analyse_network(graph, source=1, max_faults=1)
        rows.append(
            [
                name,
                analysis.gamma_star,
                analysis.rho_star,
                analysis.nab_lower_bound,
                analysis.capacity_upper_bound,
                analysis.achieved_fraction,
                analysis.guaranteed_fraction,
                "ok" if analysis.achieved_fraction >= analysis.guaranteed_fraction else "VIOLATED",
            ]
        )
    print("Capacity analysis with f = 1 (all quantities in bits per time unit):")
    print(
        format_table(
            [
                "topology",
                "gamma*",
                "rho*",
                "T_NAB (Eq.6)",
                "C_BB bound (Thm 2)",
                "certified fraction",
                "Thm 3 promise",
                "Thm 3",
            ],
            rows,
        )
    )
    worst = min(Fraction(row[5]) for row in rows)
    print()
    print(f"Worst certified fraction across these topologies: {float(worst):.3f}")
    print("Every row satisfies Theorem 3: NAB is within a factor 3 (or 2) of capacity.")
    print(f"(Unlisted topologies: {sorted(set(named_topologies()) - set(ANALYSABLE))} are")
    print("illustration-only graphs from the paper's figures.)")


if __name__ == "__main__":
    main()
