#!/usr/bin/env python3
"""Replicated-log scenario on a network with heterogeneous link capacities.

The paper's motivating application is replicated fault-tolerant state
machines: replicas repeatedly agree on the next request to process.  This
example models a 5-replica deployment where one replica sits behind slow links
(capacity 1) while the others enjoy fast links (capacity 8), and compares
every protocol in the engine's registry — NAB routes bulk data over the fast
links, while both capacity-oblivious baselines are throttled by the slow ones.

Run with:  python examples/heterogeneous_replication.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.engine import get_protocol, registered_protocols
from repro.graph.generators import heterogeneous_bottleneck
from repro.transport.faults import FaultModel


def main() -> None:
    graph = heterogeneous_bottleneck(5, fast_capacity=8, slow_capacity=1)
    source = 1
    max_faults = 1
    requests = [f"PUT key{index} value{index}".ljust(24).encode() for index in range(4)]

    records = {
        name: get_protocol(name).run(
            graph, source, requests, FaultModel(), {"max_faults": max_faults}
        )
        for name in registered_protocols()
    }

    rows = [
        [
            name,
            float(record.elapsed),
            float(record.throughput),
            "yes" if record.spec_ok else "NO",
        ]
        for name, record in sorted(records.items())
    ]
    print("Replicated log on a 5-node network with one slow replica:")
    print(format_table(["protocol", "total time", "throughput (bits/unit)", "spec ok"], rows))
    speedup = float(records["classical-flooding"].elapsed) / float(records["nab"].elapsed)
    print()
    print(f"NAB is {speedup:.1f}x faster on this workload; the gap grows with the request size")
    print("and with the capacity ratio between fast and slow links (see")
    print("tests/test_paper_claims.py::test_section1_classical_is_arbitrarily_worse_than_nab")
    print("for the sweep).")


if __name__ == "__main__":
    main()
