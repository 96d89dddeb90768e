#!/usr/bin/env python3
"""Quickstart: broadcast a value with NAB on a small capacitated network.

Builds a 4-node complete network with capacity-2 links, runs a handful of NAB
instances with one Byzantine node injecting garbage during the Equality Check,
and prints per-instance outcomes, the time each instance took, and the
measured throughput next to the paper's analytical bounds.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import FaultModel, NetworkAwareBroadcast, analyse_network
from repro.adversary.strategies import EqualityGarbageStrategy
from repro.analysis.reporting import format_table
from repro.graph.generators import complete_graph


def main() -> None:
    graph = complete_graph(4, capacity=2)
    source = 1
    max_faults = 1

    # Node 3 is Byzantine: it sends garbage coded symbols during the Equality
    # Check, which forces one round of (expensive) dispute control before it
    # is cut out of the protocol.
    fault_model = FaultModel([3], EqualityGarbageStrategy())
    nab = NetworkAwareBroadcast(graph, source, max_faults, fault_model=fault_model)

    messages = [f"block-{index:04d}".encode() for index in range(6)]
    # One instance at a time: each InstanceResult is one broadcast's outcome.
    results = [nab.run_instance(message) for message in messages]

    rows = []
    for message, result in zip(messages, results):
        rows.append(
            [
                result.instance,
                message.decode(),
                hex(result.agreed_value()),
                float(result.elapsed),
                "yes" if result.dispute_control_ran else "no",
            ]
        )
    print("Per-instance results (source is fault-free, node 3 is Byzantine):")
    print(format_table(["instance", "input", "agreed output", "time", "dispute control"], rows))

    # The same inputs as one run on a fresh network: `run` folds the instances
    # into a RunRecord, whose throughput is the paper's Q * L bits over the
    # total completion time.
    record = NetworkAwareBroadcast(graph, source, max_faults, fault_model=fault_model).run(messages)
    assert record.spec_ok and record.elapsed == sum(result.elapsed for result in results)

    analysis = analyse_network(graph, source, max_faults)
    print()
    print(f"total payload broadcast : {record.payload_bits} bits")
    print(f"total elapsed time      : {float(record.elapsed):.2f} time units")
    print(f"measured throughput     : {float(record.throughput):.3f} bits/unit")
    print(f"Eq. 6 lower bound       : {float(analysis.nab_lower_bound):.3f} bits/unit")
    print(f"Theorem 2 upper bound   : {float(analysis.capacity_upper_bound):.3f} bits/unit")
    print(
        "dispute control ran     : "
        f"{record.dispute_control_executions} time(s) (bounded by f(f+1) = 2)"
    )


if __name__ == "__main__":
    main()
