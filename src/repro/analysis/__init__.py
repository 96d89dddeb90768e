"""Reporting and accountability utilities over protocol runs.

* :mod:`repro.analysis.reporting` — plain-text tables, as the examples and
  the engine's comparison report print them.
* :mod:`repro.analysis.forensics` — pod-style accountability: per-node
  evidence of misbehaviour extracted from the transport ledger and dispute
  records, with zero false accusations of honest nodes.

A run's throughput is :attr:`repro.types.RunRecord.throughput`; its
analytical bounds are :func:`repro.capacity.bounds.analyse_network`.
"""

from repro.analysis.forensics import (
    ForensicRecorder,
    ForensicReport,
    analyze_records,
    audit_rows,
)
from repro.analysis.reporting import format_table

__all__ = [
    "format_table",
    "ForensicRecorder",
    "ForensicReport",
    "analyze_records",
    "audit_rows",
]
