"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class FieldError(ReproError):
    """Raised for invalid finite-field constructions or operations.

    Examples include requesting a field of non-positive degree, dividing by
    zero, or mixing elements that belong to different fields.
    """


class MatrixError(ReproError):
    """Raised for invalid matrix operations over a finite field.

    Examples include dimension mismatches, inverting a singular matrix, or
    constructing a matrix from ragged rows.
    """


class GraphError(ReproError):
    """Raised for invalid graph constructions or queries.

    Examples include non-positive link capacities, self loops, duplicate
    edges, or querying vertices that are not part of the graph.
    """


class InfeasibleError(ReproError):
    """Raised when a combinatorial construction is infeasible.

    The most common case is requesting more capacity-disjoint spanning
    arborescences than the source min-cut supports.
    """


class CapacityViolationError(ReproError):
    """Raised when a transmission would exceed a link's capacity budget."""


class ProtocolError(ReproError):
    """Raised when a protocol is configured or driven incorrectly.

    This signals misuse of the library (for example running NAB with
    ``n < 3f + 1``), never a Byzantine fault: Byzantine behaviour is part of
    the model and is handled by the protocols, not reported as an error.
    """


class AgreementViolationError(ReproError):
    """Raised by validation helpers when agreement or validity is violated.

    The protocols themselves never raise this; it is used by test and
    analysis utilities (:mod:`repro.analysis`) that check protocol outputs
    against the Byzantine Broadcast specification.
    """


class ConfigurationError(ReproError):
    """Raised when scenario or workload configuration is inconsistent."""


class ReproductionFinding(ReproError):
    """Raised when an experiment produces evidence *against* the paper's claims.

    The adversarial search driver (:mod:`repro.adversary.search`) raises this
    when any explored scenario flips ``agreement_ok``/``validity_ok`` at
    ``f <= max_faults`` — a reproduction-level finding that must abort loudly
    (after persisting the offending row) rather than being averaged away into
    an objective score.
    """


class SchedulerError(ReproError):
    """Raised for invalid timing or link parameters.

    Examples include a negative link latency or jitter (``LinkModel``), fault
    rates outside ``[0, 1]`` or summing past 1 (``EdgeFaultRates``), or an ARQ
    timeout, backoff or retry budget out of range (``ReliableNetwork``).
    """
