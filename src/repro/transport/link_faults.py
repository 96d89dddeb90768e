"""Seeded link-fault plans: deterministic drop / duplicate / corrupt decisions.

The paper assumes reliable synchronous links; this module models the axis it
abstracts away.  A :class:`LinkFaultPlan` decides, for every wire attempt on a
directed link, whether the attempt is delivered intact, lost, duplicated or
corrupted in flight.  Decisions follow the jitter idiom of
:mod:`repro.transport.links`: a SHA-256 hash of ``(seed, edge, per-edge
attempt ordinal)`` picks a lattice point in ``[0, 1)`` that is compared
against the plan's rates, so faulty runs are bit-for-bit reproducible no
matter which worker process executes them, while still exercising genuinely
scattered loss patterns.

The fault layer sits *below* the Byzantine layer: :mod:`repro.transport.faults`
models adversarial nodes, this module models an unreliable medium.  The ARQ
transport (:class:`repro.transport.network.SynchronousNetwork` given a plan)
turns these per-attempt faults back into reliable delivery via
timeout/retransmission, so protocol semantics never observe them — only the
clocks and bit ledgers do.

Plans are named in a fixed registry so experiment specs can reference them
declaratively (``fault_plans=("none", "drop-10pct")``), exactly like
topologies, adversary strategies and link models.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping

from repro.exceptions import ConfigurationError, SchedulerError
from repro.types import Edge

#: Granularity of the deterministic fault lattice: the hash picks one of
#: ``FAULT_STEPS`` equally likely points in ``[0, 1)``, so any rate that is a
#: multiple of ``1 / FAULT_STEPS`` is realised exactly in the long run.
FAULT_STEPS = 1 << 16

#: Decision outcomes for one wire attempt.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"


@dataclass(frozen=True)
class EdgeFaultRates:
    """Per-attempt fault probabilities of one directed link.

    Attributes:
        drop: Probability the attempt is lost in flight (receiver sees
            nothing; the sender's ARQ timeout fires).
        duplicate: Probability the attempt is delivered *twice* (the network
            spontaneously replays it; the receiver deduplicates, but the
            redundant copy still drains the link).
        corrupt: Probability the attempt arrives bit-flipped (the receiver's
            checksum rejects it, which costs exactly what a drop costs).
    """

    drop: Fraction = Fraction(0)
    duplicate: Fraction = Fraction(0)
    corrupt: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # Coerced once here, so deciding an attempt builds no Fraction.
        total = Fraction(0)
        for label in ("drop", "duplicate", "corrupt"):
            rate = Fraction(getattr(self, label))
            if rate < 0 or rate > 1:
                raise SchedulerError(f"{label} rate must be in [0, 1], got {rate}")
            object.__setattr__(self, label, rate)
            total += rate
        if total > 1:
            raise SchedulerError(f"fault rates sum to {total} > 1")

    @property
    def is_clean(self) -> bool:
        """Whether this link never misbehaves."""
        return not (self.drop or self.duplicate or self.corrupt)


@dataclass(frozen=True)
class LinkFaultPlan:
    """Deterministic per-edge fault schedule applied to every wire attempt.

    Attributes:
        name: Registry name (purely informational on ad-hoc instances).
        rates: Base fault rates applied to every directed link.
        per_edge: Per-directed-link overrides (replacing ``rates``).
        seed: Seed of the decision hash.
    """

    name: str = "none"
    rates: EdgeFaultRates = field(default_factory=EdgeFaultRates)
    per_edge: Mapping[Edge, EdgeFaultRates] = field(default_factory=dict)
    seed: int = 0

    @property
    def is_clean(self) -> bool:
        """Whether the plan never faults any link (the reliable base model)."""
        return self.rates.is_clean and all(
            rates.is_clean for rates in self.per_edge.values()
        )

    def edge_rates(self, edge: Edge) -> EdgeFaultRates:
        """Fault rates of one directed link."""
        if edge in self.per_edge:
            return self.per_edge[edge]
        return self.rates

    def decide(self, edge: Edge, attempt: int) -> str:
        """Fate of wire attempt number ``attempt`` (0-based, per edge).

        The decision is a deterministic function of ``(seed, edge, attempt)``:
        a SHA-256 hash picks one of :data:`FAULT_STEPS` lattice points in
        ``[0, 1)``, compared against the cumulative rate intervals in the
        fixed order drop | corrupt | duplicate | deliver.

        Returns:
            One of :data:`DROP`, :data:`CORRUPT`, :data:`DUPLICATE`,
            :data:`DELIVER`.
        """
        rates = self.edge_rates(edge)
        if rates.is_clean:
            return DELIVER
        digest = hashlib.sha256(
            f"{self.seed}|{edge[0]}->{edge[1]}|{attempt}".encode()
        ).digest()
        point = Fraction(int.from_bytes(digest[:4], "big") % FAULT_STEPS, FAULT_STEPS)
        threshold = rates.drop
        if point < threshold:
            return DROP
        threshold += rates.corrupt
        if point < threshold:
            return CORRUPT
        threshold += rates.duplicate
        if point < threshold:
            return DUPLICATE
        return DELIVER


_FAULT_PLAN_FACTORIES: Dict[str, Callable[[], LinkFaultPlan]] = {
    "none": lambda: LinkFaultPlan(name="none"),
    "drop-1pct": lambda: LinkFaultPlan(
        name="drop-1pct",
        rates=EdgeFaultRates(drop=Fraction(1, 100)),
        seed=11,
    ),
    "drop-10pct": lambda: LinkFaultPlan(
        name="drop-10pct",
        rates=EdgeFaultRates(drop=Fraction(1, 10)),
        seed=11,
    ),
    "drop-10pct-one-edge": lambda: LinkFaultPlan(
        # A single flaky link out of the source: every topology in the
        # headline families contains the edge (1, 2), which loses 10% of its
        # attempts while every other link is perfect.  On a graph without
        # that edge the plan degenerates to fully clean (cf. the lan-wan
        # link model's node-7 convention).
        name="drop-10pct-one-edge",
        per_edge={(1, 2): EdgeFaultRates(drop=Fraction(1, 10))},
        seed=11,
    ),
    "dup-mild": lambda: LinkFaultPlan(
        name="dup-mild",
        rates=EdgeFaultRates(duplicate=Fraction(1, 20)),
        seed=11,
    ),
    "corrupt-1pct": lambda: LinkFaultPlan(
        name="corrupt-1pct",
        rates=EdgeFaultRates(corrupt=Fraction(1, 100)),
        seed=11,
    ),
    "lossy-mix": lambda: LinkFaultPlan(
        # Everything at once, mildly: the plan the chaos-style tests lean on.
        name="lossy-mix",
        rates=EdgeFaultRates(
            drop=Fraction(1, 25),
            duplicate=Fraction(1, 50),
            corrupt=Fraction(1, 50),
        ),
        seed=11,
    ),
}


def named_fault_plans() -> List[str]:
    """All registered fault-plan names, sorted."""
    return sorted(_FAULT_PLAN_FACTORIES)


def fault_plan(name: str) -> LinkFaultPlan:
    """Instantiate the named fault plan.

    Raises:
        ConfigurationError: if the name is unknown.
    """
    if name not in _FAULT_PLAN_FACTORIES:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; available: {', '.join(named_fault_plans())}"
        )
    return _FAULT_PLAN_FACTORIES[name]()
