"""Per-link delivery models for the transport's replayed clock.

The paper's base model delivers messages instantaneously once their bits have
drained through the link (zero propagation delay); Appendix D motivates the
pipelined execution precisely because real links *do* have propagation
latency.  A :class:`LinkModel` captures that axis: every directed link is a
FIFO whose finite capacity drains bits over time (that part is fixed — it is
the paper's capacity model), plus an optional per-message propagation delay
made of

* a uniform base ``latency`` applied to every link,
* per-link overrides (``per_link``) for latency-heterogeneous networks, and
* an optional deterministic ``jitter``: a seeded hash of the link and the
  message sequence number picks a rational in ``[0, jitter]``, so runs are
  bit-for-bit reproducible while still exercising non-constant delays.

Models are named in a fixed registry so experiment specs can reference them
declaratively (``link_models=("instant", "lan-wan")``), exactly like
topologies and adversary strategies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping

from repro.exceptions import ConfigurationError, SchedulerError
from repro.types import Edge

#: Granularity of the deterministic jitter lattice: jitter values are integer
#: multiples of ``jitter / JITTER_STEPS`` so they stay small exact fractions.
JITTER_STEPS = 64


@dataclass(frozen=True)
class LinkModel:
    """Propagation-delay model applied on top of the capacity drain.

    Attributes:
        name: Registry name (purely informational on ad-hoc instances).
        latency: Base propagation delay added to every delivery.
        per_link: Per-directed-link latency overrides (replacing ``latency``).
        jitter: Upper bound of the deterministic per-message jitter interval
            (0 disables jitter).
        seed: Seed of the jitter hash.
    """

    name: str = "instant"
    latency: Fraction = Fraction(0)
    per_link: Mapping[Edge, Fraction] = field(default_factory=dict)
    jitter: Fraction = Fraction(0)
    seed: int = 0

    def __post_init__(self) -> None:
        if Fraction(self.latency) < 0 or Fraction(self.jitter) < 0:
            raise SchedulerError("latency and jitter must be non-negative")
        for edge, value in self.per_link.items():
            if Fraction(value) < 0:
                raise SchedulerError(f"negative latency for link {edge}")

    @property
    def adds_delay(self) -> bool:
        """Whether any delivery is delayed past its drain (else the replayed
        clock equals the accountant's total, and no replay is needed)."""
        return bool(self.latency or self.jitter or any(self.per_link.values()))

    def link_latency(self, edge: Edge) -> Fraction:
        """Base propagation latency of one directed link."""
        if edge in self.per_link:
            return Fraction(self.per_link[edge])
        return Fraction(self.latency)

    def delay(self, edge: Edge, sequence: int) -> Fraction:
        """Total propagation delay of one message (base latency plus jitter).

        The jitter of message ``sequence`` on ``edge`` is a deterministic
        function of ``(seed, edge, sequence)``: a SHA-256 hash picks one of
        :data:`JITTER_STEPS` + 1 lattice points in ``[0, jitter]``.
        """
        base = self.link_latency(edge)
        jitter = Fraction(self.jitter)
        if jitter == 0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}|{edge[0]}->{edge[1]}|{sequence}".encode()
        ).digest()
        step = int.from_bytes(digest[:4], "big") % (JITTER_STEPS + 1)
        return base + jitter * Fraction(step, JITTER_STEPS)


_LINK_MODEL_FACTORIES: Dict[str, Callable[[], LinkModel]] = {
    "instant": lambda: LinkModel(name="instant"),
    "unit-latency": lambda: LinkModel(name="unit-latency", latency=Fraction(1)),
    "lan-wan": lambda: LinkModel(
        # Cheap local links, one expensive long-haul hop per message: every
        # link touching node 7 is slow, the rest are near-instant.  Only
        # meaningful on topologies that actually contain node 7 (the 7-node
        # families); elsewhere it degenerates to the uniform 1/8 latency.
        name="lan-wan",
        latency=Fraction(1, 8),
        per_link={
            (tail, head): Fraction(4)
            for tail in range(1, 8)
            for head in range(1, 8)
            if tail != head and 7 in (tail, head)
        },
    ),
    "jitter-mild": lambda: LinkModel(
        name="jitter-mild", latency=Fraction(1, 4), jitter=Fraction(1, 2), seed=7
    ),
}


def named_link_models() -> List[str]:
    """All registered link-model names, sorted."""
    return sorted(_LINK_MODEL_FACTORIES)


def link_model(name: str) -> LinkModel:
    """Instantiate the named link model.

    Raises:
        ConfigurationError: if the name is unknown.
    """
    if name not in _LINK_MODEL_FACTORIES:
        raise ConfigurationError(
            f"unknown link model {name!r}; available: {', '.join(named_link_models())}"
        )
    return _LINK_MODEL_FACTORIES[name]()
