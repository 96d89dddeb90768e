"""Scenario pieces: named adversary strategies, input streams, :class:`Scenario`.

A :class:`Scenario` bundles everything needed to run an experiment: which
topology, who is faulty and with what strategy, how many instances of how
many bytes.  Only :meth:`repro.engine.spec.Cell.scenario` constructs one.

All randomness is threaded through explicit :class:`random.Random` instances
derived from the scenario seed — never the module-level :mod:`random` state —
so scenarios are bit-for-bit reproducible even when many experiment-engine
cells are generated concurrently across worker processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.adversary.strategies import (
    CrashStrategy,
    DisputeLiarStrategy,
    EqualityGarbageStrategy,
    EquivocatingSourceStrategy,
    FalseFlagStrategy,
    Phase1CorruptingRelayStrategy,
    RandomizedChaosStrategy,
    SubBroadcastLiarStrategy,
)
from repro.adversary.zoo import zoo_strategy_factories
from repro.exceptions import ConfigurationError
from repro.graph.network_graph import NetworkGraph
from repro.transport.faults import ByzantineStrategy, FaultModel
from repro.types import NodeId


def _options(params: Optional[Mapping[str, object]], *allowed: str) -> Dict[str, object]:
    """Validate a strategy's parameter mapping against its accepted keys."""
    options = dict(params or {})
    unknown = set(options) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown strategy parameter(s): {sorted(unknown)}; accepted: {sorted(allowed) or 'none'}"
        )
    return options


#: Factories keyed by public strategy name.  Each factory takes the scenario
#: seed plus an optional parameter mapping; the seed is threaded into every
#: strategy (deterministic strategies store it without changing behaviour,
#: seeded ones — chaos and the zoo — consume it).
_STRATEGY_FACTORIES: Dict[str, Callable[..., ByzantineStrategy]] = {
    "phase1-relay": lambda seed, params=None: Phase1CorruptingRelayStrategy(
        seed=seed, **_options(params, "flip_mask")
    ),
    "equivocating-source": lambda seed, params=None: EquivocatingSourceStrategy(
        seed=seed, **_options(params, "flip_mask")
    ),
    "equality-garbage": lambda seed, params=None: EqualityGarbageStrategy(
        seed=seed, **_options(params, "offset")
    ),
    "false-flag": lambda seed, params=None: FalseFlagStrategy(
        seed=seed, **_options(params)
    ),
    "dispute-liar": lambda seed, params=None: DisputeLiarStrategy(
        seed=seed, **_options(params, "flip_mask")
    ),
    "chaos": lambda seed, params=None: RandomizedChaosStrategy(
        seed=seed, **_options(params)
    ),
    "crash": lambda seed, params=None: CrashStrategy(seed=seed, **_options(params)),
    "sub-broadcast-liar": lambda seed, params=None: SubBroadcastLiarStrategy(
        seed=seed, **_options(params)
    ),
}
_STRATEGY_FACTORIES.update(zoo_strategy_factories())


def named_strategies() -> List[str]:
    """All available adversary strategy names (hand-written and zoo), sorted."""
    return sorted(_STRATEGY_FACTORIES)


def strategy_attacks_source(name: str) -> bool:
    """Whether the named strategy requires the *source* to be faulty.

    Experiment specs use this to place the faulty set: a source-attacking
    strategy puts the adversary at the source (so validity is unconstrained),
    every other strategy corrupts relays/participants away from it.
    """
    return name == "equivocating-source"


def make_strategy(
    name: str,
    seed: int = 0,
    params: Optional[Mapping[str, object]] = None,
) -> ByzantineStrategy:
    """Instantiate the named adversary strategy.

    Args:
        name: One of :func:`named_strategies`.
        seed: Determinism seed, threaded into every strategy; strategies with
            random behaviour (chaos, the zoo) consume it.
        params: Optional strategy-specific parameters (the ``strategy_params``
            of a spec cell), e.g. ``{"targets": 1}`` for ``adaptive-dodger``
            or a full composition for ``composed``.

    Raises:
        ConfigurationError: if the strategy name or a parameter is unknown.
    """
    if name not in _STRATEGY_FACTORIES:
        raise ConfigurationError(
            f"unknown strategy {name!r}; available: {', '.join(named_strategies())}"
        )
    return _STRATEGY_FACTORIES[name](seed, params)


@dataclass(frozen=True)
class Scenario:
    """A fully specified broadcast experiment.

    Attributes:
        name: Human-readable scenario name.
        graph: The capacitated network.
        source: Broadcasting node.
        max_faults: Resilience parameter ``f``.
        fault_model: Which nodes are Byzantine and their strategy.
        inputs: The values to broadcast, one per instance.
        seed: The seed the input stream (and any seeded strategy) was derived
            from, so the scenario can be regenerated exactly.
    """

    name: str
    graph: NetworkGraph
    source: NodeId
    max_faults: int
    fault_model: FaultModel
    inputs: Sequence[bytes]
    seed: int = 0


def input_stream(rng: random.Random, instances: int, value_bytes: int) -> List[bytes]:
    """Generate ``instances`` random values of ``value_bytes`` bytes each.

    The caller owns the :class:`random.Random` instance, so the stream is a
    pure function of that generator's state — independent of the module-level
    :mod:`random` state and of whatever other scenarios are being built in the
    same process.

    Every byte is ``rng.randrange(256)`` — nine generator bits, drawn again
    while they make 256 or more — taken in one loop instead of through
    ``randrange``'s three frames a byte; the values and the state the
    generator is left in are those of ``bytes(rng.randrange(256) for ...)``.
    """
    draw = rng.getrandbits
    values = []
    for _ in range(instances):
        value = bytearray()
        append = value.append
        for _ in range(value_bytes):
            byte = draw(9)
            while byte >= 256:
                byte = draw(9)
            append(byte)
        values.append(bytes(value))
    return values
