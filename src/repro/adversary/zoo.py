"""Composable adversary zoo: stage-timed, colluding, adaptive and relay-tampering attacks.

The hand-written strategies in :mod:`repro.adversary.strategies` each hammer
one hook unconditionally.  The zoo builds *structured* adversaries out of
reusable parts:

* :class:`StageTimedStrategy` gates any inner strategy on pipeline stages
  ``(q, h)`` — fire only in instance ``q`` during phase ``h`` — modelling the
  paper's adversary choosing *when* to strike, not just where;
* :class:`ColludingRotationStrategy` rotates a coalition so exactly one
  member misbehaves per instance, spreading evidence thin;
* :class:`AdaptiveDisputeDodgerStrategy` reads the agreed dispute state and
  retargets corruption onto neighbours it is *not yet* in dispute with,
  lying truthfully enough during dispute control to survive the DC3
  consistency check — the strategy that drives dispute control towards its
  ``f (f + 1)`` worst case;
* :class:`RelayTamperStrategy` corrupts values it forwards on disjoint-path
  relays, so the receiver's per-value majority has real work to do.

All randomness flows through :class:`AdversaryLattice`, the sha256 lattice of
the link-fault plans (:mod:`repro.transport.link_faults`): a hash of the seed
and the decision's identity picks one of ``FAULT_STEPS`` points in
``[0, 1)``.  The lattice doubles as the coalition's *coordination channel* —
every colluding node can recompute every other member's decisions from the
shared seed alone, with no messages exchanged — and makes every zoo strategy
bit-for-bit reproducible across processes and hook interleavings.

:func:`build_composed` assembles all of the above from a plain JSON-able
parameter mapping, which is what the adversarial search driver
(:mod:`repro.adversary.search`) mutates and what ``strategy_params`` cells in
experiment specs commit.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.strategies import (
    CrashStrategy,
    DisputeLiarStrategy,
    EqualityGarbageStrategy,
    FalseFlagStrategy,
    Phase1CorruptingRelayStrategy,
    RandomizedChaosStrategy,
    SubBroadcastLiarStrategy,
)
from repro.exceptions import ConfigurationError
from repro.transport.faults import ByzantineStrategy
from repro.transport.link_faults import FAULT_STEPS
from repro.types import NodeId

#: Pipeline stage identifiers used by :class:`StageTimedStrategy`: ``h = 1``
#: is the Phase 1 broadcast, ``h = 2`` the Equality Check (coded symbols and
#: flag agreement), ``h = 3`` dispute control.
STAGE_PHASE1 = 1
STAGE_EQUALITY = 2
STAGE_DISPUTE = 3

#: Wildcard instance index: the stage fires in every instance.
ANY_INSTANCE = "*"


class AdversaryLattice:
    """Deterministic decision source shared by the zoo (PR 3/6 sha256 idiom).

    Hashing ``(namespace, seed, decision key)`` with SHA-256 yields a lattice
    point in ``[0, 1)`` at ``1 / FAULT_STEPS`` granularity, raw bits, or an
    index into a sequence.  Identical seeds replay identical decisions in any
    process and any call order, and a coalition sharing the seed can
    recompute each member's decisions without communicating.
    """

    def __init__(self, seed: int, namespace: str = "zoo") -> None:
        self.seed = seed
        self.namespace = namespace

    def _digest(self, key: Tuple[Any, ...]) -> bytes:
        material = "|".join(
            [self.namespace, str(self.seed)] + [repr(part) for part in key]
        )
        return hashlib.sha256(material.encode("utf-8")).digest()

    def point(self, *key: Any) -> Fraction:
        """A lattice point in ``[0, 1)`` for this decision."""
        value = int.from_bytes(self._digest(key)[:8], "big")
        return Fraction(value % FAULT_STEPS, FAULT_STEPS)

    def randbits(self, bits: int, *key: Any) -> int:
        """``bits`` deterministic pseudo-random bits for this decision."""
        if bits < 1 or bits > 128:
            raise ConfigurationError(f"randbits supports 1..128 bits, got {bits}")
        value = int.from_bytes(self._digest(key)[:16], "big")
        return value & ((1 << bits) - 1)

    def choice(self, options: Sequence[Any], *key: Any) -> Any:
        """A deterministic choice among ``options`` for this decision."""
        if not options:
            raise ConfigurationError("cannot choose from an empty sequence")
        index = int.from_bytes(self._digest(key)[:8], "big") % len(options)
        return options[index]


# --------------------------------------------------------------------- wrappers


class ComposedStrategy(ByzantineStrategy):
    """Folds every hook through a sequence of component strategies.

    Component ``i + 1`` sees component ``i``'s output as its "true" value, so
    corruptions stack left to right; observation hooks fan out to every
    component.
    """

    name = "composed"

    def __init__(self, components: Sequence[ByzantineStrategy]) -> None:
        if not components:
            raise ConfigurationError("a composed strategy needs at least one component")
        self.components = tuple(components)

    def phase1_source_symbol(self, instance, tree_index, child, true_symbol):
        value = true_symbol
        for component in self.components:
            value = component.phase1_source_symbol(instance, tree_index, child, value)
        return value

    def phase1_forward_symbol(self, instance, node, tree_index, child, true_symbol):
        value = true_symbol
        for component in self.components:
            value = component.phase1_forward_symbol(
                instance, node, tree_index, child, value
            )
        return value

    def equality_check_vector(self, instance, node, neighbor, true_vector):
        value = true_vector
        for component in self.components:
            value = component.equality_check_vector(instance, node, neighbor, value)
        return value

    def equality_check_flag(self, instance, node, true_flag):
        value = true_flag
        for component in self.components:
            value = component.equality_check_flag(instance, node, value)
        return value

    def broadcast_value(self, instance, node, receiver, context, true_value):
        value = true_value
        for component in self.components:
            value = component.broadcast_value(instance, node, receiver, context, value)
        return value

    def relay_value(self, instance, node, path, receiver, true_value):
        value = true_value
        for component in self.components:
            value = component.relay_value(instance, node, path, receiver, value)
        return value

    def dispute_claims(self, instance, node, true_claims):
        value = true_claims
        for component in self.components:
            value = component.dispute_claims(instance, node, value)
        return value

    def observe_faulty_nodes(self, faulty):
        for component in self.components:
            component.observe_faulty_nodes(faulty)

    def observe_instance(self, instance, graph, instance_graph, source, max_faults, dispute_state):
        for component in self.components:
            component.observe_instance(
                instance, graph, instance_graph, source, max_faults, dispute_state
            )


def _normalize_stages(stages: Sequence[Sequence[Any]]) -> FrozenSet[Tuple[Any, int]]:
    normalized = set()
    for entry in stages:
        entry = tuple(entry)
        if len(entry) != 2:
            raise ConfigurationError(f"a stage is a (instance, phase) pair, got {entry!r}")
        q, h = entry
        if h not in (STAGE_PHASE1, STAGE_EQUALITY, STAGE_DISPUTE):
            raise ConfigurationError(f"stage phase must be 1, 2 or 3, got {h!r}")
        if q != ANY_INSTANCE and (
            isinstance(q, bool) or not isinstance(q, int) or q < 0
        ):
            raise ConfigurationError(
                f"stage instance must be a non-negative int or {ANY_INSTANCE!r}, got {q!r}"
            )
        normalized.add((q, int(h)))
    if not normalized:
        raise ConfigurationError("a stage-timed strategy needs at least one stage")
    return frozenset(normalized)


class StageTimedStrategy(ByzantineStrategy):
    """Fires an inner strategy only at chosen pipeline stages ``(q, h)``.

    ``q`` is an instance index (or :data:`ANY_INSTANCE` for "every instance"),
    ``h`` one of the three phases.  Outside the active stages every hook is
    honest.  Broadcast hooks infer their phase from the sub-protocol context
    string ("equality_flag..." is Phase 2 flag agreement, everything else is
    dispute control); relay hooks fire whenever Phase 2 or 3 is active, since
    disjoint-path relays carry both.
    """

    def __init__(
        self,
        inner: ByzantineStrategy,
        stages: Sequence[Sequence[Any]] = ((ANY_INSTANCE, STAGE_PHASE1),),
        name: Optional[str] = None,
    ) -> None:
        self.inner = inner
        self.stages = _normalize_stages(stages)
        self.name = name if name is not None else f"stage-timed({inner.name})"

    def _active(self, instance: int, stage: int) -> bool:
        return (instance, stage) in self.stages or (ANY_INSTANCE, stage) in self.stages

    def phase1_source_symbol(self, instance, tree_index, child, true_symbol):
        if self._active(instance, STAGE_PHASE1):
            return self.inner.phase1_source_symbol(instance, tree_index, child, true_symbol)
        return true_symbol

    def phase1_forward_symbol(self, instance, node, tree_index, child, true_symbol):
        if self._active(instance, STAGE_PHASE1):
            return self.inner.phase1_forward_symbol(
                instance, node, tree_index, child, true_symbol
            )
        return true_symbol

    def equality_check_vector(self, instance, node, neighbor, true_vector):
        if self._active(instance, STAGE_EQUALITY):
            return self.inner.equality_check_vector(instance, node, neighbor, true_vector)
        return true_vector

    def equality_check_flag(self, instance, node, true_flag):
        if self._active(instance, STAGE_EQUALITY):
            return self.inner.equality_check_flag(instance, node, true_flag)
        return true_flag

    def broadcast_value(self, instance, node, receiver, context, true_value):
        stage = (
            STAGE_EQUALITY
            if str(context).startswith("equality_flag")
            else STAGE_DISPUTE
        )
        if self._active(instance, stage):
            return self.inner.broadcast_value(instance, node, receiver, context, true_value)
        return true_value

    def relay_value(self, instance, node, path, receiver, true_value):
        if self._active(instance, STAGE_EQUALITY) or self._active(instance, STAGE_DISPUTE):
            return self.inner.relay_value(instance, node, path, receiver, true_value)
        return true_value

    def dispute_claims(self, instance, node, true_claims):
        if self._active(instance, STAGE_DISPUTE):
            return self.inner.dispute_claims(instance, node, true_claims)
        return true_claims

    def observe_faulty_nodes(self, faulty):
        self.inner.observe_faulty_nodes(faulty)

    def observe_instance(self, instance, graph, instance_graph, source, max_faults, dispute_state):
        self.inner.observe_instance(
            instance, graph, instance_graph, source, max_faults, dispute_state
        )


class ColludingRotationStrategy(ByzantineStrategy):
    """A coalition that designates exactly one misbehaving member per instance.

    The rotation order is a deterministic function of the shared seed (the
    lattice is the coalition's silent coordination channel), so every member
    knows whose turn it is without any communication.  Non-designated members
    behave honestly, spreading the evidence across the coalition: each
    dispute-control execution incriminates a different node.
    """

    def __init__(
        self,
        inner: ByzantineStrategy,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.inner = inner
        self.seed = seed
        self.lattice = AdversaryLattice(seed, namespace="colluding-rotator")
        self.name = name if name is not None else "colluding-rotator"
        self._members: Tuple[NodeId, ...] = ()
        self._sources: Dict[int, NodeId] = {}

    def observe_faulty_nodes(self, faulty):
        self._members = tuple(sorted(faulty))
        self.inner.observe_faulty_nodes(faulty)

    def observe_instance(self, instance, graph, instance_graph, source, max_faults, dispute_state):
        self._sources[instance] = source
        self.inner.observe_instance(
            instance, graph, instance_graph, source, max_faults, dispute_state
        )

    def aggressor(self, instance: int) -> Optional[NodeId]:
        """The coalition member designated to misbehave in ``instance``."""
        if not self._members:
            return None
        offset = self.lattice.randbits(16, "rotation-offset") % len(self._members)
        return self._members[(instance + offset) % len(self._members)]

    def _acts(self, instance: int, node: NodeId) -> bool:
        return node == self.aggressor(instance)

    def phase1_source_symbol(self, instance, tree_index, child, true_symbol):
        # The acting node here is the source itself (only a faulty source is
        # ever asked); defer to the rotation like any other member.
        source = self._sources.get(instance)
        if source is not None and self._acts(instance, source):
            return self.inner.phase1_source_symbol(instance, tree_index, child, true_symbol)
        return true_symbol

    def phase1_forward_symbol(self, instance, node, tree_index, child, true_symbol):
        if self._acts(instance, node):
            return self.inner.phase1_forward_symbol(
                instance, node, tree_index, child, true_symbol
            )
        return true_symbol

    def equality_check_vector(self, instance, node, neighbor, true_vector):
        if self._acts(instance, node):
            return self.inner.equality_check_vector(instance, node, neighbor, true_vector)
        return true_vector

    def equality_check_flag(self, instance, node, true_flag):
        if self._acts(instance, node):
            return self.inner.equality_check_flag(instance, node, true_flag)
        return true_flag

    def broadcast_value(self, instance, node, receiver, context, true_value):
        if self._acts(instance, node):
            return self.inner.broadcast_value(instance, node, receiver, context, true_value)
        return true_value

    def relay_value(self, instance, node, path, receiver, true_value):
        if self._acts(instance, node):
            return self.inner.relay_value(instance, node, path, receiver, true_value)
        return true_value

    def dispute_claims(self, instance, node, true_claims):
        if self._acts(instance, node):
            return self.inner.dispute_claims(instance, node, true_claims)
        return true_claims


# ------------------------------------------------------------- leaf strategies


class RelayEquivocatorStrategy(ByzantineStrategy):
    """Relay-level equivocation: forwards a *different* corrupted symbol per child.

    Unlike :class:`Phase1CorruptingRelayStrategy` (one fixed flip mask), each
    ``(instance, node, tree, child)`` gets its own lattice-drawn non-zero
    mask, so downstream subtrees disagree with each other — Phase 1 outcome
    (iv) induced by a relay rather than the source.  Equality-check vectors
    are equivocated the same way per neighbour.
    """

    name = "relay-equivocator"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.lattice = AdversaryLattice(seed, namespace="relay-equivocator")

    def phase1_forward_symbol(self, instance, node, tree_index, child, true_symbol):
        mask = self.lattice.randbits(8, "p1", instance, node, tree_index, child) | 1
        return true_symbol ^ mask

    def equality_check_vector(self, instance, node, neighbor, true_vector):
        return [
            symbol ^ (self.lattice.randbits(4, "eq", instance, node, neighbor, i) | 1)
            for i, symbol in enumerate(true_vector)
        ]


class AdaptiveDisputeDodgerStrategy(ByzantineStrategy):
    """Reads the dispute state and corrupts only towards *fresh* victims.

    Per instance, each active faulty node picks up to ``targets`` honest
    neighbours it is not yet in dispute with (disputed links have been removed
    from ``G_k`` anyway) and sends them corrupted equality-check vectors.
    During dispute control it lies *minimally*: its claims are the honest
    transcript except that the corrupted sends are replaced by the values an
    honest node would have sent.  That passes the DC3 consistency check —
    the claims describe a perfectly honest execution — so dispute control
    can conclude nothing beyond one new dispute per victim (DC2 sees the
    victim's truthful "received garbage" against the dodger's "sent the right
    thing").  With ``targets=1`` and ``aggressors=1`` this walks dispute
    control towards its ``f (f + 1)`` worst case.

    Args:
        seed: Lattice seed (victim rotation).
        targets: Fresh victims corrupted per active node per instance.
        aggressors: How many coalition members act simultaneously
            (``0`` = all of them).
    """

    name = "adaptive-dodger"

    def __init__(self, seed: int = 0, targets: int = 2, aggressors: int = 0) -> None:
        if targets < 1:
            raise ConfigurationError(f"targets must be >= 1, got {targets}")
        if aggressors < 0:
            raise ConfigurationError(f"aggressors must be >= 0, got {aggressors}")
        self.seed = seed
        self.targets = targets
        self.aggressors = aggressors
        self.lattice = AdversaryLattice(seed, namespace="adaptive-dodger")
        self._members: Tuple[NodeId, ...] = ()
        self._victims: Dict[Tuple[int, NodeId], Tuple[NodeId, ...]] = {}
        self._true_vectors: Dict[Tuple[int, NodeId, NodeId], Tuple[int, ...]] = {}

    def observe_faulty_nodes(self, faulty):
        self._members = tuple(sorted(faulty))

    def observe_instance(self, instance, graph, instance_graph, source, max_faults, dispute_state):
        identified = dispute_state.implied_faulty(graph.nodes())
        alive = [
            member
            for member in self._members
            if member not in identified and instance_graph.has_node(member)
        ]
        active = alive if self.aggressors == 0 else alive[: self.aggressors]
        coalition = set(self._members)
        for member in active:
            neighbors = sorted(
                {head for _tail, head, _cap in instance_graph.out_edges(member)}
            )
            fresh = [
                neighbor
                for neighbor in neighbors
                if neighbor not in coalition
                and not dispute_state.is_disputed(member, neighbor)
            ]
            if not fresh:
                continue
            offset = self.lattice.randbits(16, "victims", instance, member) % len(fresh)
            rotated = fresh[offset:] + fresh[:offset]
            self._victims[(instance, member)] = tuple(rotated[: self.targets])

    def equality_check_vector(self, instance, node, neighbor, true_vector):
        self._true_vectors[(instance, node, neighbor)] = tuple(true_vector)
        if neighbor in self._victims.get((instance, node), ()):
            return [
                symbol
                ^ (self.lattice.randbits(4, "corrupt", instance, node, neighbor, i) | 1)
                for i, symbol in enumerate(true_vector)
            ]
        return true_vector

    def dispute_claims(self, instance, node, true_claims):
        victims = self._victims.get((instance, node), ())
        if not victims:
            return true_claims
        claims = {
            key: dict(value) if isinstance(value, dict) else value
            for key, value in true_claims.items()
        }
        equality_sent = dict(claims.get("equality_sent", {}))
        for victim in victims:
            true_vector = self._true_vectors.get((instance, node, victim))
            if true_vector is not None:
                equality_sent[victim] = true_vector
        claims["equality_sent"] = equality_sent
        return claims


class RelayTamperStrategy(ByzantineStrategy):
    """Corrupts values it forwards as an intermediate on disjoint-path relays.

    A faulty node on a relay path makes the receiver take the per-value
    majority over the path copies; this strategy makes that decoding earn its
    keep by actually tampering with a lattice-chosen fraction of forwards.
    Majority decoding over ``2f + 1`` disjoint paths absorbs the damage.
    """

    name = "relay-tamper"

    def __init__(self, seed: int = 0, rate: Fraction = Fraction(1, 2)) -> None:
        rate = Fraction(rate)
        if rate < 0 or rate > 1:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        self.seed = seed
        self.rate = rate
        self.lattice = AdversaryLattice(seed, namespace="relay-tamper")

    def relay_value(self, instance, node, path, receiver, true_value):
        key = ("relay", instance, node, tuple(path), receiver)
        if self.lattice.point(*key) < self.rate:
            return ("tampered", self.lattice.randbits(8, "bits", *key))
        return true_value


# --------------------------------------------------------------- composition


def _component_seed(seed: int, index: int, kind: str) -> int:
    """A per-component sub-seed so stacked components draw independent streams."""
    material = f"component|{seed}|{index}|{kind}"
    return int.from_bytes(
        hashlib.sha256(material.encode("utf-8")).digest()[:8], "big"
    )


def _take(config: Dict[str, Any], kind: str, **defaults: Any) -> Dict[str, Any]:
    """Pop the allowed keys (with defaults) and reject anything left over."""
    taken = {key: config.pop(key, default) for key, default in defaults.items()}
    if config:
        raise ConfigurationError(
            f"unknown parameter(s) for component {kind!r}: {sorted(config)}"
        )
    return taken


def _build_component(kind: str, seed: int, config: Mapping[str, Any]) -> ByzantineStrategy:
    config = dict(config)
    if kind == "relay-equivocator":
        _take(config, kind)
        return RelayEquivocatorStrategy(seed=seed)
    if kind == "adaptive-dodger":
        options = _take(config, kind, targets=2, aggressors=0)
        return AdaptiveDisputeDodgerStrategy(seed=seed, **options)
    if kind == "relay-tamper":
        options = _take(config, kind, rate=(1, 2))
        numerator, denominator = options["rate"]
        return RelayTamperStrategy(seed=seed, rate=Fraction(numerator, denominator))
    if kind == "phase1-relay":
        options = _take(config, kind, flip_mask=1)
        return Phase1CorruptingRelayStrategy(seed=seed, **options)
    if kind == "equality-garbage":
        options = _take(config, kind, offset=1)
        return EqualityGarbageStrategy(seed=seed, **options)
    if kind == "false-flag":
        _take(config, kind)
        return FalseFlagStrategy(seed=seed)
    if kind == "dispute-liar":
        options = _take(config, kind, flip_mask=1)
        return DisputeLiarStrategy(seed=seed, **options)
    if kind == "sub-broadcast-liar":
        _take(config, kind)
        return SubBroadcastLiarStrategy(seed=seed)
    if kind == "crash":
        _take(config, kind)
        return CrashStrategy(seed=seed)
    if kind == "chaos":
        _take(config, kind)
        return RandomizedChaosStrategy(seed=seed)
    raise ConfigurationError(
        f"unknown component kind {kind!r}; available: {', '.join(sorted(COMPONENT_KINDS))}"
    )


#: Component kinds :func:`build_composed` understands.
COMPONENT_KINDS = frozenset(
    {
        "relay-equivocator",
        "adaptive-dodger",
        "relay-tamper",
        "phase1-relay",
        "equality-garbage",
        "false-flag",
        "dispute-liar",
        "sub-broadcast-liar",
        "crash",
        "chaos",
    }
)


def build_composed(seed: int, params: Optional[Mapping[str, Any]] = None) -> ByzantineStrategy:
    """Assemble a zoo strategy from a JSON-able parameter mapping.

    Schema::

        {
          "components": [{"kind": "<kind>", ...kind options...}, ...],
          "stages":     [[q, h], ...],   # optional StageTimedStrategy gate
          "rotate":     true|false,      # optional coalition rotation wrapper
        }

    The mapping round-trips through canonical JSON unchanged, which is how
    the search driver mutates candidates and how found worst cases are
    committed as ``strategy_params`` on spec cells.
    """
    params = dict(params or {})
    unknown = set(params) - {"components", "stages", "rotate"}
    if unknown:
        raise ConfigurationError(
            f"unknown composed-strategy parameter(s): {sorted(unknown)}"
        )
    specs = params.get("components") or [{"kind": "equality-garbage"}]
    components: List[ByzantineStrategy] = []
    for index, config in enumerate(specs):
        config = dict(config)
        kind = config.pop("kind", None)
        if not isinstance(kind, str):
            raise ConfigurationError(f"component {index} is missing a 'kind' string")
        components.append(
            _build_component(kind, _component_seed(seed, index, kind), config)
        )
    strategy: ByzantineStrategy
    if len(components) == 1:
        strategy = components[0]
    else:
        strategy = ComposedStrategy(components)
    stages = params.get("stages")
    if stages:
        strategy = StageTimedStrategy(strategy, tuple(tuple(stage) for stage in stages))
    if params.get("rotate"):
        strategy = ColludingRotationStrategy(strategy, seed=seed)
    strategy.name = "composed"
    return strategy


# ------------------------------------------------------------------- registry


def _build_stage_equivocator(seed: int, params: Optional[Mapping[str, Any]] = None) -> ByzantineStrategy:
    params = dict(params or {})
    options = _take(params, "stage-equivocator", stages=((0, 1), (2, 1), (4, 2), (6, 2)))
    return StageTimedStrategy(
        RelayEquivocatorStrategy(seed=seed),
        tuple(tuple(stage) for stage in options["stages"]),
        name="stage-equivocator",
    )


def _build_colluding_rotator(seed: int, params: Optional[Mapping[str, Any]] = None) -> ByzantineStrategy:
    params = dict(params or {})
    options = _take(params, "colluding-rotator", inner="equality-garbage")
    inner = _build_component(options["inner"], _component_seed(seed, 0, options["inner"]), {})
    return ColludingRotationStrategy(inner, seed=seed)


def _build_adaptive_dodger(seed: int, params: Optional[Mapping[str, Any]] = None) -> ByzantineStrategy:
    params = dict(params or {})
    options = _take(params, "adaptive-dodger", targets=2, aggressors=0)
    return AdaptiveDisputeDodgerStrategy(seed=seed, **options)


def _build_relay_tamper(seed: int, params: Optional[Mapping[str, Any]] = None) -> ByzantineStrategy:
    params = dict(params or {})
    options = _take(params, "relay-tamper", rate=(1, 2))
    numerator, denominator = options["rate"]
    return RelayTamperStrategy(seed=seed, rate=Fraction(numerator, denominator))


def zoo_strategy_factories() -> Dict[str, Callable[..., ByzantineStrategy]]:
    """Factories ``(seed, params) -> strategy`` for the zoo's registered names.

    Merged into the scenario-level strategy registry
    (:func:`repro.workloads.scenarios.named_strategies`), so zoo strategies
    are available everywhere hand-written ones are: specs, the CLI, the
    search driver and property tests.
    """
    return {
        "stage-equivocator": _build_stage_equivocator,
        "colluding-rotator": _build_colluding_rotator,
        "adaptive-dodger": _build_adaptive_dodger,
        "relay-tamper": _build_relay_tamper,
        "composed": build_composed,
    }
