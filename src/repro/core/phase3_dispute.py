"""Phase 3: dispute control (steps DC1–DC4 of Appendix B).

Dispute control runs only when some node announced MISMATCH in step 2.2.  Its
job is twofold: produce a *correct* output for the current instance (as a
byproduct of everyone reliably re-broadcasting everything), and learn something
about the identity of at least one faulty node — either a new node pair "in
dispute" (at least one of the two is faulty) or a node identified as faulty
outright.

* **DC1** — every node in ``V_k`` Byzantine-broadcasts the messages it claims
  to have sent and received during Phases 1 and 2; the source additionally
  broadcasts its ``L``-bit input.  All fault-free nodes thus agree on a single
  global "claims table" and adopt the source's broadcast input as the
  instance output.
* **DC2** — if node ``a``'s claim of what it sent to ``b`` differs from ``b``'s
  claim of what it received from ``a``, the pair ``{a, b}`` is in dispute.
* **DC3** — NAB is deterministic, so each node's claimed *sent* messages (and
  announced flag) must be the function of its claimed *received* messages
  (and, for the source, its broadcast input) that the algorithm prescribes;
  any inconsistency identifies that node as faulty.
* **DC4** — the intersection of all ``<= f``-node sets explaining the disputes
  is certainly faulty (computed by :class:`repro.core.dispute_state.DisputeState`).

Fault-free nodes are never found in dispute with each other and never fail the
DC3 consistency check, because their claims are the literal transcript of an
honest execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

from repro.classical.broadcast_default import BroadcastDefault
from repro.coding.coding_matrix import CodingScheme, encode_on_edges
from repro.coding.equality_check import EqualityCheckOutcome, value_to_symbols
from repro.exceptions import ProtocolError
from repro.graph.network_graph import NetworkGraph
from repro.core.phase1_broadcast import Phase1Transcript
from repro.gf.symbols import symbols_to_bits
from repro.transport.network import SynchronousNetwork
from repro.types import NodeId, NodePair, node_pair

#: Output adopted when the source's broadcast input is missing or malformed.
DEFAULT_OUTPUT = 0


@dataclass(frozen=True)
class Phase3Result:
    """Outcome of one dispute-control execution.

    Attributes:
        output_bits: The instance output all fault-free nodes adopt.
        new_disputes: Node pairs found in dispute during this execution.
        identified_faulty: Nodes identified as faulty by DC3 in this execution.
        claims: The agreed claims table (useful for diagnostics and tests).
    """

    output_bits: int
    new_disputes: Tuple[NodePair, ...]
    identified_faulty: Tuple[NodeId, ...]
    claims: Dict[NodeId, Dict[str, Any]] = field(default_factory=dict)


def honest_claims(
    node: NodeId,
    source: NodeId,
    input_bits: int | None,
    phase1: Phase1Transcript,
    equality: EqualityCheckOutcome,
    instance_graph: NetworkGraph,
) -> Dict[str, Any]:
    """The claims an honest ``node`` makes during DC1, straight from its transcript."""
    claims: Dict[str, Any] = {
        "phase1_sent": {},
        "phase1_received": {},
        "equality_sent": {},
        "equality_received": {},
    }
    if node == source:
        claims["input"] = input_bits
    for (tree_index, parent, child), symbol in phase1.sent_symbols.items():
        if parent == node:
            claims["phase1_sent"][(tree_index, child)] = symbol
    for (tree_index, child), symbol in phase1.received_symbols.items():
        if child == node:
            claims["phase1_received"][tree_index] = symbol
    for (tail, head), vector in equality.sent_vectors.items():
        if tail == node:
            claims["equality_sent"][head] = tuple(vector)
        if head == node:
            claims["equality_received"][tail] = tuple(vector)
    # What a node *received* on an incoming edge is what was delivered to it;
    # sent_vectors holds the delivered (post-corruption) vectors, so the loop
    # above already recorded the honest receive claims.
    del instance_graph  # structure is implied by the transcript keys
    return claims


def claims_bit_size(claims: Mapping[str, Any], symbol_bits: int, scheme: CodingScheme) -> int:
    """Approximate size in bits of a claims payload (for accounting purposes)."""
    total = 0
    if claims.get("input") is not None:
        total += max(1, int(claims["input"]).bit_length())
    total += len(claims.get("phase1_sent", {})) * symbol_bits
    total += len(claims.get("phase1_received", {})) * symbol_bits
    for vector in claims.get("equality_sent", {}).values():
        total += len(vector) * scheme.symbol_bits
    for vector in claims.get("equality_received", {}).values():
        total += len(vector) * scheme.symbol_bits
    return max(1, total)


def run_phase3(
    network: SynchronousNetwork,
    instance_graph: NetworkGraph,
    source: NodeId,
    input_bits: int,
    total_bits: int,
    phase1: Phase1Transcript,
    phase2_check: EqualityCheckOutcome,
    announced_flags: Mapping[NodeId, bool],
    scheme: CodingScheme,
    participants: Sequence[NodeId],
    participant_faults: int,
    relay_faults: int,
    instance: int = 0,
    phase: str = "phase3_dispute_control",
) -> Phase3Result:
    """Execute dispute control and return the agreed output plus new evidence."""
    fault_model = network.fault_model
    strategy = fault_model.strategy
    broadcaster = BroadcastDefault(
        network,
        participants,
        participant_faults,
        instance=instance,
        relay_max_faults=relay_faults,
    )

    # ------------------------------------------------------------------- DC1
    # Every node's claims travel in one shared-round broadcast: the hook
    # contexts ("dispute_claims|origin=<o>|<label>") and per-link bits equal
    # one broadcast per node.
    outgoing_claims: Dict[NodeId, Dict[str, Any]] = {}
    for node in sorted(participants):
        claims = honest_claims(
            node,
            source,
            input_bits if node == source else None,
            phase1,
            phase2_check,
            instance_graph,
        )
        if fault_model.is_faulty(node):
            claims = strategy.dispute_claims(instance, node, claims)
        outgoing_claims[node] = claims
    decided = broadcaster.broadcast_from_all(
        outgoing_claims,
        {
            node: claims_bit_size(claims, phase1.symbol_bits, scheme)
            for node, claims in outgoing_claims.items()
        },
        phase,
        context="dispute_claims",
    )
    agreed_claims: Dict[NodeId, Dict[str, Any]] = {
        node: _any_agreed_value([held[node] for held in decided.values()])
        for node in outgoing_claims
    }

    output_bits = _extract_output(agreed_claims.get(source, {}), total_bits)

    # ------------------------------------------------------------------- DC2
    new_disputes: Set[NodePair] = set()
    for tail, head, _capacity in instance_graph.edges():
        if tail not in agreed_claims or head not in agreed_claims:
            continue
        if _edge_claims_conflict(agreed_claims[tail], agreed_claims[head], tail, head, phase1):
            new_disputes.add(node_pair(tail, head))

    # ------------------------------------------------------------------- DC3
    identified_faulty: Set[NodeId] = set()
    for node in sorted(participants):
        claims = agreed_claims.get(node)
        if claims is None or not isinstance(claims, dict):
            identified_faulty.add(node)
            continue
        if not _claims_consistent(
            node,
            claims,
            source,
            output_bits if node == source else None,
            total_bits,
            phase1,
            scheme,
            instance_graph,
            announced_flags.get(node, False),
        ):
            identified_faulty.add(node)

    return Phase3Result(
        output_bits=output_bits,
        new_disputes=tuple(sorted(new_disputes, key=lambda pair: tuple(sorted(pair)))),
        identified_faulty=tuple(sorted(identified_faulty)),
        claims=agreed_claims,
    )


# --------------------------------------------------------------------- helpers


def _any_agreed_value(decided: Sequence[Any]) -> Any:
    """All fault-free receivers agree, so return any one of their decided values."""
    if not decided:
        raise ProtocolError("classical broadcast produced no fault-free outputs")
    first = decided[0]
    if any(value is not first and repr(value) != repr(first) for value in decided[1:]):
        raise ProtocolError("fault-free nodes disagree on broadcast claims")
    return first


def _extract_output(source_claims: Mapping[str, Any], total_bits: int) -> int:
    """The instance output: the source's broadcast input, or the default value."""
    value = source_claims.get("input") if isinstance(source_claims, Mapping) else None
    if not isinstance(value, int) or isinstance(value, bool):
        return DEFAULT_OUTPUT
    if value < 0 or value >= (1 << total_bits):
        return DEFAULT_OUTPUT
    return value


def _edge_claims_conflict(
    tail_claims: Mapping[str, Any],
    head_claims: Mapping[str, Any],
    tail: NodeId,
    head: NodeId,
    phase1: Phase1Transcript,
) -> bool:
    """DC2 check for one directed edge: sender's 'sent' vs receiver's 'received'."""
    if not isinstance(tail_claims, Mapping) or not isinstance(head_claims, Mapping):
        return False
    sent_phase1 = tail_claims.get("phase1_sent", {}) or {}
    received_phase1 = head_claims.get("phase1_received", {}) or {}
    for tree_index, tree in enumerate(phase1.trees):
        if tree.parents.get(head) != tail:
            continue
        claimed_sent = sent_phase1.get((tree_index, head))
        claimed_received = received_phase1.get(tree_index)
        if claimed_sent != claimed_received:
            return True
    sent_equality = tail_claims.get("equality_sent", {}) or {}
    received_equality = head_claims.get("equality_received", {}) or {}
    if head in sent_equality or tail in received_equality:
        if tuple(sent_equality.get(head, ())) != tuple(received_equality.get(tail, ())):
            return True
    return False


def _claims_consistent(
    node: NodeId,
    claims: Mapping[str, Any],
    source: NodeId,
    broadcast_input: int | None,
    total_bits: int,
    phase1: Phase1Transcript,
    scheme: CodingScheme,
    instance_graph: NetworkGraph,
    announced_flag: bool,
) -> bool:
    """DC3 check: are the node's claims consistent with the deterministic algorithm?"""
    try:
        phase1_sent = dict(claims.get("phase1_sent", {}) or {})
        phase1_received = dict(claims.get("phase1_received", {}) or {})
        equality_sent = dict(claims.get("equality_sent", {}) or {})
        equality_received = dict(claims.get("equality_received", {}) or {})
    except (TypeError, ValueError):
        return False

    gamma = len(phase1.trees)
    symbol_bits = phase1.symbol_bits

    # Determine the value the node's later actions must be consistent with.
    if node == source:
        if broadcast_input is None:
            return False
        value_bits = broadcast_input
        own_symbols = _source_symbols(value_bits, total_bits, symbol_bits, gamma)
    else:
        own_symbols = []
        for tree_index in range(gamma):
            symbol = phase1_received.get(tree_index)
            if not isinstance(symbol, int) or symbol < 0 or symbol >= (1 << symbol_bits):
                return False
            own_symbols.append(symbol)
        value_bits = symbols_to_bits(own_symbols, symbol_bits) & ((1 << total_bits) - 1)

    # Phase 1 sends must forward exactly what was received (or derived from the input).
    for tree_index, tree in enumerate(phase1.trees):
        for child in tree.children_of(node):
            expected_symbol = own_symbols[tree_index]
            if phase1_sent.get((tree_index, child)) != expected_symbol:
                return False

    # Equality-check sends must equal X_i C_e for every outgoing edge of G_k.
    try:
        value_symbols = value_to_symbols(value_bits, total_bits, scheme)
    except ProtocolError:
        return False
    # One stacked pass over every incident edge of G_k (outgoing sends plus
    # the incoming expectations checked below) instead of a per-edge loop.
    out_edge_list = [(node, head) for _tail, head, _cap in instance_graph.out_edges(node)]
    in_edge_list = [(tail, node) for tail, _head, _cap in instance_graph.in_edges(node)]
    expected_coded = encode_on_edges(
        scheme, value_symbols, out_edge_list + in_edge_list
    )
    for _tail, head, _capacity in instance_graph.out_edges(node):
        expected_vector = tuple(expected_coded[(node, head)])
        if tuple(equality_sent.get(head, ())) != expected_vector:
            return False

    # The announced flag must match what the claimed receptions imply.
    implied_flag = False
    for tail, _head, _capacity in instance_graph.in_edges(node):
        expected_vector = tuple(expected_coded[(tail, node)])
        claimed_received = tuple(equality_received.get(tail, ()))
        if claimed_received != expected_vector:
            implied_flag = True
    if bool(announced_flag) != implied_flag:
        return False
    return True


def _source_symbols(
    value_bits: int, total_bits: int, symbol_bits: int, gamma: int
) -> List[int]:
    """The per-tree symbols an honest source derives from its input."""
    from repro.gf.symbols import bits_to_symbols

    symbols = bits_to_symbols(value_bits, total_bits, symbol_bits)
    if len(symbols) < gamma:
        symbols = [0] * (gamma - len(symbols)) + symbols
    return symbols
