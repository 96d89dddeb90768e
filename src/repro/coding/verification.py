"""Theorem 1: verifying that a set of coding matrices is *correct*.

A coding scheme is correct (property (EC)) if, whenever two fault-free nodes
hold different values, at least one fault-free node's equality check fails.
Appendix C reduces this to a linear-algebra condition per subgraph
``H`` of ``Omega_k``:  writing ``D_i = X_i - X_{n-f}`` for the per-symbol
differences and stacking the per-edge matrices ``C_e`` into the block matrix
``C_H``, the checks inside ``H`` all pass iff ``D_H C_H = 0``.  The scheme is
correct for ``H`` iff that implies ``D_H = 0``, i.e. iff ``C_H`` has full row
rank ``(|H| - 1) * rho``.  (The paper exhibits an invertible submatrix built
from undirected spanning trees; checking the rank directly is equivalent and
is what this module does.)

The module also provides the quantitative bound of Theorem 1 so benchmarks can
compare the empirical failure rate of random schemes against
``2^(-L/rho) * C(n, n-f) * (n - f - 1) * rho``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple

from repro.coding.coding_matrix import CodingScheme
from repro.exceptions import ProtocolError
from repro.gf.matrix import GFMatrix
from repro.graph.flow_cache import MinCutCache, graph_signature
from repro.graph.network_graph import NetworkGraph
from repro.types import NodeId

#: Process-wide memo of check-matrix rank verdicts.  Repeated Phase 2 / Omega
#: verifications across instances and sweeps used to re-run full Gaussian
#: elimination for structurally identical questions; the verdict is a pure
#: function of (graph structure, subgraph, scheme derivation key), so it is
#: memoised on ``(graph_signature, subgraph nodes, seed, instance, rho,
#: symbol_bits, modulus)`` — the graph signature of the *instance graph*
#: already encodes the dispute-driven edge removals.  Uses the shared
#: :class:`MinCutCache` LRU machinery (stats counters, lifetime counters).
_RANK_CACHE = MinCutCache(max_entries=4096, name="rank_verdicts")


def verification_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of the rank-verdict cache (``MinCutCache.stats`` shape)."""
    return _RANK_CACHE.stats()


def build_check_matrix(
    graph: NetworkGraph,
    subgraph_nodes: Sequence[NodeId],
    scheme: CodingScheme,
) -> GFMatrix:
    """Construct ``C_H`` for the subgraph induced by ``subgraph_nodes``.

    Rows are indexed by ``(node index < |H| - 1, symbol index < rho)`` —
    i.e. by the entries of the difference vector ``D_H`` — and there is one
    column per coded symbol sent on an edge of ``H``.  For the edge
    ``e = (u, v)`` and its coding-matrix column ``c``:

    * the block of rows belonging to ``u`` receives ``c`` (unless ``u`` is the
      reference node, the last node of ``H``),
    * the block of rows belonging to ``v`` receives ``-c`` (same exception),

    which is exactly the expansion ``B_e`` of Appendix C (in characteristic 2,
    ``-c = c``).

    Raises:
        ProtocolError: if the subgraph has fewer than two nodes or contains no
            edges (then no check constrains the values at all).
    """
    nodes = sorted(subgraph_nodes)
    if len(nodes) < 2:
        raise ProtocolError("check matrix requires a subgraph with at least two nodes")
    node_index = {node: position for position, node in enumerate(nodes)}
    reference = nodes[-1]
    block_count = len(nodes) - 1
    rho = scheme.rho
    rows = block_count * rho
    subgraph = graph.induced_subgraph(nodes)
    edge_list = list(subgraph.edges())
    total_columns = sum(capacity for _tail, _head, capacity in edge_list)
    if total_columns == 0:
        raise ProtocolError("subgraph contains no edges; equality check cannot constrain it")
    # Fill C_H row-major directly (one block row per (node, symbol) pair and
    # one column per coded symbol) and hand the rows to the trusted
    # constructor — every entry comes straight out of already-validated
    # coding matrices.  Each (block row, column range) pair is written at
    # most once (column ranges are disjoint per edge and tail != head), so
    # the Appendix C XOR-accumulation collapses to whole-row slice
    # assembly: one vector move per coding-matrix row instead of a
    # per-entry loop.
    data: List[List[int]] = [[0] * total_columns for _ in range(rows)]
    base = 0
    for tail, head, capacity in edge_list:
        matrix = scheme.matrix_for((tail, head))
        if matrix.cols != capacity:
            # Slice assembly would silently resize the row on a width
            # mismatch (a hand-built scheme whose matrix disagrees with the
            # edge capacity); fail loudly instead.
            raise ProtocolError(
                f"coding matrix for edge ({tail}, {head}) has {matrix.cols} "
                f"columns but the edge capacity is {capacity}"
            )
        for offset, coding_row in enumerate(matrix.to_lists()):
            if tail != reference:
                data[node_index[tail] * rho + offset][base : base + capacity] = coding_row
            if head != reference:
                data[node_index[head] * rho + offset][base : base + capacity] = coding_row
        base += capacity
    return GFMatrix._trusted(scheme.field, data)


def subgraph_is_constrained(
    graph: NetworkGraph,
    subgraph_nodes: Sequence[NodeId],
    scheme: CodingScheme,
) -> bool:
    """Whether ``C_H`` has full row rank for the given subgraph.

    Full row rank means the only difference vector passing every check is
    zero, i.e. the equality check is sound for this potential fault-free set.
    The verdict is memoised process-wide (see :data:`_RANK_CACHE`): the
    coding matrices are a pure function of ``(seed, instance, edge)`` and the
    subgraph of the instance graph, so structurally identical verifications
    across instances and sweeps skip the Gaussian elimination entirely.
    """
    if not scheme.derived:
        # Hand-built matrices are not a function of (seed, instance); caching
        # their verdicts under the derivation key would alias unrelated
        # schemes.
        matrix = build_check_matrix(graph, subgraph_nodes, scheme)
        return matrix.rank() == matrix.rows
    key = (
        "coding-rank",
        graph_signature(graph),
        tuple(sorted(subgraph_nodes)),
        scheme.seed,
        scheme.instance,
        scheme.rho,
        scheme.symbol_bits,
        scheme.field.modulus,
    )
    cached = _RANK_CACHE.lookup(key)
    if cached is None:
        matrix = build_check_matrix(graph, subgraph_nodes, scheme)
        cached = matrix.rank() == matrix.rows
        _RANK_CACHE.store(key, cached)
    return cached


def verify_coding_scheme(
    graph: NetworkGraph,
    omega_subgraphs: Sequence[Tuple[NodeId, ...]],
    scheme: CodingScheme,
) -> Dict[Tuple[NodeId, ...], bool]:
    """Check property (EC) for every subgraph of ``Omega_k``.

    Returns:
        Mapping from subgraph node tuple to whether its check matrix has full
        rank.  The scheme is correct iff every value is ``True``.
    """
    return {
        tuple(nodes): subgraph_is_constrained(graph, nodes, scheme)
        for nodes in omega_subgraphs
    }


def scheme_is_correct(
    graph: NetworkGraph,
    omega_subgraphs: Sequence[Tuple[NodeId, ...]],
    scheme: CodingScheme,
) -> bool:
    """Whether the coding scheme satisfies property (EC) for all of ``Omega_k``."""
    return all(verify_coding_scheme(graph, omega_subgraphs, scheme).values())


def theorem1_failure_bound(
    node_count: int, max_faults: int, rho: int, symbol_bits: int
) -> Fraction:
    """The paper's upper bound on the probability that a random scheme is *not* correct.

    Theorem 1: correctness holds with probability at least
    ``1 - 2^(-L/rho) * C(n, n-f) * (n - f - 1) * rho``; this function returns
    the complementary bound (clamped to 1), i.e.
    ``min(1, C(n, n-f) * (n - f - 1) * rho / 2^symbol_bits)``.
    """
    if node_count < 1 or max_faults < 0 or rho < 1 or symbol_bits < 1:
        raise ProtocolError("invalid Theorem 1 parameters")
    bound = Fraction(
        comb(node_count, node_count - max_faults) * (node_count - max_faults - 1) * rho,
        2**symbol_bits,
    )
    return min(bound, Fraction(1))
