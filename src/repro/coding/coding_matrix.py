"""Per-edge coding matrices ``C_e`` (part of the algorithm specification).

Step 1 of Algorithm 1: for each directed edge ``e = (i, j)`` of capacity
``z_e``, a ``rho_k x z_e`` matrix ``C_e`` over ``GF(2^(L/rho_k))`` is
*specified as part of the algorithm*.  Node ``i`` transmits the ``z_e`` coded
symbols ``Y_e = X_i C_e``; node ``j`` checks ``Y_e`` against ``X_j C_e``.

Theorem 1 shows that drawing every entry independently and uniformly at random
yields a *correct* set of matrices with probability at least
``1 - 2^(-L/rho) * C(n, n-f) * (n - f - 1) * rho``, so for large symbol sizes
a random draw is essentially always correct.  To keep the algorithm
deterministic (a property dispute control relies on), the matrices are derived
from an explicit seed: the same ``(seed, instance, edge)`` always produces the
same matrix, and the seed is considered public knowledge (the adversary knows
the algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.gf.field import GF2m, get_field
from repro.gf.matrix import GFMatrix
from repro.graph.network_graph import NetworkGraph
from repro.types import Edge


@dataclass(frozen=True)
class CodingScheme:
    """The full coding specification for one equality-check execution.

    Attributes:
        field: The symbol field ``GF(2^(L / rho))``.
        rho: Number of symbols each node's value is split into.
        symbol_bits: Bits per symbol (``L / rho``, rounded up).
        matrices: The per-edge coding matrices, each of shape ``rho x z_e``.
        seed: The seed the matrices were derived from (for reproducibility).
        instance: The NAB instance the matrices were derived for (the other
            half of the derivation key; lets caches distinguish schemes of
            successive instances over one graph).
    """

    field: GF2m
    rho: int
    symbol_bits: int
    matrices: Dict[Edge, GFMatrix]
    seed: int
    instance: int = 0
    #: Whether the matrices were derived deterministically from
    #: ``(seed, instance, edge)`` by :func:`generate_coding_scheme`.  Only
    #: derived schemes may key process-wide caches on the derivation tuple;
    #: hand-built schemes (tests, adversarial constructions) carry arbitrary
    #: matrices under any seed and must not share cache entries.
    derived: bool = dataclass_field(default=False, compare=False)
    #: Lazily built horizontal concatenations of per-edge matrices, keyed on
    #: the edge tuple — the shared operand of batched multi-edge encodes.
    #: Mutable cache state, excluded from the dataclass value semantics.
    _combined: Dict[Tuple[Edge, ...], Tuple[GFMatrix, Tuple[int, ...]]] = dataclass_field(
        default_factory=dict, repr=False, compare=False
    )

    def matrix_for(self, edge: Edge) -> GFMatrix:
        """The coding matrix of a directed edge.

        Raises:
            ProtocolError: if the edge has no matrix in this scheme.
        """
        if edge not in self.matrices:
            raise ProtocolError(f"no coding matrix for edge {edge}")
        return self.matrices[edge]

    def edges(self) -> Iterator[Edge]:
        """Edges covered by the scheme, in sorted order."""
        return iter(sorted(self.matrices))

    def combined_matrix(self, edges: Tuple[Edge, ...]) -> Tuple[GFMatrix, Tuple[int, ...]]:
        """The column-wise concatenation of several edges' coding matrices.

        Returns the combined ``rho x sum(z_e)`` matrix plus the per-edge
        column widths, cached per edge tuple: the concatenation (and the
        stacked-row window tables the field caches for it) is the shared
        operand of every batched encode over that edge set, so repeated
        encodes of different values pay only the per-value windowed scans.

        Raises:
            ProtocolError: if the tuple is empty or any edge has no matrix.
        """
        cached = self._combined.get(edges)
        if cached is None:
            if not edges:
                raise ProtocolError("combined_matrix requires at least one edge")
            matrices = [self.matrix_for(edge) for edge in edges]
            for edge, matrix in zip(edges, matrices):
                if matrix.rows != self.rho:
                    # A short matrix would hand a ragged concatenation to the
                    # trusted constructor; fail loudly like the single-edge
                    # vecmat path does.
                    raise ProtocolError(
                        f"coding matrix for edge {edge} has {matrix.rows} rows "
                        f"but the scheme uses rho={self.rho}"
                    )
            cached = self._combined[edges] = (
                GFMatrix._hconcat(matrices),
                tuple(matrix.cols for matrix in matrices),
            )
        return cached


def _edge_seed(seed: int, instance: int, edge: Edge) -> int:
    """The seed of one edge's matrix: its entries are the draws of a fresh
    ``random.Random`` of it, a stream independent across edges.

    The mixing constants are arbitrary large primes; they only need to keep
    distinct ``(seed, instance, edge)`` triples on distinct RNG streams.
    """
    return (
        seed * 1_000_000_007
        + instance * 1_000_003
        + edge[0] * 10_007
        + edge[1] * 101
    )


def generate_coding_scheme(
    graph: NetworkGraph,
    rho: int,
    symbol_bits: int,
    seed: int = 0,
    instance: int = 0,
) -> CodingScheme:
    """Generate the per-edge coding matrices for an instance graph.

    Args:
        graph: The instance graph ``G_k`` whose edges need matrices.
        rho: The coding parameter ``rho_k`` (rows of each matrix).
        symbol_bits: Bits per symbol; the symbol field is ``GF(2^symbol_bits)``.
        seed: Public seed making the scheme deterministic.
        instance: NAB instance number, mixed into the per-edge seed so
            successive instances use fresh matrices.

    Raises:
        ProtocolError: if ``rho`` or ``symbol_bits`` is not positive.
    """
    if rho < 1:
        raise ProtocolError(f"rho must be >= 1, got {rho}")
    if symbol_bits < 1:
        raise ProtocolError(f"symbol_bits must be >= 1, got {symbol_bits}")
    # The shared field instance reuses the lazily built arithmetic tables
    # across instances and schemes (see repro.gf.field.get_field).
    field = get_field(symbol_bits)
    matrices: Dict[Edge, GFMatrix] = {}
    for tail, head, capacity in graph.edges():
        edge = (tail, head)
        matrices[edge] = GFMatrix.random(field, rho, capacity, _edge_seed(seed, instance, edge))
    return CodingScheme(
        field=field,
        rho=rho,
        symbol_bits=symbol_bits,
        matrices=matrices,
        seed=seed,
        instance=instance,
        derived=True,
    )


def encode_value(scheme: CodingScheme, symbols: Sequence[int], edge: Edge) -> List[int]:
    """Compute the coded symbols ``Y_e = X C_e`` a node sends on ``edge``.

    Args:
        scheme: The coding scheme in force.
        symbols: The node's value as a length-``rho`` symbol vector ``X``;
            any sequence type (list, tuple, ...) is accepted.
        edge: The outgoing directed edge.

    Returns:
        A list of ``z_e`` coded symbols.

    Raises:
        ProtocolError: if the symbol vector length does not match ``rho``.
    """
    if len(symbols) != scheme.rho:
        raise ProtocolError(
            f"value has {len(symbols)} symbols but the scheme uses rho={scheme.rho}"
        )
    return scheme.matrix_for(edge).vecmat(symbols)


def encode_on_edges(
    scheme: CodingScheme, symbols: Sequence[int], edges: Sequence[Edge]
) -> Dict[Edge, List[int]]:
    """Encode one symbol vector on several edges in a single stacked pass.

    Equivalent to ``{edge: encode_value(scheme, symbols, edge) for edge in
    edges}`` but the per-edge matrices are concatenated column-wise (cached
    per edge tuple, see :meth:`CodingScheme.combined_matrix`) so the whole
    multi-edge encode is one :meth:`GFMatrix.vecmat` — for big symbol fields
    that is one windowed pass per (symbol, column window) over the combined
    batch instead of one per-edge multiplication loop.  This is how the
    equality check and the dispute-control honesty checks batch a node's
    encodes over all of its incident edges.

    Raises:
        ProtocolError: if the symbol vector length does not match ``rho``.
    """
    if len(symbols) != scheme.rho:
        raise ProtocolError(
            f"value has {len(symbols)} symbols but the scheme uses rho={scheme.rho}"
        )
    edge_tuple = tuple(edges)
    if not edge_tuple:
        return {}
    if len(edge_tuple) == 1:
        return {edge_tuple[0]: scheme.matrix_for(edge_tuple[0]).vecmat(symbols)}
    combined, widths = scheme.combined_matrix(edge_tuple)
    coded = combined.vecmat(symbols)
    result: Dict[Edge, List[int]] = {}
    base = 0
    for edge, width in zip(edge_tuple, widths):
        result[edge] = coded[base : base + width]
        base += width
    return result
