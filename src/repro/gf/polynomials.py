"""Polynomials over GF(2) and irreducible-polynomial construction.

A polynomial over GF(2) is represented as a Python integer whose bit ``i`` is
the coefficient of ``x**i``; e.g. ``0b10011`` is ``x^4 + x + 1``.  The module
provides the basic polynomial ring operations (carry-less multiplication,
Euclidean division, gcd, modular exponentiation) and an irreducibility test
based on the standard criterion

    ``f`` of degree ``m`` is irreducible over GF(2)  iff
    ``x^(2^m) == x  (mod f)``  and
    ``gcd(x^(2^(m/p)) - x, f) == 1`` for every prime ``p`` dividing ``m``.

(Rabin's irreducibility test.)  A table of low-weight irreducible polynomials
for common degrees is included so that field construction is deterministic and
fast for the sizes used throughout the library; degrees not in the table fall
back to a deterministic search.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.exceptions import FieldError

# Low-weight (trinomial / pentanomial) irreducible polynomials over GF(2).
# Keys are degrees; values are the full polynomial including the leading term,
# encoded as integers.  Entries follow the standard tables (e.g. HP-HDL /
# Seroussi "Table of low-weight binary irreducible polynomials").  Exponents
# listed are those of the non-leading, non-constant terms.
_LOW_WEIGHT_EXPONENTS: Dict[int, List[int]] = {
    1: [],
    2: [1],
    3: [1],
    4: [1],
    5: [2],
    6: [1],
    7: [1],
    8: [4, 3, 1],
    9: [1],
    10: [3],
    11: [2],
    12: [3],
    13: [4, 3, 1],
    14: [5],
    15: [1],
    16: [5, 3, 1],
    17: [3],
    18: [3],
    19: [5, 2, 1],
    20: [3],
    21: [2],
    22: [1],
    23: [5],
    24: [4, 3, 1],
    25: [3],
    26: [4, 3, 1],
    27: [5, 2, 1],
    28: [1],
    29: [2],
    30: [1],
    31: [3],
    32: [7, 3, 2],
    33: [10],
    34: [7],
    35: [2],
    36: [9],
    40: [5, 4, 3],
    48: [5, 3, 2],
    56: [7, 4, 2],
    64: [4, 3, 1],
    80: [9, 4, 2],
    96: [10, 9, 6],
    128: [7, 2, 1],
    160: [5, 3, 2],
    192: [15, 11, 5],
    256: [10, 5, 2],
    512: [8, 5, 2],
    1024: [19, 6, 1],
    # Degrees used by the multi-KB payload grids (the equality-check field is
    # GF(2^ceil(L / rho)); see the `large_payloads` spec).  Found with the
    # deterministic search below and verified by Rabin's test; entries of
    # degree > 4096 are spot-checked in the default test run and fully
    # re-verified under REPRO_SLOW_TESTS=1 (tests/test_gf_tables.py).
    1093: [7, 6, 1],
    2048: [19, 14, 13],
    2185: [51],
    2731: [15, 11, 2],
    4096: [27, 15, 1],
    4370: [26, 15, 11],
    5462: [15, 11, 1],
    8192: [9, 5, 2],
    8739: [28, 20, 2],
    10923: [38, 17, 10],
    16384: [43, 13, 6],
    21846: [1],
}


def poly_degree(poly: int) -> int:
    """Return the degree of ``poly``; the zero polynomial has degree ``-1``."""
    return poly.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less (XOR) multiplication of two GF(2) polynomials.

    Bit-serial; retained as the correctness oracle for
    :func:`poly_mul_windowed` and the table-driven field kernels.
    """
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def window_table(a: int) -> List[int]:
    """The 8-bit window table of ``a``: ``table[w] == poly_mul(a, w)``.

    Built from a 4-bit table in two strides so construction costs ~270 small
    XOR/shift operations instead of 256 incremental doublings.  The table is
    what :func:`poly_mul_windowed` scans one byte at a time;
    :class:`repro.gf.field.GF2m` additionally caches tables per multiplicand
    so repeated products against one value (the row-times-matrix pattern of
    the equality check) skip the build entirely.
    """
    low = [0] * 16
    low[1] = a
    for index in range(2, 16):
        low[index] = (low[index >> 1] << 1) ^ low[index & 1]
    high = [entry << 4 for entry in low]
    return [h ^ l for h in high for l in low]


def poly_mul_windowed(a: int, b: int) -> int:
    """Windowed carry-less multiplication: one shift/XOR per 8-bit window.

    Precomputes the window table of shifted multiples of the longer operand
    (4-bit windows combined pairwise for short operands, a full 8-bit table
    when the scan is long enough to amortise the build) and folds the other
    operand into the product byte by byte.  Identical results to
    :func:`poly_mul`, several times faster for operands beyond a few dozen
    bits, which is what makes ``GF(2^m)`` arithmetic for multi-KB payload
    symbols (degrees in the thousands) affordable.
    """
    if not a or not b:
        return 0
    if a.bit_length() < b.bit_length():
        a, b = b, a
    raw = b.to_bytes((b.bit_length() + 7) // 8, "big")
    result = 0
    if len(raw) >= 48:
        table = window_table(a)
        for byte in raw:
            result = (result << 8) ^ table[byte]
    else:
        low = [0] * 16
        low[1] = a
        for index in range(2, 16):
            low[index] = (low[index >> 1] << 1) ^ low[index & 1]
        for byte in raw:
            result = (result << 8) ^ (low[byte >> 4] << 4) ^ low[byte & 15]
    return result


def stack_stride(degree_a: int, degree_b: int) -> int:
    """Byte-aligned slot stride (bits) for stacking operands of bounded degree.

    Guard-spacing rule: a slot must hold the full carry-less product of one
    packed value (degree ``< degree_a``) with the shared factor (degree
    ``< degree_b``), i.e. ``degree_a + degree_b - 1`` bits, so neighbouring
    slots can never overlap — XOR has no carries, so guard bits are only
    needed against the product's own width, not against accumulation.  The
    stride is rounded up to a whole number of bytes so packing and splitting
    are single ``int.to_bytes`` / ``int.from_bytes`` passes.
    """
    if degree_a < 1 or degree_b < 1:
        raise FieldError("stack_stride requires positive operand degrees")
    return 8 * ((degree_a + degree_b - 1 + 7) // 8)


def stack_slots(values: List[int], stride_bits: int) -> int:
    """Pack ``values`` into one big integer, one ``stride_bits``-wide slot each.

    Slot 0 (the first value) occupies the *most significant* slot, matching
    big-endian byte order, so ``unstack_slots`` is a straight byte slice.
    The caller guarantees every value fits its slot (see :func:`stack_stride`).
    """
    if stride_bits % 8:
        raise FieldError(f"stride must be byte-aligned, got {stride_bits} bits")
    if not values:
        return 0
    width = stride_bits // 8
    return int.from_bytes(
        b"".join(value.to_bytes(width, "big") for value in values), "big"
    )


def unstack_slots(stacked: int, stride_bits: int, count: int) -> List[int]:
    """Split a stacked integer back into its ``count`` per-slot values."""
    if stride_bits % 8:
        raise FieldError(f"stride must be byte-aligned, got {stride_bits} bits")
    if count < 1:
        return []
    width = stride_bits // 8
    raw = stacked.to_bytes(count * width, "big")
    return [
        int.from_bytes(raw[index * width : (index + 1) * width], "big")
        for index in range(count)
    ]


def poly_mul_stacked(values: List[int], factor: int, stride_bits: int) -> List[int]:
    """Multiply every value by a shared ``factor`` in one windowed pass.

    The SIMD-within-a-bigint trick: carry-less multiplication distributes
    over concatenation, so ``k`` operands packed at ``stride_bits`` spacing
    (wide enough for each product, per :func:`stack_stride`) times ``factor``
    is a *single* :func:`poly_mul_windowed` call whose result splits back
    into the ``k`` raw (unreduced) products.  Equivalent to
    ``[poly_mul(v, factor) for v in values]``, against which it is
    property-tested; callers reduce the raw products afterwards (usually via
    :func:`poly_reduce_stacked` to amortise the fold pass too).
    """
    if not values:
        return []
    if factor == 0:
        return [0] * len(values)
    stacked = stack_slots(values, stride_bits)
    return unstack_slots(poly_mul_windowed(stacked, factor), stride_bits, len(values))


#: (degree, stride_bits, count) -> (low mask, high mask) for the stacked fold.
_STACK_MASK_CACHE: Dict[Tuple[int, int, int], Tuple[int, int]] = {}


def _stack_masks(degree: int, stride_bits: int, count: int) -> Tuple[int, int]:
    """Repeating per-slot masks: low ``degree`` bits and the overflow above them."""
    key = (degree, stride_bits, count)
    cached = _STACK_MASK_CACHE.get(key)
    if cached is None:
        low_slot = (1 << degree) - 1
        high_slot = ((1 << (stride_bits - degree)) - 1) << degree
        low = 0
        high = 0
        for _ in range(count):
            low = (low << stride_bits) | low_slot
            high = (high << stride_bits) | high_slot
        cached = _STACK_MASK_CACHE[key] = (low, high)
    return cached


def poly_reduce_stacked(
    stacked: int, table: ReductionTable, stride_bits: int, count: int
) -> int:
    """Reduce every slot of a stacked raw product in whole-integer folds.

    The same ``x^m == g`` folding as :func:`poly_reduce`, but applied to all
    ``count`` slots at once: one masked extraction pulls every slot's
    overflow down to its slot base, and each fold shift (``deg(g) <= m/2``,
    enforced by :func:`reduction_table`) keeps the folded bits inside their
    own slot because the stride leaves ``>= m - 1`` guard bits above the low
    ``m``.  Returns the still-stacked reduced value (every slot ``< 2^m``);
    equivalent to reducing each slot separately with :func:`poly_reduce`.
    """
    degree, _mask, exponents = table
    low_mask, high_mask = _stack_masks(degree, stride_bits, count)
    high = (stacked & high_mask) >> degree
    while high:
        stacked &= low_mask
        for exponent in exponents:
            stacked ^= high << exponent
        high = ((stacked & high_mask)) >> degree
    return stacked


def _build_square_bytes() -> List[bytes]:
    """Little-endian 16-bit bit-spreads of every byte (squaring over GF(2))."""
    table: List[bytes] = []
    for byte in range(256):
        spread = 0
        for bit in range(8):
            if byte & (1 << bit):
                spread |= 1 << (2 * bit)
        table.append(spread.to_bytes(2, "little"))
    return table


#: byte -> 2-byte spread used by :func:`poly_square` (squaring interleaves
#: each bit with a zero, so it is a per-byte table lookup, not a multiply).
_SQUARE_BYTES: List[bytes] = _build_square_bytes()


def poly_square(a: int) -> int:
    """Squaring over GF(2): spread every bit of ``a`` apart with zeros.

    Equivalent to ``poly_mul(a, a)`` but linear-time: the square of a GF(2)
    polynomial has no cross terms, so it is a pure bit interleave done here
    one byte at a time through a precomputed spread table.
    """
    if not a:
        return 0
    raw = a.to_bytes((a.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join(map(_SQUARE_BYTES.__getitem__, raw)), "little")


#: (degree, mask, fold shift amounts): see :func:`reduction_table`.
ReductionTable = Tuple[int, int, Tuple[int, ...]]

#: Reduction tables are only built for moduli whose non-leading part is this
#: sparse; denser moduli fall back to Euclidean division.
_REDUCTION_MAX_WEIGHT = 12


def reduction_table(modulus: int) -> ReductionTable | None:
    """Precomputed chunked-reduction table for a fixed low-weight modulus.

    For ``modulus = x^m + g`` the identity ``x^m == g  (mod modulus)`` lets a
    product ``P`` be reduced by folding its overflow ``H = P >> m`` back in as
    ``(P mod x^m) xor H * g``; when ``g`` is sparse, ``H * g`` is just a few
    shifted copies of ``H``.  The returned table is ``(m, 2^m - 1, exponents
    of g)``.  Returns ``None`` when the modulus is too dense or its ``g``
    part too high-degree for the fold to converge quickly (callers then use
    :func:`poly_mod`).  All tabulated and searched irreducible polynomials in
    this module are trinomials/pentanomials, so the fast path is the norm.
    """
    degree = poly_degree(modulus)
    if degree < 1:
        return None
    tail = modulus ^ (1 << degree)
    if tail == 0 or tail.bit_count() > _REDUCTION_MAX_WEIGHT:
        return None
    if poly_degree(tail) > degree // 2:
        # Each fold must strip at least half the overflow, so reduction of a
        # full product (degree <= 2m - 2) finishes in <= 3 folds.
        return None
    exponents = []
    while tail:
        lowest = tail & -tail
        exponents.append(lowest.bit_length() - 1)
        tail ^= lowest
    return degree, (1 << degree) - 1, tuple(exponents)


def poly_reduce(value: int, table: ReductionTable) -> int:
    """Reduce ``value`` modulo the fixed modulus described by ``table``.

    Chunked reduction: repeatedly fold the overflow above ``x^m`` back into
    the low part through the precomputed shift amounts.  Identical to
    ``poly_mod(value, modulus)``; tested against it property-style.
    """
    degree, mask, exponents = table
    high = value >> degree
    while high:
        value &= mask
        for exponent in exponents:
            value ^= high << exponent
        high = value >> degree
    return value


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Euclidean division of polynomial ``a`` by ``b`` over GF(2).

    Returns:
        ``(quotient, remainder)`` with ``a == quotient * b xor remainder`` and
        ``deg(remainder) < deg(b)``.

    Raises:
        FieldError: if ``b`` is the zero polynomial.
    """
    if b == 0:
        raise FieldError("polynomial division by zero")
    deg_b = poly_degree(b)
    quotient = 0
    remainder = a
    while poly_degree(remainder) >= deg_b:
        shift = poly_degree(remainder) - deg_b
        quotient ^= 1 << shift
        remainder ^= b << shift
    return quotient, remainder


def poly_mod(a: int, b: int) -> int:
    """Return ``a mod b`` in the polynomial ring over GF(2)."""
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials (monic by nature)."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Return ``a * b mod modulus`` over GF(2).

    Uses the windowed multiply (squaring shortcut when ``a == b``) plus
    chunked reduction when the modulus is sparse enough, falling back to the
    bit-serial multiply-and-divide otherwise.
    """
    table = reduction_table(modulus)
    if table is None:
        return poly_mod(poly_mul(a, b), modulus)
    product = poly_square(a) if a == b else poly_mul_windowed(a, b)
    return poly_reduce(product, table)


def poly_powmod(base: int, exponent: int, modulus: int) -> int:
    """Return ``base ** exponent mod modulus`` over GF(2) by square-and-multiply."""
    result = 1
    base = poly_mod(base, modulus)
    while exponent:
        if exponent & 1:
            result = poly_mulmod(result, base, modulus)
        base = poly_mulmod(base, base, modulus)
        exponent >>= 1
    return result


def _prime_factors(n: int) -> Iterable[int]:
    """Yield the distinct prime factors of ``n`` in increasing order."""
    factor = 2
    while factor * factor <= n:
        if n % factor == 0:
            yield factor
            while n % factor == 0:
                n //= factor
        factor += 1
    if n > 1:
        yield n


def _sqrmod(value: int, modulus: int, table: ReductionTable | None) -> int:
    """One modular squaring step, through the fast path when available."""
    if table is not None:
        return poly_reduce(poly_square(value), table)
    return poly_mod(poly_square(value), modulus)


def is_irreducible(poly: int) -> bool:
    """Return ``True`` iff ``poly`` is irreducible over GF(2).

    Uses Rabin's irreducibility test.  Polynomials of degree 0 (constants) are
    not considered irreducible; degree-1 polynomials always are.  The repeated
    squarings ``x -> x^2 -> x^4 -> ...`` run through :func:`poly_square` and
    the chunked reduction, which keeps the test usable for the multi-thousand
    bit degrees the large-payload equality check works in.
    """
    m = poly_degree(poly)
    if m <= 0:
        return False
    if m == 1:
        return True
    table = reduction_table(poly)
    # x^(2^m) mod poly must equal x.
    x = 0b10
    power = x
    for _ in range(m):
        power = _sqrmod(power, poly, table)
    if power != x:
        return False
    # gcd(x^(2^(m/p)) - x, poly) must be 1 for every prime p | m.
    for p in _prime_factors(m):
        power = x
        for _ in range(m // p):
            power = _sqrmod(power, poly, table)
        if poly_gcd(power ^ x, poly) != 1:
            return False
    return True


def _has_small_degree_factor(poly: int, depth: int = 14) -> bool:
    """Whether ``poly`` provably has an irreducible factor of degree ``<= depth``.

    ``x^(2^k) - x`` is the product of all irreducibles whose degree divides
    ``k``; accumulating ``prod_k (x^(2^k) - x) mod poly`` for ``k`` in the
    upper half of ``1..depth`` covers every degree up to ``depth`` (each small
    ``d`` divides some ``k`` in that range) with a single gcd at the end.
    Used as a cheap pre-filter by the irreducible search: a full Rabin test
    costs ``deg(poly)`` squarings even on a reducible candidate, while ~96% of
    random candidates are rejected here after ``depth`` squarings.
    """
    m = poly_degree(poly)
    if m <= depth:
        return False
    table = reduction_table(poly)
    x = 0b10
    power = x
    product = 1
    for k in range(1, depth + 1):
        power = _sqrmod(power, poly, table)
        if 2 * k > depth:
            term = power ^ x
            if table is not None:
                product = poly_reduce(poly_mul_windowed(product, term), table)
            else:
                product = poly_mod(poly_mul_windowed(product, term), poly)
    if product == 0:
        return True
    return poly_gcd(product, poly) != 1


def _poly_from_exponents(degree: int, exponents: List[int]) -> int:
    """Build ``x^degree + sum(x^e for e in exponents) + 1`` as an integer."""
    poly = (1 << degree) | 1
    for exponent in exponents:
        poly |= 1 << exponent
    return poly


def irreducible_polynomial(degree: int) -> int:
    """Return a deterministic irreducible polynomial of the given ``degree``.

    For degrees present in the built-in low-weight table the tabulated
    polynomial is returned (after a sanity irreducibility check, cached on
    first use).  Other degrees are handled by a deterministic search over
    polynomials of increasing weight, which is fast for the degrees used in
    practice (up to a few thousand bits).

    Raises:
        FieldError: if ``degree < 1``.
    """
    if degree < 1:
        raise FieldError(f"field degree must be >= 1, got {degree}")
    cached = _IRREDUCIBLE_CACHE.get(degree)
    if cached is not None:
        return cached
    if degree in _LOW_WEIGHT_EXPONENTS:
        # The tabulated entries are fixed constants; every entry (including
        # the large degrees) is verified by
        # tests/test_gf_tables.py::test_tabulated_irreducible_polynomials_are_irreducible.
        # Re-running the Rabin test here cost ~1s per process for the large
        # degrees (256, 1024) the equality check uses for big payloads.
        poly = _poly_from_exponents(degree, _LOW_WEIGHT_EXPONENTS[degree])
        _IRREDUCIBLE_CACHE[degree] = poly
        return poly
    poly = _search_irreducible(degree)
    _IRREDUCIBLE_CACHE[degree] = poly
    return poly


def _search_irreducible(degree: int) -> int:
    """Deterministically search for an irreducible polynomial of ``degree``.

    Tries trinomials ``x^degree + x^k + 1`` first, then pentanomials
    ``x^degree + x^a + x^b + x^c + 1`` in lexicographic order.  Every binary
    field of degree ``>= 2`` admits either a trinomial or pentanomial basis in
    all practically relevant cases; as a final fallback the search widens to
    arbitrary odd-weight polynomials.  Candidates are screened with the
    small-degree-factor pre-filter before paying for a full Rabin test, which
    makes the search tractable even for degrees in the tens of thousands.
    """
    if degree % 8 != 0:
        # Swan's theorem: a trinomial whose degree is divisible by 8 has an
        # even number of irreducible factors, hence is never irreducible —
        # skip the whole trinomial scan for those degrees.
        for k in range(1, degree):
            poly = (1 << degree) | (1 << k) | 1
            if not _has_small_degree_factor(poly) and is_irreducible(poly):
                return poly
    for a in range(3, degree):
        for b in range(2, a):
            for c in range(1, b):
                poly = (1 << degree) | (1 << a) | (1 << b) | (1 << c) | 1
                if not _has_small_degree_factor(poly) and is_irreducible(poly):
                    return poly
    # Extremely unlikely fallback: scan all polynomials with constant term 1.
    candidate = (1 << degree) | 1
    limit = 1 << (degree + 1)
    while candidate < limit:  # pragma: no cover - never reached for real degrees
        if is_irreducible(candidate):
            return candidate
        candidate += 2
    raise FieldError(f"no irreducible polynomial of degree {degree} found")  # pragma: no cover


_IRREDUCIBLE_CACHE: Dict[int, int] = {}
