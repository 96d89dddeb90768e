"""The binary extension field ``GF(2^m)``.

Elements are represented as plain Python integers in ``[0, 2^m)`` interpreted
as polynomials over GF(2) reduced modulo a fixed irreducible polynomial of
degree ``m``.  Keeping elements as bare integers (rather than wrapping each in
an object) keeps matrix algebra over the field reasonably fast in pure Python
and makes (de)serialisation to bit strings trivial, which is exactly what the
equality-check protocol needs.

Performance notes:
    For degrees ``m <= 16`` (the symbol sizes all the hot equality-check and
    verification paths actually use), the field lazily builds discrete
    log / antilog tables on first multiplicative use, after which ``mul`` /
    ``inv`` / ``div`` / ``pow`` / ``square`` are plain list lookups.
    The tables are shared process-wide through a module-level cache keyed on
    ``(degree, modulus)``, so constructing many ``GF2m(8)`` instances (one per
    NAB instance, say) pays the table build exactly once.  Larger degrees run
    their carry-less products on the kernel backend (:mod:`repro.gf.backends`:
    ``native`` where it builds, ``windowed`` elsewhere) with chunked modular
    reduction; the bit-serial polynomial arithmetic they replaced is frozen in
    ``tests/_oracles/gf.py`` as their correctness oracle.  :func:`get_field`
    returns a canonical cached instance per ``(degree, modulus)`` for callers
    that construct fields in a loop.

Example:
    >>> field = GF2m(8)
    >>> field.mul(0x53, 0xCA)      # AES field uses a different modulus, value differs
    ... # doctest: +SKIP
    >>> field.mul(field.inv(7), 7)
    1
"""

from __future__ import annotations

import random
import sys
from typing import Dict, List, Tuple

from repro.exceptions import FieldError
from repro.gf import backends as _backends
from repro.gf.polynomials import (
    ReductionTable,
    _prime_factors,
    irreducible_polynomial,
    is_irreducible,
    poly_degree,
    poly_mod,
    poly_reduce,
    poly_reduce_stacked,
    poly_square,
    reduction_table,
    stack_stride,
    unstack_slots,
    window_table,
)

#: Total memory budget (bytes, approximate) for one field's cache of per-
#: multiplicand window tables; each table holds 256 shifted multiples of one
#: element, i.e. ~``32 * degree`` bytes.
_WINDOW_CACHE_BYTES = 4 << 20

#: Memory budget for one field's cache of *stacked* window tables (tables of
#: whole packed symbol batches, e.g. a coding-matrix row); entries are
#: ``256 * packed_bytes`` each and an individual entry larger than a quarter
#: of the budget is never cached (built per call instead).
_STACK_CACHE_BYTES = 8 << 20

#: Upper bound on the packed size of one stacked window, which caps how many
#: symbols ride in a single windowed pass; the slot cap is additionally
#: clamped to 64 slots (diminishing interpreter-amortisation returns).
_STACK_WINDOW_BYTES = 1 << 16

#: ``sys.getsizeof`` of a window table's list, the part of its cost that does
#: not grow with the operand: 256 entries appended one by one, as
#: :func:`~repro.gf.polynomials.window_table` builds them.
_TABLE_LIST_BYTES = sys.getsizeof([0 for _ in range(256)])


def _window_table_bytes(bits: int) -> int:
    """What the cache charges for the window table of a ``bits``-bit operand, at most.

    The same measure the retention checks take (``sys.getsizeof`` of the
    list plus each entry, so int headers and 30-bit digits count), bounded
    by giving every entry the ``bits + 7`` bits of the widest one.
    """
    return _TABLE_LIST_BYTES + 256 * sys.getsizeof(1 << (bits + 6))


# Largest degree for which log/antilog tables are built (2^16 entries tops).
_TABLE_MAX_DEGREE = 16

# (degree, modulus) -> (exp, log, inv) lookup tables, shared by all instances
# of the same field so the build is paid once per process: ~12 ms at degree
# 16 (an order test and one linear walk), and each forked worker pays it again
# in its first session over that field.
_TABLE_CACHE: Dict[Tuple[int, int], Tuple[List[int], List[int], List[int]]] = {}

# (degree, modulus) -> canonical GF2m instance (see get_field).
_FIELD_CACHE: Dict[Tuple[int, int], "GF2m"] = {}

_heap_retained = False


def _retain_heap() -> None:
    """Stop glibc handing the top of the heap back between window tables.

    A stacked window table is 256 integers, 1-2 MB together, built on top of
    the heap and (fresh coding matrices every instance) used for one scan;
    the table cache fills and is dropped whole.  glibc trims a free heap top
    above 128 KB, so the next builds page-fault those megabytes back in: 720
    tables, 215 000 faults and 0.28 s of system time in a 0.64 s
    ``mid_field`` batch (4 KB payloads, degree 2185), and that half is what a
    busy host slows and scatters.  Pinning the trim and mmap thresholds where
    glibc's own dynamic adjustment tops out (64 MB, 32 MB) keeps the pages;
    the peak is unchanged because nothing new is allocated.  Called once,
    with the first big field; a no-op where the C library has no ``mallopt``.
    """
    global _heap_retained
    if _heap_retained:
        return
    _heap_retained = True
    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's 64-bit maximum
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _mulmod(a: int, b: int, degree: int, modulus: int) -> int:
    """``a * b mod modulus`` for ``a, b < 2^degree``, by shift and add."""
    top = 1 << degree
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return product


def _generates(candidate: int, cofactors: List[int], degree: int, modulus: int) -> bool:
    """Whether ``candidate`` generates the multiplicative group of the field.

    ``cofactors`` are the quotients ``(2^degree - 1) / p`` over the primes
    ``p`` dividing the group order; ``candidate`` has the full order iff no
    power of it by a cofactor is 1.  Each power is a square-and-multiply.
    """
    for exponent in cofactors:
        power, base = 1, candidate
        while exponent:
            if exponent & 1:
                power = _mulmod(power, base, degree, modulus)
            base = _mulmod(base, base, degree, modulus)
            exponent >>= 1
        if power == 1:
            return False
    return True


def _span(basis: List[int]) -> List[int]:
    """Every XOR combination of ``basis``: the one of bit mask ``b`` is at index ``b``."""
    span = [0]
    for vector in basis:
        span += [combination ^ vector for combination in span]
    return span


def _build_tables(degree: int, modulus: int) -> Tuple[List[int], List[int], List[int]]:
    """Build ``(exp, log, inv)`` tables for the field ``GF(2^degree)``.

    The generator is the smallest ``c >= 2`` of full order, found by the
    order test of :func:`_generates` rather than by walking each candidate's
    cycle, so the tables equal those of that walk (frozen as
    ``tests/_oracles/gf.py::build_tables_by_walk``).  ``exp`` is then the
    generator's powers: multiplying by the generator is linear over GF(2),
    so each step is two lookups, in the tables of its products with every
    low byte and every high byte (spanned by ``generator * x^i mod
    modulus``).  ``log`` and ``inv`` are filled from the powers in one pass.

    ``exp`` holds two copies of the antilog table back to back so that
    ``exp[log[a] + log[b]]`` never needs a ``% (order - 1)`` reduction.
    ``log[0]`` and ``inv[0]`` are unused placeholders (zero has neither).
    """
    order = 1 << degree
    group = order - 1
    if group == 1:
        return [1, 1], [0, 0], [0, 1]
    cofactors = [group // prime for prime in _prime_factors(group)]
    for generator in range(2, order):
        if _generates(generator, cofactors, degree, modulus):
            break
    else:  # pragma: no cover - impossible for an irreducible modulus
        raise FieldError(f"no generator found for GF(2^{degree})")
    basis = [generator]
    for _ in range(degree - 1):
        shifted = basis[-1] << 1
        basis.append(shifted ^ modulus if shifted & order else shifted)
    low, high = _span(basis[:8]), _span(basis[8:])
    powers = [1]
    append = powers.append
    value = 1
    for _ in range(group - 1):
        value = low[value & 0xFF] ^ high[value >> 8]
        append(value)
    exp = powers + powers
    log = [0] * order
    inv = [0] * order
    for index, element in enumerate(powers):
        log[element] = index
        inv[element] = exp[group - index]
    return exp, log, inv


def get_field(
    degree: int, modulus: int | None = None, kernel_backend: str | None = None
) -> "GF2m":
    """A canonical shared :class:`GF2m` instance for ``(degree, modulus)``.

    Repeated calls with the same parameters return the *same* object, so its
    lazily built arithmetic tables (and any caller-side caches keyed on
    identity) are reused across coding schemes, instances and benchmarks.

    The kernel backend (see :mod:`repro.gf.backends`) is resolved when the
    canonical instance is first constructed and is *sticky* thereafter:
    later calls — even under a different ``REPRO_GF_BACKEND`` environment —
    return the already-built field unchanged.  Passing ``kernel_backend``
    explicitly for a field that was canonicalised with a different backend
    raises, rather than silently returning the other kernel.

    Raises:
        FieldError: on an invalid degree/modulus, an unknown or unavailable
            backend name, or a backend conflict with the cached instance.
    """
    if degree < 1:
        raise FieldError(f"field degree must be >= 1, got {degree}")
    if kernel_backend:
        # Before the cache lookup, so a hit cannot skip it.
        _backends.backend_class(kernel_backend)
    default = modulus is None
    if default:
        # Resolve the default modulus for the cache key (a cheap cached
        # table lookup), so the None-spelling and the explicit-spelling of
        # the same field share one canonical instance regardless of call
        # order.
        modulus = irreducible_polynomial(degree)
    key = (degree, modulus)
    field = _FIELD_CACHE.get(key)
    if field is None:
        # Construct through the default path when the caller did not supply
        # a modulus: an explicit modulus is re-validated for irreducibility,
        # which is prohibitively slow for large degrees.
        if default:
            field = GF2m(degree, kernel_backend=kernel_backend)
        else:
            field = GF2m(degree, modulus, kernel_backend=kernel_backend)
        _FIELD_CACHE[key] = field
    elif kernel_backend and field._big and field.kernel_backend_name() != kernel_backend:
        raise FieldError(
            f"GF(2^{degree}) is already canonicalised with kernel backend "
            f"{field.kernel_backend_name()!r}; per-field backend selection is "
            f"sticky (requested {kernel_backend!r})"
        )
    return field


class GF2m:
    """The finite field with ``2^m`` elements.

    Args:
        degree: The extension degree ``m >= 1``.
        modulus: Optional irreducible polynomial of degree ``m`` (encoded as an
            integer bit mask).  If omitted, a deterministic low-weight
            irreducible polynomial is used, so two ``GF2m(m)`` instances are
            always the *same* field and interoperable.
        kernel_backend: Optional kernel backend name (see
            :mod:`repro.gf.backends`) for the big-field carry-less multiply;
            omitted, the ``REPRO_GF_BACKEND`` environment variable and then
            :func:`repro.gf.backends.auto_backend_name` decide.  Ignored for degrees <= 16,
            which run on log/antilog tables.

    Raises:
        FieldError: if the degree is not positive, the supplied modulus is
            not an irreducible polynomial of the requested degree, or the
            backend name is unknown/unavailable.
    """

    __slots__ = (
        "degree",
        "modulus",
        "order",
        "_exp",
        "_log",
        "_inv_t",
        "_redtab",
        "_wtab",
        "_wtab_bytes",
        "_big",
        "_stride",
        "_slot_cap",
        "_swtab",
        "_swtab_bytes",
        "_kernel",
        "_clmul",
        "_kstats",
    )

    def __init__(
        self,
        degree: int,
        modulus: int | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        if degree < 1:
            raise FieldError(f"field degree must be >= 1, got {degree}")
        if modulus is None:
            modulus = irreducible_polynomial(degree)
        else:
            if poly_degree(modulus) != degree:
                raise FieldError(
                    f"modulus degree {poly_degree(modulus)} does not match field degree {degree}"
                )
            if not is_irreducible(modulus):
                raise FieldError(f"modulus {modulus:#x} is not irreducible")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        # Lazily populated log/antilog/inverse tables (degree <= 16 only).
        self._exp: List[int] | None = None
        self._log: List[int] | None = None
        self._inv_t: List[int] | None = None
        # Big-field kernel state (degree > 16): the precomputed chunked-
        # reduction table for the fixed modulus (``False`` when the modulus is
        # too dense, meaning reduce falls back to division) and a bounded
        # cache of per-multiplicand window tables.
        self._redtab: ReductionTable | bool | None = None
        self._wtab: Dict[int, List[int]] = {}
        self._wtab_bytes = 0
        self._big = degree > _TABLE_MAX_DEGREE
        # hits / misses / evictions for the window and stacked table caches.
        self._kstats = {"window": [0, 0, 0], "stacked": [0, 0, 0]}
        # Stacked-kernel geometry (degree > 16): slot stride wide enough for
        # one raw product (guard-spacing rule, see polynomials.stack_stride),
        # the per-window slot cap, and the stacked window-table cache.  When
        # clamping the window to the cache's per-entry budget still leaves a
        # useful batch (>= 4 slots), prefer cacheable windows so recurring
        # operands (coding-matrix rows) pay their table build once; at very
        # large degrees, where even small windows exceed the entry budget,
        # keep the wider window — the fused scan amortisation is then worth
        # more than the (impossible) caching.  A window's table is sized the
        # way ``_stacked_table`` measures it (``_window_table_bytes``); its
        # top slot holds a value below ``2^degree``.
        self._stride = stack_stride(degree, degree)
        window_slots = max(1, min(_STACK_WINDOW_BYTES // (self._stride // 8), 64))
        cacheable_slots = window_slots
        while (
            cacheable_slots
            and _window_table_bytes((cacheable_slots - 1) * self._stride + degree)
            > _STACK_CACHE_BYTES // 4
        ):
            cacheable_slots -= 1
        self._slot_cap = cacheable_slots if cacheable_slots >= 4 else window_slots
        self._swtab: Dict[int, List[int]] = {}
        self._swtab_bytes = 0
        # Kernel backend (big fields only): resolved once, sticky for the
        # life of the instance; the raw product is bound here so the hot
        # paths pay no per-call selection logic.  The windowed machinery
        # stays on the field itself.
        if self._big:
            _retain_heap()
            self._kernel = _backends.create_backend(self, kernel_backend)
            if self._kernel.name == "windowed":
                self._clmul = self._windowed_clmul
            else:
                self._clmul = self._kernel.clmul
        else:
            if kernel_backend:
                # Validate the name even though small fields run on tables.
                _backends.backend_class(kernel_backend)
            self._kernel = None
            self._clmul = None

    # ------------------------------------------------------------------ tables

    def _ensure_tables(self) -> bool:
        """Build (or fetch from the shared cache) the lookup tables.

        Returns ``True`` iff tables are available for this field's degree.
        """
        if self._exp is not None:
            return True
        if self.degree > _TABLE_MAX_DEGREE:
            return False
        key = (self.degree, self.modulus)
        tables = _TABLE_CACHE.get(key)
        if tables is None:
            tables = _build_tables(self.degree, self.modulus)
            _TABLE_CACHE[key] = tables
        self._exp, self._log, self._inv_t = tables
        return True

    def tables(self) -> Tuple[List[int], List[int], List[int]] | None:
        """The ``(exp, log, inv)`` lookup tables, or ``None`` for large degrees.

        The ``exp`` table is doubled in length so ``exp[log[a] + log[b]]``
        is valid without reduction; ``log[0]`` / ``inv[0]`` are placeholders.
        Hot matrix kernels bind these lists locally to skip per-element
        method dispatch.
        """
        if self._ensure_tables():
            return self._exp, self._log, self._inv_t  # type: ignore[return-value]
        return None

    # ------------------------------------------------------------------ basics

    def validate(self, element: int) -> int:
        """Return ``element`` unchanged after checking it lies in the field.

        Raises:
            FieldError: if ``element`` is not an integer in ``[0, 2^m)``.
        """
        if not isinstance(element, int) or isinstance(element, bool):
            raise FieldError(f"field elements must be ints, got {type(element).__name__}")
        if element < 0 or element >= self.order:
            raise FieldError(f"element {element} outside field of order {self.order}")
        return element

    # -------------------------------------------------------------- arithmetic

    def add(self, a: int, b: int) -> int:
        """Field addition (bitwise XOR)."""
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        """Field subtraction; identical to addition in characteristic 2."""
        return a ^ b

    def neg(self, a: int) -> int:
        """Additive inverse; every element is its own negative."""
        return a

    def mul(self, a: int, b: int) -> int:
        """Field multiplication (log/antilog lookup, or the windowed kernel)."""
        if a == 0 or b == 0:
            return 0
        if self._big:
            return self._mul_big(a, b)
        log = self._log
        if log is None:
            self._ensure_tables()
            log = self._log
        return self._exp[log[a] + log[b]]  # type: ignore[index]

    # ------------------------------------------------------- big-field kernels

    def _reduction(self) -> ReductionTable | bool:
        """The cached chunked-reduction table (``False``: modulus too dense)."""
        redtab = self._redtab
        if redtab is None:
            built = reduction_table(self.modulus)
            redtab = self._redtab = built if built is not None else False
        return redtab

    def _reduce(self, value: int) -> int:
        """Reduce a raw carry-less product modulo the field modulus."""
        redtab = self._redtab
        if redtab is None:
            redtab = self._reduction()
        if redtab is False:
            return poly_mod(value, self.modulus)
        return poly_reduce(value, redtab)  # type: ignore[arg-type]

    def _window_table_for(self, a: int) -> List[int]:
        """The 8-bit window table of ``a``, through the per-field cache.

        The cache is keyed on the multiplicand value; the equality-check
        encoding multiplies each symbol of a node's value against many coding
        matrices, so the handful of live symbols stay warm while the table
        build amortises away.  Accounting is by *actual* byte size
        (``sys.getsizeof`` summed over the table's entries, so sparse or
        short multiplicands are charged what they cost, not a degree-scaled
        estimate); the cache is dropped wholesale when the next table would
        overflow the budget.
        """
        cache = self._wtab
        stats = self._kstats["window"]
        table = cache.get(a)
        if table is None:
            stats[1] += 1
            table = window_table(a)
            cost = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
            if self._wtab_bytes + cost > _WINDOW_CACHE_BYTES:
                cache.clear()
                self._wtab_bytes = 0
                stats[2] += 1
            cache[a] = table
            self._wtab_bytes += cost
        else:
            stats[0] += 1
        return table

    def _windowed_clmul(self, a: int, b: int) -> int:
        """The windowed raw product: byte scan against a cached window table.

        Scans one operand byte-by-byte against the cached window table of the
        other; prefers whichever operand already has a table cached.  This is
        the ``windowed`` backend's primitive.
        """
        table = self._wtab.get(a)
        if table is None and b in self._wtab:
            a, b = b, a
            table = self._wtab[a]
        if table is None:
            table = self._window_table_for(a)
        else:
            self._kstats["window"][0] += 1
        product = 0
        for byte in b.to_bytes((b.bit_length() + 7) // 8, "big"):
            product = (product << 8) ^ table[byte]
        return product

    def _mul_big(self, a: int, b: int) -> int:
        """Kernel-backend product + chunked reduction (degree > 16)."""
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        return self._reduce(self._clmul(a, b))

    # ------------------------------------------------------- stacked kernels

    def _stacked_table(self, stacked: int, packed_bytes: int) -> List[int]:
        """The window table of a stacked operand, cached within the budget.

        Oversized tables (more than a quarter of :data:`_STACK_CACHE_BYTES`,
        judged by actual byte size) are built but not retained; cacheable
        ones evict the whole cache when the budget would overflow, mirroring
        :meth:`_window_table_for`.  ``packed_bytes`` sizes a cheap pre-check
        that skips the exact measurement for clearly oversized tables.
        """
        stats = self._kstats["stacked"]
        table = self._swtab.get(stacked)
        if table is None:
            stats[1] += 1
            table = window_table(stacked)
            if 256 * packed_bytes <= _STACK_CACHE_BYTES:
                cost = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
                if cost <= _STACK_CACHE_BYTES // 4:
                    if self._swtab_bytes + cost > _STACK_CACHE_BYTES:
                        self._swtab.clear()
                        self._swtab_bytes = 0
                        stats[2] += 1
                    self._swtab[stacked] = table
                    self._swtab_bytes += cost
        else:
            stats[0] += 1
        return table

    def _reduce_stacked(self, stacked_raw: int, count: int) -> List[int]:
        """Reduce a stacked raw product and split it into ``count`` elements.

        Uses the whole-integer masked folds of
        :func:`polynomials.poly_reduce_stacked` when the modulus has a
        reduction table, amortising the fold pass across the batch; dense
        moduli fall back to per-slot Euclidean reduction.
        """
        redtab = self._redtab
        if redtab is None:
            redtab = self._reduction()
        if redtab is False:
            return [
                poly_mod(value, self.modulus)
                for value in unstack_slots(stacked_raw, self._stride, count)
            ]
        reduced = poly_reduce_stacked(stacked_raw, redtab, self._stride, count)
        return unstack_slots(reduced, self._stride, count)

    def square(self, a: int) -> int:
        """Field squaring (table lookup, or linear-time bit spreading)."""
        if a == 0:
            return 0
        if self._big:
            return self._reduce(poly_square(a))
        log = self._log
        if log is None:
            self._ensure_tables()
            log = self._log
        return self._exp[2 * log[a]]  # type: ignore[index]

    def pow(self, base: int, exponent: int) -> int:
        """Raise ``base`` to an integer ``exponent`` (which may be negative).

        Raises:
            FieldError: if the base is zero and the exponent is negative.
        """
        if base == 0:
            if exponent < 0:
                raise FieldError("zero has no multiplicative inverse")
            return 1 if exponent == 0 else 0
        if self._ensure_tables():
            # base^(order-1) = 1, so reduce the exponent mod the group order;
            # Python's % maps negative exponents into range as well.
            group = self.order - 1
            return self._exp[(self._log[base] * exponent) % group]  # type: ignore[index]
        if exponent < 0:
            base = self.inv(base)
            exponent = -exponent
        result = 1
        while exponent:
            if exponent & 1:
                result = self._mul_big(result, base)
            base = self._reduce(poly_square(base))
            exponent >>= 1
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse (table lookup, or extended Euclid fallback).

        Raises:
            FieldError: if ``a`` is zero.
        """
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        if self._inv_t is not None or self._ensure_tables():
            return self._inv_t[a]  # type: ignore[index]
        return self._inv_big(a)

    def _inv_big(self, a: int) -> int:
        """Extended Euclid with inlined single-shift division steps.

        The extended Euclid of the frozen oracle (``tests/_oracles/gf.py``),
        but each quotient is applied one aligned shift at a time, avoiding the
        per-quotient ``poly_divmod`` / ``poly_mul`` calls (whose bit-serial
        inner loops dominate at large degrees).
        """
        r_prev, r_curr = self.modulus, a
        s_prev, s_curr = 0, 1
        deg_prev, deg_curr = self.degree, a.bit_length() - 1
        while r_curr:
            shift = deg_prev - deg_curr
            if shift < 0:
                r_prev, r_curr = r_curr, r_prev
                s_prev, s_curr = s_curr, s_prev
                deg_prev, deg_curr = deg_curr, deg_prev
                continue
            r_prev ^= r_curr << shift
            s_prev ^= s_curr << shift
            deg_prev = r_prev.bit_length() - 1
        # r_curr reached zero, so r_prev holds gcd == 1 and s_prev the inverse
        # of ``a`` up to one final reduction.
        return self._reduce(s_prev)

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``.

        Raises:
            FieldError: if ``b`` is zero.
        """
        return self.mul(a, self.inv(b))

    # ------------------------------------------------------------- introspection

    def kernel_backend_name(self) -> str:
        """The kernel backend this field runs on (``"log-table"`` for m <= 16)."""
        return self._kernel.name if self._kernel is not None else "log-table"

    def kernel_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Counters for every kernel-side cache this field holds.

        Always includes the ``window`` and ``stacked`` table caches
        (hits/misses/evictions plus byte-accurate occupancy); backends add
        their own (``native_matrices``).
        """
        window = self._kstats["window"]
        stacked = self._kstats["stacked"]
        stats: Dict[str, Dict[str, int]] = {
            "window": {
                "entries": len(self._wtab),
                "bytes": self._wtab_bytes,
                "budget_bytes": _WINDOW_CACHE_BYTES,
                "hits": window[0],
                "misses": window[1],
                "evictions": window[2],
            },
            "stacked": {
                "entries": len(self._swtab),
                "bytes": self._swtab_bytes,
                "budget_bytes": _STACK_CACHE_BYTES,
                "hits": stacked[0],
                "misses": stacked[1],
                "evictions": stacked[2],
            },
        }
        if self._kernel is not None:
            stats.update(self._kernel.cache_stats())
        return stats

    def describe(self) -> Dict[str, object]:
        """A structured snapshot of the field's kernel configuration.

        Includes the selected backend, how it was selected, the backend's
        crossover decisions (for ``native``: library path, source sha256 and
        whether this process built it or found it cached), the stacked-slot
        geometry and all cache counters; on a host where the ``native``
        backend cannot run, ``native_unavailable`` says why.  Surfaced by the
        benchmarks as artifact extras.
        """
        info: Dict[str, object] = {
            "degree": self.degree,
            "modulus": hex(self.modulus),
            "big": self._big,
            "kernel_backend": self.kernel_backend_name(),
        }
        if self._kernel is not None:
            info["selected_by"] = getattr(self._kernel, "selected_by", "unknown")
            info["crossover"] = self._kernel.crossover()
            reason = _backends.NativeBackend.unavailable_reason()
            if reason is not None:
                info["native_unavailable"] = reason
            info["stack_stride_bits"] = self._stride
            info["stack_slot_cap"] = self._slot_cap
        info["caches"] = self.kernel_cache_stats()
        return info

    # ------------------------------------------------------------------ random

    def random_element(self, rng: random.Random) -> int:
        """Draw an element uniformly at random using the supplied RNG."""
        return rng.getrandbits(self.degree)

    def random_nonzero(self, rng: random.Random) -> int:
        """Draw a uniformly random non-zero element."""
        while True:
            element = self.random_element(rng)
            if element != 0:
                return element

    def random_vector(self, length: int, rng: random.Random) -> List[int]:
        """Draw a vector of ``length`` independent uniform elements."""
        draw, degree = rng.getrandbits, self.degree
        return [draw(degree) for _ in range(length)]

    # ------------------------------------------------------------------ dunder

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2m)
            and other.degree == self.degree
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"GF2m(degree={self.degree}, modulus={self.modulus:#x})"


def kernel_cache_stats() -> Dict[str, Dict[str, Dict[str, int]]]:
    """Kernel cache counters for every canonical field, keyed ``GF(2^m)``."""
    return {
        f"GF(2^{degree})": field.kernel_cache_stats()
        for (degree, _modulus), field in sorted(_FIELD_CACHE.items())
        if field._big
    }


# The one upward import of this layer: the kernel cache counters join the
# registry.  Each cache is bounded by its own budget and holds nothing tied to
# a topology, so the entry lives with the process and has nothing to clear.
from repro.graph.flow_cache import register_cache  # noqa: E402

register_cache("kernels", "process", lambda: None, kernel_cache_stats)
