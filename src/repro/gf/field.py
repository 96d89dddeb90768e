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
    ``inv`` / ``div`` / ``pow`` / ``square`` / ``dot`` are plain list lookups.
    The tables are shared process-wide through a module-level cache keyed on
    ``(degree, modulus)``, so constructing many ``GF2m(8)`` instances (one per
    NAB instance, say) pays the table build exactly once.  Larger degrees keep
    the original polynomial arithmetic, which also remains available on every
    field as the correctness oracle (:meth:`GF2m._mul_fallback`,
    :meth:`GF2m._inv_fallback`).  :func:`get_field` returns a canonical cached
    instance per ``(degree, modulus)`` for callers that construct fields in a
    loop.

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
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.exceptions import FieldError
from repro.gf import backends as _backends
from repro.gf.polynomials import (
    ReductionTable,
    irreducible_polynomial,
    is_irreducible,
    poly_degree,
    poly_divmod,
    poly_mod,
    poly_mul,
    poly_reduce,
    poly_reduce_stacked,
    poly_square,
    reduction_table,
    stack_slots,
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

# Largest degree for which log/antilog tables are built (2^16 entries tops).
_TABLE_MAX_DEGREE = 16

# (degree, modulus) -> (exp, log, inv) lookup tables, shared by all instances
# of the same field so the build cost is paid once per process.
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


def _build_tables(degree: int, modulus: int) -> Tuple[List[int], List[int], List[int]]:
    """Build ``(exp, log, inv)`` tables for the field ``GF(2^degree)``.

    ``exp`` holds two copies of the antilog table back to back so that
    ``exp[log[a] + log[b]]`` never needs a ``% (order - 1)`` reduction.
    ``log[0]`` and ``inv[0]`` are unused placeholders (zero has neither).
    """
    order = 1 << degree
    group = order - 1
    if group == 1:
        return [1, 1], [0, 0], [0, 1]
    powers: List[int] = []
    for candidate in range(2, order):
        powers = [1]
        value = candidate
        while value != 1 and len(powers) <= group:
            powers.append(value)
            value = poly_mod(poly_mul(value, candidate), modulus)
        if len(powers) == group:
            break
    else:  # pragma: no cover - impossible for an irreducible modulus
        raise FieldError(f"no generator found for GF(2^{degree})")
    exp = powers + powers
    log = [0] * order
    for index, element in enumerate(powers):
        log[element] = index
    inv = [0] * order
    for element in range(1, order):
        inv[element] = exp[group - log[element]]
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
        "_clmul_stacked",
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
        # useful batch (>= 8 slots), prefer cacheable windows so recurring
        # operands (coding-matrix rows) pay their table build once; at very
        # large degrees, where even small windows exceed the entry budget,
        # keep the wider window — the fused scan amortisation is then worth
        # more than the (impossible) caching.
        self._stride = stack_stride(degree, degree)
        width = self._stride // 8
        window_slots = max(1, _STACK_WINDOW_BYTES // width)
        cacheable_slots = (_STACK_CACHE_BYTES // 4) // (256 * width)
        if cacheable_slots >= 8:
            window_slots = min(window_slots, cacheable_slots)
        self._slot_cap = max(1, min(window_slots, 64))
        self._swtab: Dict[int, List[int]] = {}
        self._swtab_bytes = 0
        # Kernel backend (big fields only): resolved once, sticky for the
        # life of the instance; the raw-product dispatchers are bound here so
        # the hot paths pay no per-call selection logic.  The windowed
        # machinery stays on the field itself (it is also every other
        # backend's delegate below their crossover points).
        if self._big:
            _retain_heap()
            self._kernel = _backends.create_backend(self, kernel_backend)
            if self._kernel.name == "windowed":
                self._clmul = self._windowed_clmul
                self._clmul_stacked = self._windowed_stacked_mul
            else:
                self._clmul = self._kernel.clmul
                self._clmul_stacked = self._kernel.clmul_stacked
        else:
            if kernel_backend:
                # Validate the name even though small fields run on tables.
                _backends.backend_class(kernel_backend)
            self._kernel = None
            self._clmul = None
            self._clmul_stacked = None

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

    def zero(self) -> int:
        """The additive identity."""
        return 0

    def one(self) -> int:
        """The multiplicative identity."""
        return 1

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

    def _mul_fallback(self, a: int, b: int) -> int:
        """Bit-serial polynomial multiplication: the correctness oracle.

        This is the pre-windowing implementation, retained verbatim so the
        big-field kernels (:meth:`_mul_big`, :meth:`square`, :meth:`inv`) have
        a fixed reference to be property-tested and benchmarked against.  Hot
        paths never call it for degree > 16 anymore — they use
        :meth:`_mul_big`.
        """
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        return poly_mod(poly_mul(a, b), self.modulus)

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

    def _raw_mul_big(self, a: int, b: int) -> int:
        """The unreduced carry-less product behind :meth:`_mul_big`.

        Dispatches to the field's kernel backend; the default windowed
        backend binds :meth:`_windowed_clmul` here directly.  Callers that
        combine several products linearly (XOR) can defer the modular
        reduction and fold it once over the combination.
        """
        return self._clmul(a, b)

    def _windowed_clmul(self, a: int, b: int) -> int:
        """The windowed raw product: byte scan against a cached window table.

        Scans one operand byte-by-byte against the cached window table of the
        other; prefers whichever operand already has a table cached.  This is
        the ``windowed`` backend's primitive and the delegate every other
        backend falls back to below its own crossover point.
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
        """Windowed multiplication + chunked reduction (degree > 16 kernel)."""
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        return self._reduce(self._raw_mul_big(a, b))

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

    def _stacked_raw_mul(self, stacked: int, factor: int, packed_bytes: int) -> int:
        """One fused pass multiplying a whole packed symbol batch by ``factor``.

        Dispatches to the kernel backend's stacked primitive (the windowed
        backend binds :meth:`_windowed_stacked_mul` directly); returns the
        raw stacked product (unreduced).
        """
        if factor == 0 or stacked == 0:
            return 0
        return self._clmul_stacked(stacked, factor, packed_bytes)

    def _windowed_stacked_mul(self, stacked: int, factor: int, packed_bytes: int) -> int:
        """One windowed pass over a stacked batch: the ``windowed`` primitive.

        The window table of the *stacked* operand comes from
        :meth:`_stacked_table` — cached per field (keyed on the stacked
        value) within the :data:`_STACK_CACHE_BYTES` budget, so operands
        that recur across calls — a coding-matrix row scaled by each symbol
        of many values — pay the table build once and every later call is
        just the ``factor`` byte scan.
        """
        if factor == 0 or stacked == 0:
            return 0
        table = self._stacked_table(stacked, packed_bytes)
        product = 0
        for byte in factor.to_bytes((factor.bit_length() + 7) // 8, "big"):
            product = (product << 8) ^ table[byte]
        return product

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

        Same algorithm as :meth:`_inv_fallback` but each quotient is applied
        one aligned shift at a time, avoiding the per-quotient ``poly_divmod``
        / ``poly_mul`` calls (whose bit-serial inner loops dominate at large
        degrees).  The fallback remains the correctness oracle.
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

    def _inv_fallback(self, a: int) -> int:
        """Extended Euclidean inverse: the fallback and correctness oracle.

        Raises:
            FieldError: if ``a`` is zero.
        """
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        # Extended Euclid on polynomials: maintain r = s * a + t * modulus.
        r_prev, r_curr = self.modulus, a
        s_prev, s_curr = 0, 1
        while r_curr != 0:
            quotient, remainder = poly_divmod(r_prev, r_curr)
            r_prev, r_curr = r_curr, remainder
            s_prev, s_curr = s_curr, s_prev ^ poly_mul(quotient, s_curr)
        # r_prev is the gcd, necessarily 1 since the modulus is irreducible.
        return poly_mod(s_prev, self.modulus)

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
        their own (``fft_operands``, ``fft_matrices``, ``native_matrices``).
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

    def clear_kernel_caches(self) -> None:
        """Drop the backend's operand caches (counters are preserved).

        The window/stacked table caches are left alone — they are bounded,
        shared across topologies, and clearing them would cost warm restarts
        for nothing; the runner calls this per topology switch to bound the
        *new* per-backend operand caches the same way it bounds the structure
        caches.
        """
        if self._kernel is not None:
            self._kernel.clear_caches()

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

    # ------------------------------------------------------------------ vectors

    def dot(self, left: Sequence[int], right: Sequence[int]) -> int:
        """Inner product of two equal-length vectors of field elements.

        Raises:
            FieldError: if the lengths differ.
        """
        if len(left) != len(right):
            raise FieldError(f"dot product length mismatch: {len(left)} vs {len(right)}")
        accumulator = 0
        tables = self.tables()
        if tables is not None:
            exp, log, _ = tables
            for a, b in zip(left, right):
                if a and b:
                    accumulator ^= exp[log[a] + log[b]]
        else:
            mul = self._mul_big
            for a, b in zip(left, right):
                if a and b:
                    accumulator ^= mul(a, b)
        return accumulator

    def vector_add(self, left: Sequence[int], right: Sequence[int]) -> List[int]:
        """Component-wise sum of two equal-length vectors."""
        if len(left) != len(right):
            raise FieldError(f"vector sum length mismatch: {len(left)} vs {len(right)}")
        return [a ^ b for a, b in zip(left, right)]

    def scalar_mul(self, scalar: int, vector: Iterable[int]) -> List[int]:
        """Multiply every component of ``vector`` by ``scalar``.

        Per-symbol loop, frozen as the correctness oracle for
        :meth:`scale_vec`; hot paths should use the vector API.
        """
        mul = self.mul
        return [mul(scalar, component) for component in vector]

    def scale_vec(self, scalar: int, vector: Sequence[int]) -> List[int]:
        """Vector-API scalar multiply: one windowed pass per symbol window.

        Small-degree fields route through the log/exp tables with the
        scalar's log hoisted out of the loop; big fields pack the vector into
        guard-spaced slots (:func:`polynomials.stack_slots`) and multiply the
        whole batch by ``scalar`` in a single windowed pass, then reduce all
        slots with one masked fold sweep.  Identical values to
        :meth:`scalar_mul` (the frozen per-symbol oracle).
        """
        values = list(vector)
        if not values:
            return []
        if scalar == 0:
            return [0] * len(values)
        if scalar == 1:
            return values
        if not self._big:
            self._ensure_tables()
            exp, log = self._exp, self._log
            log_scalar = log[scalar]  # type: ignore[index]
            return [exp[log_scalar + log[v]] if v else 0 for v in values]  # type: ignore[index]
        out: List[int] = []
        stride = self._stride
        width = stride // 8
        cap = self._slot_cap
        for start in range(0, len(values), cap):
            window = values[start : start + cap]
            stacked = stack_slots(window, stride)
            raw = self._stacked_raw_mul(stacked, scalar, len(window) * width)
            out.extend(self._reduce_stacked(raw, len(window)))
        return out

    def mul_vec(self, left: Sequence[int], right: Sequence[int]) -> List[int]:
        """Component-wise product of two equal-length vectors.

        Small-degree fields use the log/exp tables; big fields compute the
        raw windowed products pairwise and amortise the modular reduction by
        folding every raw product in one stacked sweep.

        Raises:
            FieldError: if the lengths differ.
        """
        if len(left) != len(right):
            raise FieldError(f"mul_vec length mismatch: {len(left)} vs {len(right)}")
        if not left:
            return []
        if not self._big:
            self._ensure_tables()
            exp, log = self._exp, self._log
            return [
                exp[log[a] + log[b]] if a and b else 0  # type: ignore[index]
                for a, b in zip(left, right)
            ]
        hooked = self._kernel.mul_vec(left, right)
        if hooked is not None:
            return hooked
        raw_mul = self._raw_mul_big
        raws = [raw_mul(a, b) if a and b else 0 for a, b in zip(left, right)]
        out: List[int] = []
        stride = self._stride
        cap = self._slot_cap
        for start in range(0, len(raws), cap):
            window = raws[start : start + cap]
            out.extend(self._reduce_stacked(stack_slots(window, stride), len(window)))
        return out

    def dot_vec(self, left: Sequence[int], right: Sequence[int]) -> int:
        """Vector-API inner product: raw products, one reduction at the end.

        Small-degree fields match :meth:`dot` (the frozen per-symbol oracle);
        big fields XOR the unreduced windowed products — reduction is linear
        over XOR — and reduce the accumulator once instead of per term.

        Raises:
            FieldError: if the lengths differ.
        """
        if len(left) != len(right):
            raise FieldError(f"dot_vec length mismatch: {len(left)} vs {len(right)}")
        if not self._big:
            return self.dot(left, right)
        hooked = self._kernel.dot_vec(left, right)
        if hooked is not None:
            return hooked
        raw_mul = self._raw_mul_big
        accumulator = 0
        for a, b in zip(left, right):
            if a and b:
                accumulator ^= raw_mul(a, b)
        return self._reduce(accumulator) if accumulator else 0

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


def clear_kernel_caches() -> None:
    """Drop the kernel backends' operand caches on every canonical field.

    Called by the experiment runner on topology switches, alongside the
    structure caches (min-cuts, packings, relay paths, rank verdicts): the
    spectrum operand caches are keyed on symbol values, which never
    recur across topologies, so this is memory hygiene, not a correctness
    concern.  Window/stacked tables and the field instances themselves stay.
    """
    for field in _FIELD_CACHE.values():
        field.clear_kernel_caches()


# The one upward import of this layer: the kernel caches join the registry.
from repro.graph.flow_cache import register_cache  # noqa: E402

register_cache("kernels", "topology", clear_kernel_caches, kernel_cache_stats)
