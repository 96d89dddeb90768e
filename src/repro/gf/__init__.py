"""Finite-field substrate: exact arithmetic over ``GF(2^m)``.

The equality-check algorithm of the paper operates on symbols drawn from
``GF(2^(L / rho_k))`` where ``L`` is the broadcast input size in bits.  Because
``L`` can be large, the field degree is not bounded by machine-word sizes;
this package implements exact arithmetic on Python integers interpreted as
polynomials over GF(2).

Performance notes:
    Fields of degree ``m <= 16`` lazily build discrete log/antilog/inverse
    lookup tables on first multiplicative use; the tables are shared across
    all instances of the same ``(degree, modulus)`` field through a
    module-level cache, and :func:`repro.gf.field.get_field` additionally
    canonicalises the field *instances* themselves.  The dense-matrix kernels
    in :mod:`repro.gf.matrix` bind those tables to local names inside their
    inner loops and construct results through a trusted (validation-free)
    internal constructor, which makes matrix products and Gaussian
    elimination over table-backed fields an order of magnitude faster than
    the polynomial path, and bit-for-bit equal to it
    (``tests/test_gf_matrix_regression.py``).  Degrees above 16 run on the
    big-field kernels: carry-less multiplication through a kernel backend
    (below), linear-time squaring, chunked modular reduction against a
    per-field reduction table, and an inlined extended-Euclid inverse
    (``tests/test_big_field_kernels.py``).  The
    original bit-serial polynomial arithmetic is retained on every field as
    the correctness oracle for tests.

Kernel backends:
    The raw carry-less multiply behind every big-field operation is pluggable
    through the registry in :mod:`repro.gf.backends`.  Four backends ship:
    ``bitserial`` (the frozen oracle), ``windowed`` and ``numpy`` (the
    pure-Python tier: window tables below degree 4096, FFT convolution from
    it) and ``native`` (``clmul.c``, PCLMULQDQ on 64-bit limbs, compiled with
    the system C compiler on first use, cached per user and bound with
    ``ctypes``).  ``native`` is auto-selected for every big field where it is
    available; a host without a compiler or without the instruction runs the
    pure-Python tier and ``GF2m.describe()["native_unavailable"]`` says why.
    Selection happens once per field at construction — explicit
    ``get_field(degree, kernel_backend=...)`` argument beats the
    ``REPRO_GF_BACKEND`` environment variable beats the automatic choice —
    and is sticky for the cached field instance.  To add a backend, subclass
    ``KernelBackend``, implement ``clmul`` (and optionally the vector hooks),
    and call ``register_backend``; the conformance suite in
    ``tests/test_gf_backends.py`` automatically pits every registered backend
    against the bit-serial oracles.

Public surface:

* :class:`repro.gf.field.GF2m` — a field of characteristic 2 and arbitrary
  degree ``m >= 1``; :func:`repro.gf.field.get_field` — shared cached
  instances per ``(degree, modulus)``.
* :class:`repro.gf.matrix.GFMatrix` — dense matrices over such a field with
  multiplication, rank, determinant, inversion, solving, and random sampling.
* :mod:`repro.gf.polynomials` — irreducible-polynomial tables and search.
* :mod:`repro.gf.symbols` — packing of bit strings into symbol vectors and
  back, as used to split an ``L``-bit value into ``rho`` field symbols.
"""

from repro.gf.field import GF2m, get_field
from repro.gf.matrix import GFMatrix
from repro.gf.polynomials import irreducible_polynomial, is_irreducible
from repro.gf.symbols import bits_to_symbols, bytes_to_symbols, symbols_to_bytes

__all__ = [
    "GF2m",
    "get_field",
    "GFMatrix",
    "irreducible_polynomial",
    "is_irreducible",
    "bits_to_symbols",
    "bytes_to_symbols",
    "symbols_to_bytes",
]
