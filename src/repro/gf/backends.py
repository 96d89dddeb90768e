"""Pluggable carry-less multiplication kernel backends for big ``GF(2^m)`` fields.

Every field of degree > 16 runs its carry-less products through a *kernel
backend* selected at construction time (:func:`create_backend`, called from
``GF2m.__init__`` / :func:`repro.gf.field.get_field`).  A backend supplies the
raw (unreduced) product primitive — scalar and stacked — and may additionally
take over whole vector/matrix operations; everything downstream (chunked
modular reduction, slot packing, the protocol) is backend-agnostic, and every
backend computes bit-identical values, so swapping backends can never change
experiment results, only their wall-clock cost.

Registered backends:

``bitserial``
    The frozen shift/XOR oracle (:func:`repro.gf.polynomials.poly_mul`).
    Never selected automatically; exists so the conformance suite and the
    benchmarks always have the reference implementation addressable by name.

``windowed``
    The PR 4/5 kernels: cached 8-bit window tables scanned byte-by-byte,
    stacked guard-spaced batches, fused vector-matrix passes.  The
    pure-Python tier's choice below the numpy crossover degree, and the
    delegate of every other backend's stacked primitive.

``numpy``
    Carry-less products as real convolutions: operands unpack to 0/1 float
    vectors, multiply under ``rfft``/``irfft``, and the product coefficients'
    parities are exact because every convolution count is at most ``m`` — far
    inside float64's 2^53 integer range.  The win is the batched ``vecmat``
    encode: one forward FFT per symbol, a cached (budget permitting) or
    streamed spectrum per matrix row, one inverse FFT per column.  The
    pure-Python tier's choice for degrees >= :data:`NUMPY_MIN_DEGREE`.

``native``
    Block-scanned Karatsuba products of 64-bit limbs on the CPU's PCLMULQDQ
    instruction: ``clmul.c`` (shipped beside this module) is compiled with
    the system C compiler the first time a big field asks for it, cached in
    the user's cache directory under a name hashing source, flags and
    machine, and bound with :mod:`ctypes`.  Takes ``clmul``, ``vecmat``,
    ``dot_vec``, ``mul_vec`` and the seeded matrix draw (``draw_limbs``: a
    coding matrix is born as its limb buffer and never becomes Python
    integers unless something reads its entries); symbol vectors cross with
    one ``to_bytes``/``join`` per call, and modular reduction stays on
    ``field._reduce``.  Selected automatically for *every* big field when
    :meth:`NativeBackend.available` — compiler found (or library already
    cached), build and load succeeded, CPU reports PCLMULQDQ, self-check
    passed.  Anything else makes it unavailable, never an error: selection
    falls back to the pure-Python tier (``windowed`` / ``numpy``) and
    ``GF2m.describe()`` carries the reason as ``native_unavailable``.

Selection precedence: an explicit ``kernel_backend=`` argument, then the
``REPRO_GF_BACKEND`` environment variable, then :func:`auto_backend_name`.
The decision is made once per field and — because
:func:`repro.gf.field.get_field` canonicalises instances — is sticky for the
life of the process.

Adding a backend: subclass :class:`KernelBackend`, implement ``clmul`` (and
optionally ``clmul_stacked`` / ``vecmat`` / ``dot_vec`` / ``mul_vec`` /
``draw_limbs`` / ``cache_stats`` / ``clear_caches``), then call :func:`register_backend`.  The
conformance tests in ``tests/test_gf_backends.py`` run against every
registered name, so a new backend is property-tested against the bit-serial
oracles for free.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import random
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.exceptions import FieldError
from repro.gf.polynomials import poly_mul

try:  # pragma: no cover - exercised implicitly by backend availability
    import numpy as _np
except Exception:  # pragma: no cover - the container always has numpy
    _np = None

#: Environment variable overriding backend selection for newly built fields.
ENV_BACKEND = "REPRO_GF_BACKEND"

#: Static crossover: degrees at/above this auto-select the ``numpy`` backend
#: (when importable).  Measured with CPython 3.11 and pocketfft on an 8 x 16
#: coding-shaped encode: the FFT overtakes the stacked windowed pass between
#: degrees 2048 and 4096, and is 6.8x faster at 4096 and 10.7x at 8192.
NUMPY_MIN_DEGREE = 4096

#: Byte budget for the numpy backend's per-field operand-spectrum cache.
FFT_CACHE_BYTES = 8 << 20

#: Largest per-matrix spectrum tensor (``rho x cols x K`` complex128) the
#: numpy backend will cache on a matrix; bigger encodes stream the matrix
#: spectra row-by-row instead (same values, no resident tensor).
FFT_MATRIX_CACHE_BYTES = 48 << 20

#: Degree at/above which the numpy backend computes *scalar* products by FFT;
#: below it the windowed byte scan is faster (measured) and is delegated to.
FFT_SCALAR_MIN_DEGREE = 16384

#: Compiler flags of the native kernel library; part of its cache name.
NATIVE_CFLAGS = ("-O2", "-mpclmul", "-msse2", "-shared", "-fPIC")


class KernelBackend:
    """Base class: the raw carry-less product primitive behind one field.

    Subclasses override :meth:`clmul` (mandatory) and any of the optional
    batched hooks.  A hook returning ``None`` means "no opinion": the caller
    falls through to the generic windowed/stacked code path.  All hooks must
    return exactly the values the frozen oracles produce.
    """

    #: Registry name; subclasses must override.
    name = "abstract"

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    def __init__(self, field) -> None:
        self.field = field

    # -- mandatory primitive ------------------------------------------------
    def clmul(self, a: int, b: int) -> int:
        """The raw (unreduced) carry-less product of ``a`` and ``b``."""
        raise NotImplementedError

    # -- optional batched hooks --------------------------------------------
    def clmul_stacked(self, stacked: int, factor: int, packed_bytes: int) -> int:
        """Multiply a guard-spaced stacked batch by ``factor`` (raw result).

        Carry-less multiplication distributes over slot concatenation, so the
        default is simply :meth:`clmul` on the stacked integer.
        """
        return self.clmul(stacked, factor)

    def vecmat(self, matrix, vector: Sequence[int]) -> Optional[List[int]]:
        """Reduced ``vector @ matrix`` for a big field, or ``None`` to decline."""
        return None

    def dot_vec(self, left: Sequence[int], right: Sequence[int]) -> Optional[int]:
        """Reduced inner product, or ``None`` to decline."""
        return None

    def mul_vec(self, left: Sequence[int], right: Sequence[int]) -> Optional[List[int]]:
        """Reduced component-wise product, or ``None`` to decline."""
        return None

    def draw_limbs(self, seed: int, count: int):
        """The next ``count`` elements of a fresh ``random.Random(seed)`` (one
        ``getrandbits(degree)`` each) as a limb buffer for
        :meth:`GFMatrix._from_limbs`, or ``None`` to decline."""
        return None

    # -- introspection ------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-cache counters (hits/misses/evictions/bytes) for this backend."""
        return {}

    def clear_caches(self) -> None:
        """Drop operand caches (the runner calls this per topology switch)."""

    def crossover(self) -> Dict[str, object]:
        """The per-field kernel decisions, for ``GF2m.describe()``."""
        return {}


class BitSerialBackend(KernelBackend):
    """The frozen shift/XOR oracle, addressable by name for conformance runs."""

    name = "bitserial"

    def clmul(self, a: int, b: int) -> int:
        return poly_mul(a, b)

    def crossover(self) -> Dict[str, object]:
        return {"policy": "oracle (never selected automatically)"}


class WindowedBackend(KernelBackend):
    """The PR 4/5 windowed kernels; the field holds the actual machinery.

    ``GF2m`` binds its own ``_windowed_clmul`` / ``_windowed_stacked_mul``
    directly when this backend is selected (no per-call indirection), and the
    fused vector-matrix scan stays in :meth:`GFMatrix._vecmat_big`; this class
    only gives the machinery its registry name and delegating methods.
    """

    name = "windowed"

    def clmul(self, a: int, b: int) -> int:
        return self.field._windowed_clmul(a, b)

    def clmul_stacked(self, stacked: int, factor: int, packed_bytes: int) -> int:
        return self.field._windowed_stacked_mul(stacked, factor, packed_bytes)

    def crossover(self) -> Dict[str, object]:
        return {"policy": f"pure-Python tier below degree {NUMPY_MIN_DEGREE}"}


class NumpyBackend(KernelBackend):
    """FFT convolution kernels over float64, exact by integrality of counts.

    Scalar products below :data:`FFT_SCALAR_MIN_DEGREE` delegate to the
    field's windowed scan (measured faster there); at and above it, and for
    every ``vecmat`` / ``dot_vec`` / ``mul_vec``, products are computed as
    real convolutions.  Convolution coefficients count at most ``min(len(a),
    len(b)) <= m`` bit pairs, and pocketfft's float64 roundoff at these sizes
    is orders of magnitude below the 0.5 rounding threshold, so ``rint``
    recovers the exact counts and their parities are the carry-less product.

    Caches, all per field and byte-accounted:

    * operand spectra for scalar products (:data:`FFT_CACHE_BYTES`);
    * one spectrum tensor per matrix (stored on the matrix, like its stacked
      windows) when it fits :data:`FFT_MATRIX_CACHE_BYTES` — the benchmark
      shapes do, the 256 KB ``huge_payloads`` encodes do not and stream
      row-by-row instead.
    """

    name = "numpy"

    @classmethod
    def available(cls) -> bool:
        return _np is not None

    def __init__(self, field) -> None:
        if _np is None:  # pragma: no cover - guarded by available()
            raise FieldError("numpy kernel backend requested but numpy is not importable")
        super().__init__(field)
        degree = field.degree
        self._mbytes = (degree + 7) // 8
        self._size = self._fft_size(2 * degree - 1)
        self._fcache: Dict[int, object] = {}
        self._fbytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._ctx_hits = 0
        self._ctx_misses = 0
        self._ctx_skips = 0

    @staticmethod
    def _fft_size(minimum: int) -> int:
        """Smallest transform length ``2^k`` or ``3 * 2^k`` >= ``minimum``.

        pocketfft is fast for both shapes; admitting the ``3 * 2^k`` sizes
        saves up to 25% of spectrum traffic over pure powers of two.
        """
        size = 1
        while size < minimum:
            size <<= 1
        if size >= 4 and (3 * size) // 4 >= minimum:
            return (3 * size) // 4
        return size

    # -- bit packing --------------------------------------------------------
    def _bits_of(self, value: int, length: int):
        raw = value.to_bytes((length + 7) // 8, "little")
        return _np.unpackbits(
            _np.frombuffer(raw, dtype=_np.uint8), bitorder="little"
        )[:length].astype(_np.float64)

    def _rows_bits(self, values: Sequence[int], length: int):
        """0/1 float matrix, one ``length``-bit row per value."""
        width = (length + 7) // 8
        raw = b"".join(value.to_bytes(width, "little") for value in values)
        bits = _np.unpackbits(
            _np.frombuffer(raw, dtype=_np.uint8).reshape(len(values), width),
            axis=1,
            bitorder="little",
        )
        return bits[:, :length].astype(_np.float64)

    def _parity_int(self, counts) -> int:
        bits = (counts & 1).astype(_np.uint8)
        return int.from_bytes(
            _np.packbits(bits, bitorder="little").tobytes(), "little"
        )

    # -- scalar product -----------------------------------------------------
    def _spectrum_of(self, value: int):
        cached = self._fcache.get(value)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        spectrum = _np.fft.rfft(self._bits_of(value, value.bit_length()), n=self._size)
        cost = spectrum.nbytes + 64
        if self._fbytes + cost > FFT_CACHE_BYTES:
            self._fcache.clear()
            self._fbytes = 0
            self._evictions += 1
        self._fcache[value] = spectrum
        self._fbytes += cost
        return spectrum

    def _fft_clmul(self, a: int, b: int) -> int:
        product = _np.fft.irfft(self._spectrum_of(a) * self._spectrum_of(b), n=self._size)
        counts = _np.rint(product[: a.bit_length() + b.bit_length() - 1]).astype(_np.int64)
        return self._parity_int(counts)

    def clmul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if self.field.degree < FFT_SCALAR_MIN_DEGREE:
            return self.field._windowed_clmul(a, b)
        return self._fft_clmul(a, b)

    def clmul_stacked(self, stacked: int, factor: int, packed_bytes: int) -> int:
        # Stacked batches keep the windowed scan: the FFT size would have to
        # cover the whole packed window, forfeiting the cached-spectrum reuse
        # that makes the scalar/batched paths win.
        return self.field._windowed_stacked_mul(stacked, factor, packed_bytes)

    # -- batched kernels ----------------------------------------------------
    def _matrix_spectra(self, matrix, size: int):
        """The cached ``(rows, cols, K)`` spectrum tensor, or ``None`` if too big.

        Stored on the matrix itself (like its stacked windows) so it lives
        and dies with the matrix; the budget check is remembered per matrix
        to avoid re-deciding every encode.
        """
        ctx = matrix._kctx
        if ctx is not None and ctx[0] == size:
            if ctx[1] is not None:
                self._ctx_hits += 1
            return ctx[1]
        rows, cols = matrix.rows, matrix.cols
        spectrum_len = size // 2 + 1
        tensor_bytes = rows * cols * spectrum_len * 16
        if tensor_bytes > FFT_MATRIX_CACHE_BYTES:
            self._ctx_skips += 1
            matrix._kctx = (size, None)
            return None
        self._ctx_misses += 1
        tensor = _np.empty((rows, cols, spectrum_len), dtype=_np.complex128)
        degree = self.field.degree
        for index, row in enumerate(matrix._data):
            tensor[index] = _np.fft.rfft(self._rows_bits(row, degree), n=size, axis=1)
        matrix._kctx = (size, tensor)
        return tensor

    def vecmat(self, matrix, vector: Sequence[int]) -> Optional[List[int]]:
        field = self.field
        degree = field.degree
        size = self._size
        cols = matrix.cols
        vf = _np.fft.rfft(self._rows_bits(vector, degree), n=size, axis=1)
        tensor = self._matrix_spectra(matrix, size)
        if tensor is not None:
            acc = _np.einsum("rk,rck->ck", vf, tensor)
        else:
            acc = _np.zeros((cols, size // 2 + 1), dtype=_np.complex128)
            for index, row in enumerate(matrix._data):
                if vector[index]:
                    spectra = _np.fft.rfft(self._rows_bits(row, degree), n=size, axis=1)
                    spectra *= vf[index]
                    acc += spectra
        convolved = _np.fft.irfft(acc, n=size, axis=1)[:, : 2 * degree - 1]
        counts = _np.rint(convolved).astype(_np.int64)
        reduce = field._reduce
        result: List[int] = []
        for column in range(cols):
            raw = self._parity_int(counts[column])
            result.append(reduce(raw) if raw else 0)
        return result

    def dot_vec(self, left: Sequence[int], right: Sequence[int]) -> Optional[int]:
        if not left:
            return 0
        degree = self.field.degree
        size = self._size
        lf = _np.fft.rfft(self._rows_bits(left, degree), n=size, axis=1)
        rf = _np.fft.rfft(self._rows_bits(right, degree), n=size, axis=1)
        acc = _np.einsum("rk,rk->k", lf, rf)
        counts = _np.rint(_np.fft.irfft(acc, n=size)[: 2 * degree - 1]).astype(_np.int64)
        raw = self._parity_int(counts)
        return self.field._reduce(raw) if raw else 0

    def mul_vec(self, left: Sequence[int], right: Sequence[int]) -> Optional[List[int]]:
        if not left:
            return []
        degree = self.field.degree
        size = self._size
        lf = _np.fft.rfft(self._rows_bits(left, degree), n=size, axis=1)
        rf = _np.fft.rfft(self._rows_bits(right, degree), n=size, axis=1)
        lf *= rf
        counts = _np.rint(_np.fft.irfft(lf, n=size, axis=1)[:, : 2 * degree - 1]).astype(_np.int64)
        reduce = self.field._reduce
        out: List[int] = []
        for index in range(len(left)):
            raw = self._parity_int(counts[index])
            out.append(reduce(raw) if raw else 0)
        return out

    # -- introspection ------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        return {
            "fft_operands": {
                "entries": len(self._fcache),
                "bytes": self._fbytes,
                "budget_bytes": FFT_CACHE_BYTES,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            },
            "fft_matrices": {
                "hits": self._ctx_hits,
                "misses": self._ctx_misses,
                "skips_over_budget": self._ctx_skips,
                "budget_bytes": FFT_MATRIX_CACHE_BYTES,
            },
        }

    def clear_caches(self) -> None:
        self._fcache.clear()
        self._fbytes = 0

    def crossover(self) -> Dict[str, object]:
        return {
            "auto_selected_from_degree": NUMPY_MIN_DEGREE,
            "scalar_fft_from_degree": FFT_SCALAR_MIN_DEGREE,
            "fft_size": self._size,
        }


# ------------------------------------------------------------ native kernel

#: ``(library, info)`` once resolved: the bound kernel library (``None`` when
#: unavailable) and what ``describe()`` reports about it.  Process-wide, like
#: the ``dlopen`` behind it.
_native_state: Optional[Tuple[Optional[ctypes.CDLL], Dict[str, object]]] = None


def _native_cache_dir() -> Optional[str]:
    """A directory only this user can write: the per-user cache, else a
    uid-named one under the temp directory; ``None`` when neither is safe."""
    import tempfile

    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    uid = os.getuid()
    for candidate in (
        os.path.join(base, "repro"),
        os.path.join(tempfile.gettempdir(), f"repro-{uid}"),
    ):
        try:
            os.makedirs(candidate, mode=0o700, exist_ok=True)
            status = os.stat(candidate)
        except OSError:
            continue
        if status.st_uid == uid and not status.st_mode & 0o022 and os.access(candidate, os.W_OK):
            return candidate
    return None


def _cached_native(directory: str, prefix: str) -> Optional[str]:
    """A cached library whose bytes still hash to the digest in its name.

    A truncated library does not fail in ``dlopen``, it takes the process
    down with SIGBUS inside it, so content is checked before loading; what
    does not check out is removed (and rebuilt by the caller).
    """
    for name in sorted(os.listdir(directory)):
        if name.startswith(prefix) and name.endswith(".so"):
            path = os.path.join(directory, name)
            with contextlib.suppress(OSError), open(path, "rb") as handle:
                if hashlib.sha256(handle.read()).hexdigest()[:16] == name[len(prefix) : -3]:
                    return path
            with contextlib.suppress(OSError):
                os.unlink(path)
    return None


def _compile_native(source: bytes, directory: str, prefix: str) -> Tuple[Optional[str], str]:
    """Build the kernel library; returns ``(path, "")`` or ``(None, why not)``.

    The compiler writes a private temp name and the result is renamed to
    ``<prefix><sha256 of its bytes>.so`` atomically, so racing cold processes
    each end with a whole, self-describing library whoever renames last.
    """
    import shlex
    import shutil
    import subprocess
    import tempfile

    command = shlex.split(os.environ.get("CC", "")) or next(
        ([name] for name in ("cc", "gcc", "clang") if shutil.which(name)), None
    )
    if command is None:
        return None, "no C compiler found (CC, cc, gcc, clang)"
    handle, scratch = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        done = subprocess.run(
            [*command, *NATIVE_CFLAGS, "-x", "c", "-", "-o", scratch],
            input=source,
            capture_output=True,
            timeout=120,
        )
        if done.returncode != 0:
            detail = done.stderr.decode("utf-8", "replace").strip().splitlines()
            return None, f"{command[0]} failed: {detail[-1] if detail else done.returncode}"
        with open(scratch, "rb") as built:
            digest = hashlib.sha256(built.read()).hexdigest()
        path = os.path.join(directory, f"{prefix}{digest[:16]}.so")
        os.replace(scratch, path)
        return path, ""
    except (OSError, subprocess.SubprocessError) as error:
        return None, f"cannot run {command[0]}: {error}"
    finally:
        os.close(handle)
        with contextlib.suppress(OSError):
            os.unlink(scratch)


def _bind_native(path: str) -> ctypes.CDLL:
    """``dlopen`` the kernel library and declare its five functions."""
    library = ctypes.CDLL(path)
    size, data = ctypes.c_size_t, ctypes.c_void_p
    library.clmul_supported.argtypes = []
    library.clmul_supported.restype = ctypes.c_int
    library.clmul_scratch.argtypes = [size]
    library.clmul_scratch.restype = size
    library.clmul_vecmat.argtypes = [size, size, size, data, data, data]
    library.clmul_vecmat.restype = None
    library.clmul_pairs.argtypes = [size, size, data, data, data]
    library.clmul_pairs.restype = None
    library.clmul_draw.argtypes = [size, data, size, size, size, data]
    library.clmul_draw.restype = None
    return library


def _native_out(products: int, terms: int, words: int, unit: int):
    """A buffer for that many raw ``words``-limb products, each a sum of
    ``terms``, and behind them the scratch ``clmul.c`` asks for
    (``unit = clmul_scratch(words)``)."""
    return ctypes.create_string_buffer(products * 16 * words + (terms + 3) * unit)


def _native_draw(library, seed: int, count: int, degree: int, words: int):
    """``count`` ``degree``-bit draws of ``random.Random(seed)`` as ``words``-limb
    slots: the key is what CPython's ``init_by_array`` is fed for an ``int``."""
    key_words = max(1, (abs(seed).bit_length() + 31) // 32)
    key = abs(seed).to_bytes(4 * key_words, "little")
    limbs = ctypes.create_string_buffer(count * 8 * words)
    library.clmul_draw(key_words, key, count, degree, words, limbs)
    return limbs


def _native_self_check(library) -> bool:
    """One seeded draw against ``random.Random`` (77 bits: a shifted top word
    and a padded limb; a two-word key) and one product against
    :func:`poly_mul` (21 limbs: a ragged block under one Karatsuba level),
    before the library is trusted."""
    seed = (5 << 32) | 7
    reference, drawn = random.Random(seed), _native_draw(library, seed, 3, 77, 2).raw
    if any(
        int.from_bytes(drawn[at : at + 16], "little") != reference.getrandbits(77)
        for at in range(0, 48, 16)
    ):
        return False
    a, b = reference.getrandbits(21 * 64), reference.getrandbits(21 * 64)
    out = _native_out(1, 1, 21, library.clmul_scratch(21))
    library.clmul_pairs(1, 21, a.to_bytes(21 * 8, "little"), b.to_bytes(21 * 8, "little"), out)
    return int.from_bytes(out[: 2 * 21 * 8], "little") == poly_mul(a, b)


def _load_native() -> Tuple[Optional[ctypes.CDLL], Dict[str, object]]:
    """Find or build the kernel library; never raises.

    The cache name hashes source, flags and machine, so an edit to any of
    them builds afresh.  The loaded library must report PCLMULQDQ and pass
    :func:`_native_self_check` before it is trusted.
    """
    import importlib.resources  # build-only modules load here and in the helpers

    if not hasattr(os, "getuid"):
        return None, {"reason": f"unsupported platform {platform.system()}"}
    try:
        source = importlib.resources.files("repro.gf").joinpath("clmul.c").read_bytes()
    except OSError as error:
        return None, {"reason": f"kernel source clmul.c not readable: {error}"}
    directory = _native_cache_dir()
    if directory is None:
        return None, {"reason": "no user-owned cache directory"}
    identity = b"\0".join([source, " ".join(NATIVE_CFLAGS).encode(), platform.machine().encode()])
    prefix = f"clmul-{hashlib.sha256(identity).hexdigest()[:16]}-"
    path, build = _cached_native(directory, prefix), "cached"
    if path is None:
        (path, reason), build = _compile_native(source, directory, prefix), "built"
        if path is None:
            return None, {"reason": reason}
    try:
        library = _bind_native(path)
    except (OSError, AttributeError) as error:
        return None, {"reason": f"cannot load {path}: {error}"}
    if not library.clmul_supported():
        return None, {"reason": "CPU does not report PCLMULQDQ"}
    if not _native_self_check(library):
        return None, {"reason": f"{path} failed its self-check"}
    return library, {
        "library": path,
        "source_sha256": hashlib.sha256(source).hexdigest(),
        "build": build,
    }


def _native_library() -> Tuple[Optional[ctypes.CDLL], Dict[str, object]]:
    """The process-wide kernel library, resolved (and built) on first use."""
    global _native_state
    if _native_state is None:
        _native_state = _load_native()
    return _native_state


class NativeBackend(KernelBackend):
    """PCLMULQDQ kernels in C (``clmul.c``), bound through :mod:`ctypes`.

    Every operand is ``ceil(m / 64)`` little-endian 64-bit limbs.  A call
    packs its symbol vectors with one ``to_bytes`` per symbol and one
    ``join``, runs one C function over them, and reduces the raw products —
    read in place, not copied out — with ``field._reduce``.  A matrix crosses
    as its limb buffer: one drawn from a seed (:meth:`draw_limbs`) *is* that
    buffer from birth, a hand-built integer matrix is packed on its first
    encode and the pack kept on the matrix.  Scalar products go the same way
    at every degree: measured against the windowed scan, the native product
    (1.5 us at degree 64, 5 us at 4096) ties a *warm* window table at degree
    128 and beats a table build (56 us and up) everywhere, and a table only
    pays for itself past ~50 products against one operand.  Stacked batches
    keep the windowed scan, as under ``numpy``.
    """

    name = "native"

    @classmethod
    def available(cls) -> bool:
        return _native_library()[0] is not None

    @staticmethod
    def unavailable_reason() -> Optional[str]:
        """Why :meth:`available` is false, or ``None`` when it is true."""
        return _native_library()[1].get("reason")

    def __init__(self, field) -> None:
        library, info = _native_library()
        if library is None:
            raise FieldError(f"native kernel backend unavailable: {info['reason']}")
        super().__init__(field)
        self._library = library
        self._words = (field.degree + 63) // 64
        self._width = 8 * self._words
        self._unit = library.clmul_scratch(self._words)
        #: The buffer type of one scalar product: instantiating it costs a
        #: quarter of ``create_string_buffer``, on the path ``field.mul`` takes.
        self._pair_out = type(_native_out(1, 1, self._words, self._unit))
        #: Integer matrices packed (``misses``, ``bytes_built``) and encodes
        #: that found such a pack in place (``hits``); a drawn matrix has
        #: nothing to pack and counts as neither.
        self._ctx = {"hits": 0, "misses": 0, "bytes_built": 0}

    def _pack(self, values: Sequence[int]) -> bytes:
        """The values as consecutive limb arrays; ``to_bytes`` rejects any
        value that would not fit its ``self._width`` bytes."""
        width = self._width
        return b"".join([value.to_bytes(width, "little") for value in values])

    def _reduced(self, out, products: int) -> List[int]:
        """The ``products`` raw products at the head of ``out``, each reduced."""
        view, span, reduce = memoryview(out), 2 * self._width, self.field._reduce
        return [
            reduce(int.from_bytes(view[start : start + span], "little"))
            for start in range(0, products * span, span)
        ]

    def clmul(self, a: int, b: int) -> int:
        width = self._width
        out = self._pair_out()
        self._library.clmul_pairs(
            1, self._words, a.to_bytes(width, "little"), b.to_bytes(width, "little"), out
        )
        return int.from_bytes(out[: 2 * width], "little")

    def clmul_stacked(self, stacked: int, factor: int, packed_bytes: int) -> int:
        return self.field._windowed_stacked_mul(stacked, factor, packed_bytes)

    def draw_limbs(self, seed: int, count: int):
        return _native_draw(self._library, seed, count, self.field.degree, self._words)

    def _matrix_limbs(self, matrix):
        """The matrix's row-major limb buffer: its own, or a pack kept on it."""
        limbs = matrix._limbs
        if limbs is None:
            limbs, stats = matrix._kctx, self._ctx
            if limbs is not None:
                stats["hits"] += 1
            else:
                limbs = matrix._kctx = self._pack([entry for row in matrix._data for entry in row])
                stats["misses"] += 1
                stats["bytes_built"] += len(limbs)
        return limbs

    def vecmat(self, matrix, vector: Sequence[int]) -> Optional[List[int]]:
        rows, cols = matrix.rows, matrix.cols
        if len(vector) != rows:
            raise FieldError(f"length mismatch: vector of {len(vector)} vs {rows} rows")
        limbs = self._matrix_limbs(matrix)
        if len(limbs) != rows * cols * self._width:
            raise FieldError(f"limb buffer of {len(limbs)} bytes on a {rows} x {cols} matrix")
        out = _native_out(cols, rows, self._words, self._unit)
        self._library.clmul_vecmat(rows, cols, self._words, self._pack(vector), limbs, out)
        return self._reduced(out, cols)

    def dot_vec(self, left: Sequence[int], right: Sequence[int]) -> Optional[int]:
        if len(left) != len(right):
            raise FieldError(f"length mismatch: {len(left)} vs {len(right)}")
        out = _native_out(1, len(left), self._words, self._unit)
        self._library.clmul_vecmat(
            len(left), 1, self._words, self._pack(left), self._pack(right), out
        )
        return self._reduced(out, 1)[0]

    def mul_vec(self, left: Sequence[int], right: Sequence[int]) -> Optional[List[int]]:
        if len(left) != len(right):
            raise FieldError(f"length mismatch: {len(left)} vs {len(right)}")
        out = _native_out(len(left), 1, self._words, self._unit)
        self._library.clmul_pairs(
            len(left), self._words, self._pack(left), self._pack(right), out
        )
        return self._reduced(out, len(left))

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        return {"native_matrices": dict(self._ctx)}

    def crossover(self) -> Dict[str, object]:
        return dict(_native_library()[1], limbs=self._words)


# ---------------------------------------------------------------- registry

_REGISTRY: Dict[str, Type[KernelBackend]] = {}


def register_backend(cls: Type[KernelBackend], replace: bool = False) -> None:
    """Register a backend class under ``cls.name``.

    Raises:
        FieldError: if the name is already taken and ``replace`` is false.
    """
    name = cls.name
    if not name or name == KernelBackend.name:
        raise FieldError("kernel backends must define a distinct class-level name")
    if name in _REGISTRY and not replace:
        raise FieldError(f"kernel backend {name!r} is already registered")
    _REGISTRY[name] = cls


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)


def available_backend_names() -> List[str]:
    """Registered backends usable in this environment, sorted."""
    return [name for name in backend_names() if _REGISTRY[name].available()]


def backend_class(name: str) -> Type[KernelBackend]:
    """Look up a registered backend class.

    Raises:
        FieldError: if the name is unknown.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise FieldError(
            f"unknown kernel backend {name!r}; registered: {', '.join(backend_names())}"
        )
    return cls


def auto_backend_name(degree: int) -> str:
    """``native`` wherever it is available; otherwise the pure-Python tier:
    windowed below :data:`NUMPY_MIN_DEGREE`, numpy at and above it."""
    if NativeBackend.available():
        return NativeBackend.name
    if degree >= NUMPY_MIN_DEGREE and NumpyBackend.available():
        return NumpyBackend.name
    return WindowedBackend.name


def resolve_backend_name(degree: int, requested: Optional[str] = None) -> Tuple[str, str]:
    """Resolve the backend name for a new field of ``degree``.

    Precedence: explicit ``requested`` argument, then the
    :data:`ENV_BACKEND` environment variable, then :func:`auto_backend_name`.

    Returns:
        ``(name, selected_by)`` with ``selected_by`` one of ``"explicit"``,
        ``"env"``, ``"auto"``.

    Raises:
        FieldError: if the requested/env name is unknown or unavailable.
    """
    if requested:
        source = "explicit"
        name = requested
    else:
        env = os.environ.get(ENV_BACKEND, "").strip()
        if env:
            source, name = "env", env
        else:
            return auto_backend_name(degree), "auto"
    cls = backend_class(name)
    if not cls.available():
        raise FieldError(
            f"kernel backend {name!r} is registered but unavailable in this "
            f"environment (selected by {source})"
        )
    return name, source


def create_backend(field, requested: Optional[str] = None) -> KernelBackend:
    """Instantiate the backend for ``field`` per the selection precedence."""
    name, source = resolve_backend_name(field.degree, requested)
    backend = backend_class(name)(field)
    backend.selected_by = source
    return backend


register_backend(BitSerialBackend)
register_backend(WindowedBackend)
register_backend(NumpyBackend)
register_backend(NativeBackend)
