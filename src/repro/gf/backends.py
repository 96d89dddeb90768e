"""The carry-less multiplication kernel behind every big ``GF(2^m)`` field.

Every field of degree > 16 runs its carry-less products through a *kernel
backend* selected at construction time (:func:`create_backend`, called from
``GF2m.__init__`` / :func:`repro.gf.field.get_field`).  A backend supplies the
raw (unreduced) product primitive and may take over the encode ``vecmat`` and
the seeded coding-matrix draw; modular reduction and the protocol above are
backend-agnostic, and both backends compute bit-identical values, so the
choice can never change experiment results, only their wall-clock cost.

There are exactly two, one per host class:

``native``
    Block-scanned Karatsuba products of 64-bit limbs on the CPU's PCLMULQDQ
    instruction: ``clmul.c`` (shipped beside this module) is compiled with
    the system C compiler the first time a big field asks for it, cached in
    the user's cache directory under a name hashing source, flags and
    machine, and bound with :mod:`ctypes`.  Takes ``clmul``, ``vecmat`` and
    the seeded matrix draw (``draw_limbs``: a coding matrix is born as its
    limb buffer and never becomes Python integers unless something reads its
    entries); symbol vectors cross with one ``to_bytes``/``join`` per call,
    and modular reduction stays on ``field._reduce``.  Selected for *every*
    big field when :meth:`NativeBackend.available` — compiler found (or
    library already cached), build and load succeeded, CPU reports
    PCLMULQDQ, self-check passed.  Anything else makes it unavailable, never
    an error.

``windowed``
    The pure-Python fallback, at every degree, of a host where ``native`` is
    unavailable (``GF2m.describe()["native_unavailable"]`` says why): cached
    8-bit window tables scanned byte-by-byte, and the fused stacked
    vector-matrix pass of ``GFMatrix.vecmat``.  The machinery lives on the
    field and the matrix; this class only names it.

Selection precedence: an explicit ``kernel_backend=`` argument, then the
``REPRO_GF_BACKEND`` environment variable, then :func:`auto_backend_name`.
The decision is made once per field and — because
:func:`repro.gf.field.get_field` canonicalises instances — is sticky for the
life of the process.  ``tests/test_gf_backends.py`` holds both backends to
``poly_mul`` and the frozen per-symbol oracles.
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

#: Environment variable overriding backend selection for newly built fields.
ENV_BACKEND = "REPRO_GF_BACKEND"

#: Compiler flags of the native kernel library; part of its cache name.
NATIVE_CFLAGS = ("-O2", "-mpclmul", "-msse2", "-shared", "-fPIC")


class KernelBackend:
    """Base class: the raw carry-less product primitive behind one field.

    Subclasses override :meth:`clmul`; :meth:`vecmat` and :meth:`draw_limbs`
    returning ``None`` means "no opinion": the caller falls through to the
    windowed stacked pass or the Python draw.  Every answer must equal what
    the frozen oracles produce.
    """

    #: Backend name; subclasses override.
    name = "abstract"

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    def __init__(self, field) -> None:
        self.field = field

    def clmul(self, a: int, b: int) -> int:
        """The raw (unreduced) carry-less product of ``a`` and ``b``."""
        raise NotImplementedError

    def vecmat(self, matrix, vector: Sequence[int]) -> Optional[List[int]]:
        """Reduced ``vector @ matrix`` for a big field, or ``None`` to decline."""
        return None

    def draw_limbs(self, seed: int, count: int):
        """The next ``count`` elements of a fresh ``random.Random(seed)`` (one
        ``getrandbits(degree)`` each) as a limb buffer for
        :meth:`GFMatrix._from_limbs`, or ``None`` to decline."""
        return None

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-cache counters (hits/misses/bytes) for this backend."""
        return {}

    def crossover(self) -> Dict[str, object]:
        """The per-field kernel decisions, for ``GF2m.describe()``."""
        return {}


class WindowedBackend(KernelBackend):
    """The window-table kernels; the field and the matrix hold the machinery.

    ``GF2m`` binds its own ``_windowed_clmul`` directly when this backend is
    selected (no per-call indirection), and the fused vector-matrix scan
    stays in :meth:`GFMatrix._vecmat_big`.
    """

    name = "windowed"

    def clmul(self, a: int, b: int) -> int:
        return self.field._windowed_clmul(a, b)

    def crossover(self) -> Dict[str, object]:
        return {"policy": "pure-Python fallback where native is unavailable"}


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
    pays for itself past ~50 products against one operand.
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

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        return {"native_matrices": dict(self._ctx)}

    def crossover(self) -> Dict[str, object]:
        return dict(_native_library()[1], limbs=self._words)


# ------------------------------------------------------------------ lookup

#: The two backends by name; nothing else is selectable.
_BACKENDS: Dict[str, Type[KernelBackend]] = {
    NativeBackend.name: NativeBackend,
    WindowedBackend.name: WindowedBackend,
}


def backend_class(name: str) -> Type[KernelBackend]:
    """Look up a backend class by name.

    Raises:
        FieldError: if the name is unknown.
    """
    cls = _BACKENDS.get(name)
    if cls is None:
        raise FieldError(f"unknown kernel backend {name!r}; known: {', '.join(sorted(_BACKENDS))}")
    return cls


def auto_backend_name() -> str:
    """``native`` wherever it is available, otherwise ``windowed``."""
    return NativeBackend.name if NativeBackend.available() else WindowedBackend.name


def resolve_backend_name(requested: Optional[str] = None) -> Tuple[str, str]:
    """Resolve the backend name for a new big field.

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
            return auto_backend_name(), "auto"
    if not backend_class(name).available():
        raise FieldError(
            f"kernel backend {name!r} is unavailable in this environment (selected by {source})"
        )
    return name, source


def create_backend(field, requested: Optional[str] = None) -> KernelBackend:
    """Instantiate the backend for ``field`` per the selection precedence."""
    name, source = resolve_backend_name(requested)
    backend = backend_class(name)(field)
    backend.selected_by = source
    return backend
