"""The ``native`` kernel backend: limb boundaries, build, cache and fallback.

``tests/test_gf_backends.py`` conformance-tests every registered backend by
name; this file covers what only ``native`` has: 64-bit limb boundaries, the
block and Karatsuba-level boundaries of the raw product routine, the lazily
compiled and cached library (cold, warm, corrupted, raced, no compiler), and
the packaging that lets an installed copy find ``clmul.c``.  What a *drawn*
matrix must equal is ``tests/test_gf_draw_identity.py``.
The build/cache tests run fresh interpreters against a private cache
directory, so they neither depend on nor disturb the user's cache.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.resources
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import FieldError
from repro.gf import backends
from repro.gf.field import GF2m
from repro.gf.matrix import GFMatrix
from repro.gf.polynomials import poly_mul

REPO = Path(__file__).resolve().parent.parent

needs_native = pytest.mark.skipif(
    not backends.NativeBackend.available(),
    reason=f"native backend unavailable: {backends.NativeBackend.unavailable_reason()}",
)

#: One limb is 64 bits: degrees just under, at and over one and two limbs,
#: plus the two benchmark degrees (35 limbs with a ragged top, 64 exactly).
LIMB_DEGREES = (17, 63, 64, 65, 127, 128, 129, 2185, 4096)


def _edge_symbols(degree: int, rng: random.Random):
    return [
        (1 << degree) - 1,  # all ones
        1 << (degree - 1),  # single top bit
        0,
        rng.getrandbits(degree),
        1,
    ]


@needs_native
@pytest.mark.parametrize("degree", LIMB_DEGREES)
class TestLimbBoundaries:
    """``native`` against the per-symbol loops of a pure-Python field.

    The loops (``vecmat_loop`` / ``dot`` / ``scalar_mul``) multiply through
    their own field's scalar kernel, so the oracle field is pinned to a
    backend that shares no code with ``native``.
    """

    def _fields(self, degree):
        oracle = "bitserial" if degree <= 129 else "windowed"
        return GF2m(degree, kernel_backend="native"), GF2m(degree, kernel_backend=oracle)

    def test_vecmat_shapes_and_edge_symbols(self, degree):
        field, oracle = self._fields(degree)
        rng = random.Random(degree)
        symbols = _edge_symbols(degree, rng)
        for rows, cols in ((1, 1), (1, 4), (3, 1), (5, 3)):
            entries = [[rng.choice(symbols) for _ in range(cols)] for _ in range(rows)]
            entries[-1] = [0] * cols  # a zero row
            matrix, reference = GFMatrix(field, entries), GFMatrix(oracle, entries)
            for vector in ([rng.choice(symbols) for _ in range(rows)], [0] * rows, symbols[:1] * rows):
                assert matrix.vecmat(vector) == reference.vecmat_loop(vector), (rows, cols)

    def test_dot_vec_and_mul_vec(self, degree):
        field, oracle = self._fields(degree)
        rng = random.Random(1000 + degree)
        left = _edge_symbols(degree, rng)
        for right in (left, left[::-1], [left[0]] * len(left), [0] * len(left)):
            assert field.dot_vec(left, right) == oracle.dot(left, right)
            assert field.mul_vec(left, right) == [
                oracle.scalar_mul(a, [b])[0] for a, b in zip(left, right)
            ]
        assert field.dot_vec(left[:1], left[:1]) == oracle.mul(left[0], left[0])
        assert field.dot_vec([], []) == 0
        assert field.mul_vec([], []) == []


#: Limb counts around every boundary of the product routine: odd counts end
#: in half a block, and a Karatsuba level is added when half the blocks still
#: make five (20, 40, 80, 160, 320 limbs), each level padding to its own
#: multiple; plus the two benchmark widths (35, 64) and ``huge_payloads`` (342).
LIMB_COUNTS = (
    *(1, 2, 3, 15, 16, 17, 19, 20, 21, 31, 32, 33, 35, 39, 40, 41, 63, 64, 65),
    *(79, 80, 81, 159, 160, 161, 319, 320, 342),
)


@needs_native
@pytest.mark.parametrize("words", LIMB_COUNTS)
def test_raw_products_match_poly_mul_at_every_block_and_level_boundary(words):
    """One routine behind both entry points: ``clmul_pairs`` is ``mul_vec`` and
    scalar ``clmul``; ``clmul_vecmat`` is ``vecmat`` and, with one column,
    ``dot_vec``."""
    library, width = backends._native_library()[0], 8 * words
    unit = library.clmul_scratch(words)
    rng = random.Random(words)
    edges = [(1 << 8 * width) - 1, 1 << (8 * width - 1), 1, 0]

    def pack(values):
        return b"".join(value.to_bytes(width, "little") for value in values)

    def products(out, count):
        return [
            int.from_bytes(out[start : start + 2 * width], "little")
            for start in range(0, count * 2 * width, 2 * width)
        ]

    def guarded(count, terms):
        """``_native_out``'s buffer with a canary behind it, and a check that
        the kernel kept to the size Python gave it."""
        size = len(backends._native_out(count, terms, words, unit))
        out = ctypes.create_string_buffer(b"\xa5" * (size + 32), size + 32)
        return out, lambda: out[size:] == b"\xa5" * 32

    def check_pairs(a, b):
        out, intact = guarded(len(a), 1)
        library.clmul_pairs(len(a), words, pack(a), pack(b), out)
        assert intact()
        assert products(out, len(a)) == [poly_mul(x, y) for x, y in zip(a, b)]

    def check_vecmat(rows, cols, x, m):
        out, intact = guarded(cols, rows)
        library.clmul_vecmat(rows, cols, words, pack(x), pack(m), out)
        assert intact()
        expected = [0] * cols
        for row, symbol in enumerate(x):
            for column in range(cols):
                expected[column] ^= poly_mul(symbol, m[row * cols + column])
        assert products(out, cols) == expected, (rows, cols)

    def symbols(count):
        return [
            rng.choice(edges[:2]) if rng.random() < 0.25 else rng.getrandbits(8 * width)
            for _ in range(count)
        ]

    check_pairs([a for a in edges for _ in edges], edges * len(edges))
    for count in (1, 3):
        check_pairs(symbols(count), symbols(count))
    for rows, cols in ((1, 1), (3, 1), (1, 3), (3, 2)):
        check_vecmat(rows, cols, symbols(rows), symbols(rows * cols))


@needs_native
class TestNativeBackend:
    def test_sizes_are_checked_before_any_pointer_is_passed(self):
        field = GF2m(100, kernel_backend="native")
        kernel = field._kernel
        with pytest.raises(OverflowError):
            kernel.clmul(1 << 128, 1)  # wider than the field's two limbs
        with pytest.raises(OverflowError):
            kernel.clmul(-1, 1)
        matrix = GFMatrix.random(field, 3, 2, random.Random(1))
        with pytest.raises(FieldError):
            kernel.vecmat(matrix, [1, 2])
        with pytest.raises(FieldError):
            kernel.dot_vec([1, 2], [1])
        with pytest.raises(FieldError):
            kernel.mul_vec([1], [1, 2])

    def test_a_hand_built_matrix_packs_once_and_a_drawn_one_never(self):
        field = GF2m(2185, kernel_backend="native")

        def stats():
            return field.kernel_cache_stats()["native_matrices"]

        drawn = GFMatrix.random(field, 4, 6, 2)
        vector = field.random_vector(4, random.Random(3))
        sparse = [vector[0], 0, vector[2], 0]
        first = drawn.vecmat(vector)
        assert drawn.vecmat(vector) == first
        assert len(drawn._limbs) == 4 * 6 * 35 * 8 and drawn._kctx is None
        assert stats() == {"hits": 0, "misses": 0, "bytes_built": 0}
        built = GFMatrix(field, drawn.to_lists())
        assert built.vecmat(vector) == first == built.vecmat(vector)
        assert built.vecmat(sparse) == drawn.vecmat(sparse) == built.vecmat_loop(sparse)
        assert built._limbs is None and bytes(built._kctx) == bytes(drawn._limbs)
        assert stats() == {"hits": 2, "misses": 1, "bytes_built": 4 * 6 * 35 * 8}

    def test_a_limb_buffer_of_the_wrong_size_never_reaches_the_kernel(self):
        field = GF2m(100, kernel_backend="native")
        matrix = GFMatrix._from_limbs(field, 2, 2, bytes(2 * 2 * 8))  # one limb an entry, not two
        with pytest.raises(FieldError):
            matrix.vecmat([1, 2])

    def test_describe_names_the_library(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
        info = GF2m(256).describe()
        assert info["kernel_backend"] == "native" and info["selected_by"] == "auto"
        crossover = info["crossover"]
        assert os.path.isfile(crossover["library"])
        assert crossover["build"] in ("built", "cached")
        source = importlib.resources.files("repro.gf").joinpath("clmul.c").read_bytes()
        assert crossover["source_sha256"] == hashlib.sha256(source).hexdigest()
        assert crossover["limbs"] == 4
        assert "native_unavailable" not in info


# ------------------------------------------------- fresh-interpreter scenarios

#: Run in a child: counts compiler launches, builds one big field, multiplies,
#: and prints what the field says about itself.
_PROBE = """
import json, random, subprocess, sys
launches = []
real = subprocess.Popen.__init__
def counting(self, args, *a, **k):
    launches.append(args)
    return real(self, args, *a, **k)
subprocess.Popen.__init__ = counting
from repro.gf import backends
from repro.gf.field import GF2m
from repro.gf.matrix import GFMatrix
from repro.gf.polynomials import poly_mul
field = GF2m(2185)
rng = random.Random(7)
matrix = GFMatrix.random(field, 3, 4, rng)
info = field.describe()
print(json.dumps({
    "launches": len(launches),
    "auto": [backends.auto_backend_name(degree) for degree in (256, 2185, 4096)],
    "backend": info["kernel_backend"],
    "build": info["crossover"].get("build"),
    "library": info["crossover"].get("library"),
    "unavailable": info.get("native_unavailable"),
    "values": [hex(value) for value in matrix.vecmat(field.random_vector(3, rng))],
}))
"""


def _child(code: str, cache_dir, pythonpath=REPO / "src", compiler: bool = True, **extra):
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("CC", backends.ENV_BACKEND, "PYTHONPATH")
    }
    env.update(XDG_CACHE_HOME=str(cache_dir), PYTHONPATH=str(pythonpath), **extra)
    Path(cache_dir).mkdir(exist_ok=True)
    if not compiler:
        empty = Path(cache_dir) / "no-tools"
        empty.mkdir(exist_ok=True)
        env["PATH"] = str(empty)
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        cwd=str(cache_dir),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(process) -> dict:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def _libraries(cache_dir):
    return sorted((Path(cache_dir) / "repro").glob("clmul-*.so"))


@needs_native
class TestBuildAndCache:
    def test_cold_build_warm_reuse_corruption_and_fallback(self, tmp_path):
        cold = _finish(_child(_PROBE, tmp_path))
        assert (cold["backend"], cold["build"], cold["launches"]) == ("native", "built", 1)
        assert cold["auto"] == ["native"] * 3
        (library,) = _libraries(tmp_path)
        assert str(library) == cold["library"]
        assert (library.parent.stat().st_mode & 0o777) == 0o700

        warm = _finish(_child(_PROBE, tmp_path))
        assert (warm["backend"], warm["build"], warm["launches"]) == ("native", "cached", 0)
        # With the library cached, a host that has since lost its compiler still runs it.
        assert _finish(_child(_PROBE, tmp_path, compiler=False))["build"] == "cached"

        # Half a library takes a process down inside dlopen (SIGBUS) unless it
        # is caught first; the next process must rebuild instead.
        whole = library.read_bytes()
        library.write_bytes(whole[: len(whole) // 2])
        rebuilt = _finish(_child(_PROBE, tmp_path))
        assert (rebuilt["backend"], rebuilt["build"], rebuilt["launches"]) == ("native", "built", 1)
        assert [path.read_bytes() for path in _libraries(tmp_path)] == [whole]

        # Corrupted again and no compiler to rebuild with: the pure-Python
        # tier takes over with the parent's policy, says why, same values.
        library.write_bytes(b"")
        fallback = _finish(_child(_PROBE, tmp_path, compiler=False))
        assert fallback["backend"] == "windowed"
        assert fallback["auto"] == ["windowed", "windowed", "numpy"]
        assert "compiler" in fallback["unavailable"]
        assert fallback["launches"] == 0
        assert _libraries(tmp_path) == []
        assert cold["values"] == warm["values"] == rebuilt["values"] == fallback["values"]

    def test_racing_cold_builds_end_with_one_valid_library(self, tmp_path):
        racers = [_child(_PROBE, tmp_path) for _ in range(3)]
        results = [_finish(process) for process in racers]
        assert all(result["backend"] == "native" for result in results)
        assert len({tuple(result["values"]) for result in results}) == 1
        assert len(_libraries(tmp_path)) == 1
        assert not list((tmp_path / "repro").glob("*.tmp"))
        after = _finish(_child(_PROBE, tmp_path))
        assert (after["build"], after["launches"]) == ("cached", 0)

    def test_failing_compiler_is_a_reason_not_an_error(self, tmp_path):
        broken = _finish(_child(_PROBE, tmp_path, CC=f"{sys.executable} -c raise(SystemExit(3))"))
        assert broken["backend"] == "windowed"
        assert "failed" in broken["unavailable"]
        missing = _finish(_child(_PROBE, tmp_path, CC="/nonexistent/cc"))
        assert missing["backend"] == "windowed"
        assert "cannot run" in missing["unavailable"]

    def test_small_fields_and_imports_never_touch_the_compiler(self, tmp_path):
        code = """
import json, subprocess
launches = []
real = subprocess.Popen.__init__
subprocess.Popen.__init__ = lambda self, *a, **k: (launches.append(a), real(self, *a, **k))[1]
import repro
from repro.gf import backends
from repro.gf.field import GF2m, get_field, kernel_cache_stats
from repro.graph.generators import complete_graph
GF2m(8).mul(3, 5); get_field(16).inv(7)
nab = repro.NetworkAwareBroadcast(complete_graph(4, capacity=2), source=1, max_faults=1)
nab.run_instance(b"hi")
print(json.dumps({"launches": len(launches), "probed": backends._native_state is not None,
                  "stats": kernel_cache_stats()}))
"""
        result = _finish(_child(code, tmp_path))
        assert result == {"launches": 0, "probed": False, "stats": {}}
        assert not (tmp_path / "repro").exists()

    def test_large_payloads_cell_is_the_same_row_on_the_fallback_tier(self, tmp_path):
        code = """
import json
from repro.engine.runner import run_cell
from repro.engine.specs import get_spec
from repro.gf import backends
cell = next(cell for cell in get_spec("large_payloads").expand() if cell.protocol == "nab")
row = run_cell(cell)
print(json.dumps({"row": row, "native": backends.NativeBackend.available()}, sort_keys=True))
"""
        native = _finish(_child(code, tmp_path))
        fallback = _finish(_child(code, tmp_path / "elsewhere", compiler=False))
        assert native["native"] and not fallback["native"]
        assert fallback["row"].get("error") is None
        assert fallback["row"]["record"]["agreement_ok"] and fallback["row"]["record"]["validity_ok"]
        assert fallback["row"] == native["row"]


class TestPackaging:
    def test_source_is_a_package_resource_from_the_checkout(self):
        resource = importlib.resources.files("repro.gf").joinpath("clmul.c")
        assert resource.is_file() and b"clmul_vecmat" in resource.read_bytes()

    def test_source_ships_with_an_installed_copy(self, tmp_path):
        pytest.importorskip("setuptools")
        installed = tmp_path / "site"
        subprocess.run(
            [sys.executable, "setup.py", "-q", "build_py", "--build-lib", str(installed)],
            cwd=str(REPO),
            check=True,
            capture_output=True,
            timeout=120,
        )
        code = """
import importlib.resources, json, repro
resource = importlib.resources.files("repro.gf").joinpath("clmul.c")
print(json.dumps({"package": repro.__file__, "found": resource.is_file()}))
"""
        result = _finish(_child(code, tmp_path, pythonpath=installed))
        assert result["package"].startswith(str(installed)) and result["found"]
