"""A coding matrix drawn in C is the matrix ``random.Random`` would have drawn.

Persisted rows embed the coded symbols, so the ``native`` backend's seeded
draw (``clmul_draw``: MT19937 seeded and read exactly as CPython does, written
straight into limbs) may differ from the Python draw in nothing: not in a
value, and not in how a limb-resident :class:`GFMatrix` behaves once something
reads its entries.  The pinned ``mid_field`` / ``fft_field`` digests under
``REPRO_GF_BACKEND=windowed`` (CI's ``fallback-kernels`` job) hold the same
identity end to end.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from _oracles.gf import vecmat_loop
from repro.coding.coding_matrix import CodingScheme, generate_coding_scheme
from repro.gf import backends
from repro.gf.field import GF2m
from repro.gf.matrix import GFMatrix
from repro.workloads.topologies import topology

from test_gf_native import _child, _finish

pytestmark = pytest.mark.skipif(
    not backends.NativeBackend.available(),
    reason=f"native backend unavailable: {backends.NativeBackend.unavailable_reason()}",
)

#: Around one and two 32-bit generator words and one limb, the two benchmark
#: degrees, and ``huge_payloads``' (odd word count: half its top limb is padding).
DEGREES = (17, 32, 33, 63, 64, 65, 2185, 4096, 8739)

#: ``init_by_array`` keys of one word (zero, one, all ones), two words, four
#: (a 100-bit seed), and a negative seed (``random.Random`` takes its magnitude).
SEEDS = (0, 1, 2**32 - 1, 2**32, (1 << 99) | 0x9E3779B97F4A7C15, -123456789012345678901)


@pytest.mark.parametrize("degree", DEGREES)
def test_seeded_draw_equals_the_python_generator(degree):
    field = GF2m(degree, kernel_backend="native")
    for seed in SEEDS:
        rng = random.Random(seed)
        expected = [[field.random_element(rng) for _ in range(3)] for _ in range(5)]
        drawn = GFMatrix.random(field, 5, 3, seed)
        assert drawn._limbs is not None
        assert drawn.to_lists() == expected, (degree, seed)
        # A caller-owned generator keeps the Python draw, and is advanced by it.
        rng = random.Random(seed)
        owned = GFMatrix.random(field, 5, 3, rng)
        assert owned._limbs is None and owned.to_lists() == expected
        assert rng.getrandbits(64) == _after(seed, degree, 15)


def _after(seed: int, degree: int, draws: int) -> int:
    rng = random.Random(seed)
    for _ in range(draws):
        rng.getrandbits(degree)
    return rng.getrandbits(64)


def test_a_seed_on_a_field_without_the_hook_is_the_python_draw():
    for field in (GF2m(8), GF2m(2185, kernel_backend="windowed")):
        rng = random.Random(77)
        expected = [[field.random_element(rng) for _ in range(4)] for _ in range(2)]
        matrix = GFMatrix.random(field, 2, 4, 77)
        assert matrix._limbs is None and matrix.to_lists() == expected


class TestLimbResidentMatrix:
    """The same matrix as limbs and as the integers read back from them."""

    @pytest.fixture
    def pair(self):
        field = GF2m(2185, kernel_backend="native")
        resident = GFMatrix.random(field, 3, 4, 11)
        return field, resident, GFMatrix(field, GFMatrix.random(field, 3, 4, 11).to_lists())

    def test_vecmat_before_any_entry_is_read(self, pair):
        field, resident, built = pair
        vector = field.random_vector(3, random.Random(5))
        assert resident.vecmat(vector) == built.vecmat(vector) == vecmat_loop(built, vector)

    def test_entry_readers(self, pair):
        field, resident, built = pair
        assert resident == built and hash(resident) == hash(built)
        assert resident.transpose() == built.transpose()
        assert resident.rank() == built.rank() == 3
        assert resident.row(1) == built.row(1) and resident.entry(2, 3) == built.entry(2, 3)
        assert not resident.is_zero()
        # Reading entries leaves the limbs in place: encodes still use them.
        vector = field.random_vector(3, random.Random(6))
        assert resident._limbs is not None and resident.vecmat(vector) == built.vecmat(vector)

    def test_combined_matrix_concatenates_limb_rows(self, pair):
        field, resident, built = pair
        wide = GFMatrix.random(field, 3, 2, 12)
        edges = ((1, 2), (1, 3), (2, 3))

        def scheme(*matrices):
            return CodingScheme(
                field=field, rho=3, symbol_bits=2185, matrices=dict(zip(edges, matrices)), seed=0
            )

        combined, widths = scheme(resident, wide, resident).combined_matrix(edges)
        expected, same = scheme(
            built, GFMatrix(field, wide.to_lists()), built
        ).combined_matrix(edges)
        assert widths == same == (4, 2, 4)
        assert combined._limbs is not None and expected._limbs is None
        vector = field.random_vector(3, random.Random(7))
        assert combined.vecmat(vector) == expected.vecmat(vector)
        assert combined == expected and combined.shape == (3, 10)
        # One matrix without limbs and the concatenation is of integers.
        mixed, _ = scheme(resident, GFMatrix(field, wide.to_lists()), built).combined_matrix(edges)
        assert mixed._limbs is None and mixed == expected
        assert resident.hstack(wide) == built.hstack(wide)


_SCHEME_DIGEST = """
import hashlib, json
from repro.coding.coding_matrix import generate_coding_scheme
from repro.workloads.topologies import topology
scheme = generate_coding_scheme(topology("k4-fast"), 3, 2185, seed=9, instance=4)
digest = hashlib.sha256(repr(
    [(edge, scheme.matrices[edge].to_lists()) for edge in scheme.edges()]
).encode()).hexdigest()
print(json.dumps({"backend": scheme.field.kernel_backend_name(), "digest": digest}))
"""


def test_generated_scheme_is_entry_equal_under_windowed_and_native(tmp_path):
    results = {
        name: _finish(_child(_SCHEME_DIGEST, tmp_path, REPRO_GF_BACKEND=name))
        for name in ("windowed", "native")
    }
    assert {name: result["backend"] for name, result in results.items()} == {
        "windowed": "windowed",
        "native": "native",
    }
    assert results["windowed"]["digest"] == results["native"]["digest"]
    # And in this process, whichever backend its canonical field got.
    scheme = generate_coding_scheme(topology("k4-fast"), 3, 2185, seed=9, instance=4)
    entries = repr([(edge, scheme.matrices[edge].to_lists()) for edge in scheme.edges()])
    assert hashlib.sha256(entries.encode()).hexdigest() == results["native"]["digest"]
