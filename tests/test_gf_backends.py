"""Conformance and selection tests for the two GF kernel backends.

``native`` (where it builds) and ``windowed`` are pitted against ``poly_mul``
on the polynomial layer and the frozen per-symbol oracles of
``tests/_oracles/gf.py`` on the field and matrix layers, across degrees
17-2048, with spot checks at the ``huge_payloads`` degrees 8739 and 21846.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from _oracles.gf import matmul_loop, mul_fallback, vecmat_loop
from repro.exceptions import FieldError, MatrixError
from repro.gf import backends
from repro.gf.field import GF2m, get_field
from repro.gf.matrix import GFMatrix
from repro.gf.polynomials import poly_mul

#: Degrees the full conformance sweep exercises: beyond the log-table limit,
#: a non-tabulated search degree (100), and the large_payloads regime.
DEGREES = (17, 33, 100, 256, 1024, 2048)

#: The huge_payloads degrees, spot-checked with fewer samples (the bit-serial
#: oracle is quadratic, so each product costs real time here).
HUGE_DEGREES = (8739, 21846)

BACKENDS = [name for name in ("native", "windowed") if backends.backend_class(name).available()]


def _adversarial_operands(degree: int, rng: random.Random):
    """Random, all-ones, sparse and boundary operands for one degree."""
    order = 1 << degree
    return [
        rng.getrandbits(degree),
        rng.getrandbits(degree) | (1 << (degree - 1)),
        order - 1,  # all ones
        1 << (degree - 1),  # single top bit
        (1 << (degree // 2)) | 1,  # sparse
        1,
        0,
    ]


@pytest.mark.parametrize("name", BACKENDS)
class TestBackendConformance:
    def test_scalar_mul_matches_bitserial_oracle(self, name):
        rng = random.Random(11)
        for degree in DEGREES:
            field = GF2m(degree, kernel_backend=name)
            operands = _adversarial_operands(degree, rng)
            for a in operands:
                for b in operands:
                    assert field.mul(a, b) == mul_fallback(field, a, b), (name, degree, a, b)

    def test_raw_clmul_matches_poly_mul(self, name):
        rng = random.Random(12)
        for degree in DEGREES:
            field = GF2m(degree, kernel_backend=name)
            for _ in range(8):
                a = rng.getrandbits(degree) | 1
                b = rng.getrandbits(degree) | 1
                assert field._kernel.clmul(a, b) == poly_mul(a, b), (name, degree)

    def test_huge_degree_spot_check(self, name):
        rng = random.Random(13)
        for degree in HUGE_DEGREES:
            field = GF2m(degree, kernel_backend=name)
            a = rng.getrandbits(degree) | (1 << (degree - 1))
            b = rng.getrandbits(degree) | (1 << (degree - 1))
            assert field.mul(a, b) == mul_fallback(field, a, b), (name, degree)

    def test_vecmat_and_matmul_match_frozen_loops(self, name):
        rng = random.Random(15)
        for degree in (64, 1024):
            field = GF2m(degree, kernel_backend=name)
            # 70 columns spills past one stacked window at large degrees,
            # exercising the ragged final window of the batched kernels.
            matrix = GFMatrix.random(field, 5, 70, rng)
            vector = [field.random_element(rng) for _ in range(5)]
            assert matrix.vecmat(vector) == vecmat_loop(matrix, vector)
            sparse = [0, vector[1], 0, 0, vector[4]]
            assert matrix.vecmat(sparse) == vecmat_loop(matrix, sparse)
            assert matrix.vecmat([0] * 5) == [0] * 70
            left = GFMatrix.random(field, 3, 5, rng)
            assert (left @ matrix).to_lists() == matmul_loop(left, matrix).to_lists()

    def test_ragged_stacked_windows(self, name):
        rng = random.Random(16)
        field = GF2m(820, kernel_backend=name)
        for cols in (1, 2, 63, 64, 65, 130):
            matrix = GFMatrix.random(field, 2, cols, rng)
            vector = field.random_vector(2, rng)
            assert matrix.vecmat(vector) == vecmat_loop(matrix, vector), (name, cols)

    def test_pow_and_div_match_bitserial_oracle(self, name):
        rng = random.Random(14)
        for degree in DEGREES:
            field = GF2m(degree, kernel_backend=name)
            operands = [a for a in _adversarial_operands(degree, rng) if a]
            for a in operands:
                square = mul_fallback(field, a, a)
                assert field.pow(a, 2) == square, (name, degree)
                assert field.pow(a, 5) == mul_fallback(field, mul_fallback(field, square, square), a)
                inverse = field.pow(a, -1)
                assert mul_fallback(field, a, inverse) == 1, (name, degree)
                assert field.div(operands[0], a) == mul_fallback(field, operands[0], inverse)

    def test_linear_algebra_round_trips(self, name):
        rng = random.Random(17)
        for degree in (64, 1024):
            field = GF2m(degree, kernel_backend=name)
            matrix = GFMatrix.random(field, 4, 4, rng)
            identity = GFMatrix.identity(field, 4)
            inverse = matrix.inverse()
            assert matrix @ inverse == identity == matmul_loop(matrix, inverse)
            rhs = GFMatrix.random(field, 4, 2, rng)
            assert matmul_loop(matrix, matrix.solve(rhs)) == rhs
            rows = matrix.to_lists()
            rows[3] = [a ^ b for a, b in zip(rows[0], rows[1])]
            deficient = GFMatrix(field, rows)
            assert (matrix.rank(), deficient.rank()) == (4, 3)
            assert deficient.determinant() == 0 and not deficient.is_invertible()

    def test_vecmat_rejects_bad_vectors(self, name):
        field = GF2m(256, kernel_backend=name)
        for matrix in (GFMatrix.random(field, 3, 4, random.Random(18)), GFMatrix.random(field, 3, 4, 18)):
            with pytest.raises(MatrixError):
                matrix.vecmat([1, 2])
            with pytest.raises(MatrixError):
                matrix.vecmat([1, 2, 3, 4])
            with pytest.raises(FieldError):
                matrix.vecmat([1, 2, field.order])


@pytest.mark.parametrize("degree", (4096, 8192))
def test_encodes_agree_at_huge_payload_degrees(degree):
    # The coding-shaped encode of the huge_payloads grid on every backend,
    # against the per-symbol loop on a windowed field.
    rng = random.Random(7100 + degree)
    oracle = GF2m(degree, kernel_backend="windowed")
    entries = [[oracle.random_element(rng) for _ in range(4)] for _ in range(2)]
    vector = [oracle.random_element(rng) for _ in range(2)]
    expected = vecmat_loop(GFMatrix(oracle, entries), vector)
    for name in BACKENDS:
        field = GF2m(degree, kernel_backend=name)
        assert GFMatrix(field, entries).vecmat(vector) == expected, name


class TestSelection:
    def test_the_lookup_knows_exactly_native_and_windowed(self):
        assert backends.backend_class("native") is backends.NativeBackend
        assert backends.backend_class("windowed") is backends.WindowedBackend
        for name in ("numpy", "bitserial", "no-such-kernel"):
            with pytest.raises(FieldError, match="unknown kernel backend.*known: native, windowed"):
                backends.backend_class(name)

    def test_unknown_name_rejected(self):
        with pytest.raises(FieldError, match="unknown kernel backend"):
            GF2m(256, kernel_backend="no-such-kernel")

    def test_unknown_name_rejected_for_small_fields_too(self):
        with pytest.raises(FieldError):
            GF2m(8, kernel_backend="no-such-kernel")

    def test_env_override_respected(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_BACKEND, "windowed")
        field = GF2m(256)
        assert field.kernel_backend_name() == "windowed"
        assert field._kernel.selected_by == "env"

    @pytest.mark.parametrize("name", ("numpy", "bitserial", "no-such-kernel"))
    def test_env_unknown_name_rejected(self, monkeypatch, name):
        monkeypatch.setenv(backends.ENV_BACKEND, name)
        with pytest.raises(FieldError, match="unknown kernel backend"):
            GF2m(256)

    def test_explicit_argument_beats_env(self, monkeypatch):
        # The explicit name wins without the environment being consulted.
        monkeypatch.setenv(backends.ENV_BACKEND, "no-such-kernel")
        field = GF2m(256, kernel_backend="windowed")
        assert field.kernel_backend_name() == "windowed"
        assert field._kernel.selected_by == "explicit"

    def test_resolution_reports_its_source(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
        assert backends.resolve_backend_name() == (backends.auto_backend_name(), "auto")
        monkeypatch.setenv(backends.ENV_BACKEND, "windowed")
        assert backends.resolve_backend_name() == ("windowed", "env")
        assert backends.resolve_backend_name("windowed") == ("windowed", "explicit")
        monkeypatch.setattr(backends.NativeBackend, "available", classmethod(lambda cls: False))
        with pytest.raises(FieldError, match="unavailable.*selected by explicit"):
            backends.resolve_backend_name("native")

    def test_auto_policy(self, monkeypatch):
        if "native" in BACKENDS:
            assert backends.auto_backend_name() == "native"
        monkeypatch.setattr(backends.NativeBackend, "available", classmethod(lambda cls: False))
        assert backends.auto_backend_name() == "windowed"
        monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
        for degree in (256, 2185, 4096):
            assert GF2m(degree).kernel_backend_name() == "windowed"

    def test_selection_sticky_across_get_field_calls(self):
        # A degree no other test canonicalises, so the cache entry is ours.
        first = get_field(1031, kernel_backend="windowed")
        again = get_field(1031)
        assert again is first
        assert again.kernel_backend_name() == "windowed"

    def test_conflicting_backend_request_raises(self):
        get_field(1033, kernel_backend="windowed")
        with pytest.raises(FieldError, match="sticky"):
            get_field(1033, kernel_backend="native")

    def test_get_field_checks_the_name_on_a_small_cache_hit(self):
        get_field(8)
        with pytest.raises(FieldError, match="unknown kernel backend"):
            get_field(8, kernel_backend="no-such-kernel")

    def test_get_field_reports_an_unknown_name_not_a_conflict(self):
        get_field(256)
        with pytest.raises(FieldError, match="unknown kernel backend"):
            get_field(256, kernel_backend="no-such-kernel")

    def test_describe_reports_backend_and_caches(self):
        info = GF2m(1024, kernel_backend="windowed").describe()
        assert info["kernel_backend"] == "windowed"
        assert info["selected_by"] == "explicit"
        assert info["crossover"] == {"policy": "pure-Python fallback where native is unavailable"}
        assert {"window", "stacked"} <= set(info["caches"])


def test_module_level_stats_survive_a_topology_clear():
    # The kernel caches are bounded by their own budgets and tied to no
    # topology, so a sweep worker's per-topology clear leaves them warm.
    from repro.gf import field as field_module
    from repro.graph.flow_cache import all_cache_stats, clear_scope

    field = get_field(1031, kernel_backend="windowed")  # as the sticky test asks for it
    rng = random.Random(23)
    a = field.random_nonzero(rng)
    field.mul(a, field.random_nonzero(rng))
    field.mul(a, field.random_nonzero(rng))
    window = field_module.kernel_cache_stats()["GF(2^1031)"]["window"]
    assert window["entries"] >= 1 and window["hits"] >= 1
    assert all_cache_stats()["kernels"]["GF(2^1031)"]["window"] == window
    clear_scope("topology")
    assert field_module.kernel_cache_stats()["GF(2^1031)"]["window"] == window


def test_engine_and_service_import_without_numpy():
    # No kernel needs numpy, so a fresh interpreter importing the engine and
    # the service must not load it.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, repro.engine, repro.service; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
