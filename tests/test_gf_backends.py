"""Conformance and registry tests for the pluggable GF kernel backends.

Every backend registered in :mod:`repro.gf.backends` is pitted against the
frozen bit-serial oracles (``poly_mul`` on the polynomial layer,
``GF2m._mul_fallback`` / ``vecmat_loop`` / ``matmul_loop`` on the field and
matrix layers) across degrees 17-2048, with spot checks at the
``huge_payloads`` degrees 8739 and 21846.  Backends added later are picked up
automatically — the suite iterates :func:`available_backend_names`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.spec import FAULT_FREE, ExperimentSpec
from repro.exceptions import ConfigurationError, FieldError
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

BACKENDS = backends.available_backend_names()


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
                    assert field.mul(a, b) == field._mul_fallback(a, b), (
                        name,
                        degree,
                        a,
                        b,
                    )

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
            assert field.mul(a, b) == field._mul_fallback(a, b), (name, degree)

    def test_vector_kernels_match_oracles(self, name):
        rng = random.Random(14)
        for degree in (17, 256, 1024):
            field = GF2m(degree, kernel_backend=name)
            left = field.random_vector(7, rng)
            right = field.random_vector(7, rng)
            assert field.dot_vec(left, right) == field.dot(left, right)
            assert field.mul_vec(left, right) == [
                field._mul_fallback(a, b) for a, b in zip(left, right)
            ]
            scalar = field.random_nonzero(rng)
            assert field.scale_vec(scalar, left) == [
                field._mul_fallback(scalar, a) for a in left
            ]

    def test_vecmat_and_matmul_match_frozen_loops(self, name):
        rng = random.Random(15)
        for degree in (64, 1024):
            field = GF2m(degree, kernel_backend=name)
            # 70 columns spills past one stacked window at large degrees,
            # exercising the ragged final window of the batched kernels.
            matrix = GFMatrix.random(field, 5, 70, rng)
            vector = [field.random_element(rng) for _ in range(5)]
            assert matrix.vecmat(vector) == matrix.vecmat_loop(vector)
            sparse = [0, vector[1], 0, 0, vector[4]]
            assert matrix.vecmat(sparse) == matrix.vecmat_loop(sparse)
            assert matrix.vecmat([0] * 5) == [0] * 70
            left = GFMatrix.random(field, 3, 5, rng)
            assert (left @ matrix).to_lists() == left.matmul_loop(matrix).to_lists()

    def test_ragged_stacked_batches(self, name):
        rng = random.Random(16)
        field = GF2m(820, kernel_backend=name)
        scalar = field.random_nonzero(rng)
        for length in (1, 2, 63, 64, 65, 130):
            vector = field.random_vector(length, rng)
            assert field.scale_vec(scalar, vector) == [
                field._mul_fallback(scalar, value) for value in vector
            ], (name, length)


@pytest.mark.parametrize("degree", (4096, 8192))
def test_batched_encodes_agree_at_huge_payload_degrees(degree):
    # The coding-shaped encode every batched backend carries for the
    # huge_payloads grid, against the windowed per-symbol loop.
    rng = random.Random(7100 + degree)
    oracle = GF2m(degree, kernel_backend="windowed")
    entries = [[oracle.random_element(rng) for _ in range(4)] for _ in range(2)]
    vector = [oracle.random_element(rng) for _ in range(2)]
    expected = GFMatrix(oracle, entries).vecmat_loop(vector)
    for name in BACKENDS:
        if name != "bitserial":  # declines vecmat: it would rerun the windowed scan
            field = GF2m(degree, kernel_backend=name)
            assert GFMatrix(field, entries).vecmat(vector) == expected, name


class TestRegistry:
    def test_exactly_the_shipped_backends_registered(self):
        assert backends.backend_names() == ["bitserial", "native", "numpy", "windowed"]

    def test_unknown_name_rejected(self):
        with pytest.raises(FieldError, match="unknown kernel backend"):
            GF2m(256, kernel_backend="no-such-kernel")
        with pytest.raises(FieldError):
            backends.backend_class("no-such-kernel")

    def test_unknown_name_rejected_for_small_fields_too(self):
        with pytest.raises(FieldError):
            GF2m(8, kernel_backend="no-such-kernel")

    def test_env_override_respected(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_BACKEND, "bitserial")
        field = GF2m(256)
        assert field.kernel_backend_name() == "bitserial"
        assert field._kernel.selected_by == "env"

    def test_env_unknown_name_rejected(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_BACKEND, "no-such-kernel")
        with pytest.raises(FieldError):
            GF2m(256)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_BACKEND, "bitserial")
        field = GF2m(256, kernel_backend="windowed")
        assert field.kernel_backend_name() == "windowed"
        assert field._kernel.selected_by == "explicit"

    def test_auto_policy(self, monkeypatch):
        if "native" in BACKENDS:
            for degree in (17, 256, 2185, backends.NUMPY_MIN_DEGREE, 21846):
                assert backends.auto_backend_name(degree) == "native"
        # The pure-Python tier underneath is the pre-native policy, unchanged.
        monkeypatch.setattr(backends.NativeBackend, "available", classmethod(lambda cls: False))
        assert backends.auto_backend_name(256) == "windowed"
        assert backends.auto_backend_name(2185) == "windowed"
        if "numpy" in BACKENDS:
            assert backends.auto_backend_name(backends.NUMPY_MIN_DEGREE) == "numpy"

    @pytest.mark.skipif("numpy" not in BACKENDS, reason="numpy not importable")
    def test_selection_sticky_across_get_field_calls(self):
        # A degree no other test canonicalises, so the cache entry is ours.
        first = get_field(1031, kernel_backend="numpy")
        again = get_field(1031)
        assert again is first
        assert again.kernel_backend_name() == "numpy"

    def test_conflicting_backend_request_raises(self):
        get_field(1033, kernel_backend="windowed")
        with pytest.raises(FieldError, match="sticky"):
            get_field(1033, kernel_backend="bitserial")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(FieldError):
            backends.register_backend(backends.WindowedBackend)

    @pytest.mark.skipif("numpy" not in BACKENDS, reason="numpy not importable")
    def test_describe_reports_backend_and_crossover(self):
        field = GF2m(1024, kernel_backend="numpy")
        info = field.describe()
        assert info["kernel_backend"] == "numpy"
        assert info["selected_by"] == "explicit"
        assert info["crossover"]["auto_selected_from_degree"] == backends.NUMPY_MIN_DEGREE
        assert "fft_operands" in info["caches"]


@pytest.mark.skipif("numpy" not in BACKENDS, reason="numpy not importable")
class TestOperandCaches:
    def test_clear_kernel_caches_drops_operands_keeps_counters(self):
        field = GF2m(16384, kernel_backend="numpy")  # scalar products by FFT from here
        rng = random.Random(22)
        a = field.random_nonzero(rng)
        field.mul(a, field.random_nonzero(rng))
        field.mul(a, field.random_nonzero(rng))
        stats = field.kernel_cache_stats()["fft_operands"]
        assert stats["hits"] >= 1 and stats["entries"] >= 1
        assert 0 < stats["bytes"] <= stats["budget_bytes"]
        field.clear_kernel_caches()
        cleared = field.kernel_cache_stats()["fft_operands"]
        assert cleared["entries"] == 0 and cleared["bytes"] == 0
        assert cleared["misses"] == stats["misses"]

    def test_module_level_stats_and_clear(self):
        from repro.gf import field as field_module

        field = get_field(1031, kernel_backend="numpy")  # as the sticky test asks for it
        rng = random.Random(23)
        a, b = field.random_nonzero(rng), field.random_nonzero(rng)
        assert field._kernel._fft_clmul(a, b) == poly_mul(a, b)
        assert field_module.kernel_cache_stats()["GF(2^1031)"]["fft_operands"]["entries"] == 2
        field_module.clear_kernel_caches()
        assert field_module.kernel_cache_stats()["GF(2^1031)"]["fft_operands"]["entries"] == 0

    def test_numpy_matrix_spectra_cached_within_budget(self):
        field = GF2m(4096, kernel_backend="numpy")
        rng = random.Random(24)
        matrix = GFMatrix.random(field, 4, 6, rng)
        vector = [field.random_element(rng) for _ in range(4)]
        first = matrix.vecmat(vector)
        second = matrix.vecmat(vector)
        assert first == second == matrix.vecmat_loop(vector)
        stats = field.kernel_cache_stats()["fft_matrices"]
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        assert matrix._kctx is not None


class TestSpecIntegration:
    def test_spec_rejects_unknown_backend(self):
        spec = ExperimentSpec(
            name="bad-backend",
            topologies=("k4-fast",),
            strategies=(FAULT_FREE,),
            payload_bytes=(8,),
            fault_counts=(1,),
            protocols=("nab",),
            kernel_backend="no-such-kernel",
        )
        with pytest.raises(ConfigurationError, match="kernel backend"):
            spec.expand()

    def test_spec_accepts_registered_backend_and_keeps_cell_ids(self):
        base = dict(
            topologies=("k4-fast",),
            strategies=(FAULT_FREE,),
            payload_bytes=(8,),
            fault_counts=(1,),
            protocols=("nab",),
        )
        plain = ExperimentSpec(name="s", **base).expand()
        forced = ExperimentSpec(name="s", kernel_backend="windowed", **base).expand()
        # Backends never change values, so the backend axis must not leak
        # into cell identities (or their derived seeds).
        assert [cell.cell_id for cell in forced] == [cell.cell_id for cell in plain]
        assert [cell.seed for cell in forced] == [cell.seed for cell in plain]

    def test_runner_propagates_and_restores_env(self, monkeypatch):
        import os

        from repro.engine.runner import run_spec

        monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
        spec = ExperimentSpec(
            name="env-probe",
            topologies=("k4-fast",),
            strategies=(FAULT_FREE,),
            payload_bytes=(8,),
            fault_counts=(1,),
            protocols=("nab",),
            instances=1,
            kernel_backend="windowed",
        )
        seen: list = []
        run_spec(
            spec,
            out_path=None,
            workers=1,
            progress=lambda row: seen.append(os.environ.get(backends.ENV_BACKEND)),
        )
        assert seen == ["windowed"]
        assert backends.ENV_BACKEND not in os.environ
