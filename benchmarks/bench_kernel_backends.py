"""Kernel-backend benchmarks (PR 7 gate): every registered GF backend side-by-side.

Two suites:

* ``clmul_degree_<m>`` — one warm scalar carry-less product per available
  backend across degrees 256-21846 (the ``large_payloads`` +
  ``huge_payloads`` regime), recording microseconds per product.  This is the
  raw-primitive comparison the policy in ``repro.gf.backends`` is derived
  from: the ``native`` PCLMULQDQ product beats a *warm* window table from
  degree 256 up, which is why it takes scalar products at every degree, and
  on the pure-Python tier the ``numpy`` FFT product only overtakes the
  windowed scan in the tens of thousands of bits.

* ``encode_degree_<m>`` — the acceptance gate.  The coding-shaped encode
  (``GFMatrix.vecmat``) under the *auto-selected* backend must beat the same
  encode pinned to the PR 5 stacked windowed kernels by >= 3x at degrees
  4096 and 8192 (full mode; fast mode gates a reduced margin on shrunken
  shapes).  The same encode is timed under every other available batched
  backend beside it (``numpy`` where ``native`` is the auto choice).  Values
  are asserted identical across backends before any timing.

Extras record the gate fields' ``describe()`` snapshots, so the committed
baseline documents which backend the policy picked and why.
"""

from __future__ import annotations

import random

from _harness import fast_mode, scaled, suite_result, time_callable, write_results
from repro.gf import backends
from repro.gf.field import GF2m
from repro.gf.matrix import GFMatrix

#: Scalar-product degrees: the large_payloads regime up to the top
#: huge_payloads degree (GF(2^21846) carries the 256 KB / k5-hbd cells).
CLMUL_DEGREES = scaled((256, 1024, 4096, 8192, 21846), (256, 1024, 4096))

#: The quadratic bit-serial oracle is only timed where it stays cheap.
BITSERIAL_MAX_DEGREE = 1024

#: Encode-gate shapes: rho x columns of a coding-shaped matrix at the two
#: degrees where an accelerated backend must carry the huge_payloads grid.
GATE_DEGREES = (4096, 8192)
GATE_RHO = 8
GATE_COLUMNS = 16
ENCODES = scaled(24, 4)
REPEATS = scaled(3, 1)
#: Full-mode floor is the ISSUE's 3x; measured on the reference box the auto
#: backend clears it with margin (see the committed baseline).  Fast mode
#: shrinks ENCODES below amortisation, so it only anti-rot gates.
MIN_ENCODE_SPEEDUP = {4096: scaled(3.0, 1.2), 8192: scaled(3.0, 1.5)}


def _scalar_suites():
    results = {}
    for degree in CLMUL_DEGREES:
        rng = random.Random(7000 + degree)
        a = rng.getrandbits(degree) | (1 << (degree - 1))
        b = rng.getrandbits(degree) | (1 << (degree - 1))
        iterations = max(1, scaled(400_000, 60_000) // degree)
        per_backend = {}
        reference = None
        for name in backends.available_backend_names():
            if name == "bitserial" and degree > BITSERIAL_MAX_DEGREE:
                continue
            field = GF2m(degree, kernel_backend=name)
            product = field.mul(a, b)
            if reference is None:
                reference = product
            assert product == reference, (
                f"backend {name} diverged at degree {degree}"
            )

            def _run(mul=field.mul):
                for _ in range(iterations):
                    mul(a, b)

            _run()  # warm operand/window caches
            seconds, _ = time_callable(_run, repeat=REPEATS)
            per_backend[name] = seconds / iterations
        results[degree] = (iterations, per_backend)
    return results


def _encode_suite(degree: int):
    """Seconds per backend for the gate encode, plus the auto-selected field."""
    auto_field = GF2m(degree)
    fields = {
        name: GF2m(degree, kernel_backend=name)
        for name in backends.available_backend_names()
        if name != "bitserial"  # declines vecmat: it would time the windowed scan again
    }
    fields[auto_field.kernel_backend_name()] = auto_field
    rng = random.Random(7100 + degree)
    entries = [
        [auto_field.random_element(rng) for _ in range(GATE_COLUMNS)]
        for _ in range(GATE_RHO)
    ]
    vectors = [
        [auto_field.random_element(rng) for _ in range(GATE_RHO)]
        for _ in range(ENCODES)
    ]
    matrices = {name: GFMatrix(field, entries) for name, field in fields.items()}
    outputs = {
        name: [matrix.vecmat(vector) for vector in vectors]  # also warms every cache
        for name, matrix in matrices.items()
    }
    for name, output in outputs.items():
        assert output == outputs["windowed"], (
            f"{name} encode diverged from the windowed kernels at degree {degree}"
        )

    seconds = {}
    for name, matrix in matrices.items():

        def _run(vecmat=matrix.vecmat):
            for vector in vectors:
                vecmat(vector)

        seconds[name], _ = time_callable(_run, repeat=REPEATS)
    return seconds, auto_field


def test_kernel_backends(benchmark):
    def _run():
        scalars = _scalar_suites()
        encodes = {degree: _encode_suite(degree) for degree in GATE_DEGREES}
        return scalars, encodes

    scalars, encodes = benchmark.pedantic(_run, rounds=1, iterations=1)

    suites = {}
    print()
    for degree, (iterations, per_backend) in scalars.items():
        parts = "  ".join(
            f"{name} {seconds * 1e6:9.1f}us" for name, seconds in sorted(per_backend.items())
        )
        print(f"GF(2^{degree:<5}) clmul x{iterations}: {parts}")
        fastest = min(per_backend, key=per_backend.get)
        suites[f"clmul_degree_{degree}"] = suite_result(
            per_backend[fastest] * iterations,
            operations=iterations,
            field_degree=degree,
            fastest_backend=fastest,
            seconds_per_op={name: seconds for name, seconds in per_backend.items()},
        )

    gate_speedups = {}
    for degree, (seconds, auto_field) in encodes.items():
        description = auto_field.describe()
        auto_seconds = seconds[description["kernel_backend"]]
        windowed_seconds = seconds["windowed"]
        speedup = windowed_seconds / auto_seconds
        gate_speedups[degree] = speedup
        parts = "  ".join(f"{name} {value * 1e3:8.2f} ms" for name, value in sorted(seconds.items()))
        print(
            f"GF(2^{degree}) encode {GATE_RHO}x{GATE_COLUMNS} x{ENCODES}: {parts}  "
            f"(auto {description['kernel_backend']}, {speedup:5.1f}x over windowed)"
        )
        suites[f"encode_degree_{degree}"] = suite_result(
            auto_seconds,
            operations=ENCODES,
            field_degree=degree,
            rho=GATE_RHO,
            columns=GATE_COLUMNS,
            auto_backend=description["kernel_backend"],
            selected_by=description["selected_by"],
            crossover=description["crossover"],
            seconds_per_backend=seconds,
            baseline_wall_seconds=windowed_seconds,
            speedup_vs_windowed_stacked=speedup,
        )

    path = write_results("kernel_backends", suites)
    print(f"wrote {path}")

    auto_names = {
        degree: encodes[degree][1].kernel_backend_name() for degree in GATE_DEGREES
    }
    if all(name == "windowed" for name in auto_names.values()):
        # Neither native nor numpy usable: the auto policy legitimately
        # resolves to the windowed kernels themselves; nothing to gate.
        print("no accelerated backend available; encode gate skipped")
        return
    for degree, speedup in gate_speedups.items():
        gate = MIN_ENCODE_SPEEDUP[degree]
        assert speedup >= gate, (
            f"degree-{degree} auto-backend encode speedup {speedup:.1f}x below "
            f"the {gate:.1f}x gate over the PR 5 stacked kernels"
        )
