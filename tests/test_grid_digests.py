"""The headline grids are fixed points: pin every registered one byte for byte.

ROADMAP names the grids ``run_spec`` persists as what a refactor or an
optimisation must leave alone.  ``benchmarks/layers/pins.json`` pins the six
benchmark batches; this pins the sha256 of each named spec's JSONL exactly as
``run_spec`` writes it, so a relay, EIG, transport or accounting edit that
moves one decision, one elapsed ``Fraction`` or one bit count of any cell
fails here by name.  (``huge_payloads`` takes ~12 s and stays out of tier-1.)

A digest changes only with an intended change of behaviour: regenerate the
grid, review the row diff, and re-pin in the same commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine import get_spec, run_spec

GRID_DIGESTS = {
    "nab_vs_classical": "8586b0eafa3d43bcfaabf8a8ddb45ce92fba4c45d217f0aa44df8816a628f595",
    "nab_vs_classical_quick": "30c290a4155ab327070c8ec71b02e950040aa201528edde521b5f0ccee4fc4a2",
    "latency_models": "3a3bd63809cf0f898af3e68b917b6859d52eb89e77ca173b25f041b72edea2da",
    "lossy_links": "95b81ce3f118bc3f57ebc5cdc60563beb32627699d29782f2434239eff016990",
    "adversary_zoo": "e1b73ade25e3197c35fd64407a9b74cf4d1c90a416b77532f1d322e7573bb6be",
    "pipelined_nab": "4c31ef153cf1285c825bcda7b30c3c18f4ba027f09b1247628d66613a82312af",
    "large_payloads": "3075f9866c58073b85c744952a3b4986032c600d7b31ed2d568248fc0cd162b1",
    "protocol_matrix": "b60d6838ee6520eb8e193bc32a485c59177ee736f9ecf3e67b7767482dd55880",
}


@pytest.mark.parametrize("spec_name", sorted(GRID_DIGESTS))
def test_grid_is_byte_identical_to_its_pin(spec_name, tmp_path):
    out = tmp_path / f"{spec_name}.jsonl"
    summary = run_spec(get_spec(spec_name), str(out), workers=1, resume=False)
    assert summary.computed_cells == summary.total_cells
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_DIGESTS[spec_name]
