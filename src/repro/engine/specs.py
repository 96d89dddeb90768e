"""Named experiment specs runnable via ``python -m repro.engine --spec <name>``.

Keeping the canonical sweeps here (rather than in ``examples/`` or
``benchmarks/``) means every consumer — the CLI, the benchmarks and the tests
— runs exactly the same grids.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.spec import FAULT_FREE, PIPELINED, SEQUENTIAL, ExperimentSpec
from repro.exceptions import ConfigurationError

#: The six adversary strategies the paper's attack analysis distinguishes.
CORE_ADVERSARIES = (
    "phase1-relay",
    "equivocating-source",
    "equality-garbage",
    "false-flag",
    "dispute-liar",
    "chaos",
)

_SPECS: Dict[str, ExperimentSpec] = {}


def register_spec(spec: ExperimentSpec, replace: bool = False) -> None:
    """Add a spec to the registry under its name."""
    if spec.name in _SPECS and not replace:
        raise ConfigurationError(f"spec {spec.name!r} is already registered")
    _SPECS[spec.name] = spec


def get_spec(name: str) -> ExperimentSpec:
    """Look up a registered spec by name.

    Raises:
        ConfigurationError: if the name is unknown.
    """
    if name not in _SPECS:
        raise ConfigurationError(
            f"unknown spec {name!r}; available: {', '.join(named_specs())}"
        )
    return _SPECS[name]


def named_specs() -> List[str]:
    """All registered spec names, sorted."""
    return sorted(_SPECS)


register_spec(
    ExperimentSpec(
        name="nab_vs_classical",
        topologies=("k4-fast", "bottleneck4", "ring7-chords"),
        strategies=(FAULT_FREE,) + CORE_ADVERSARIES,
        payload_bytes=(8,),
        fault_counts=(1,),
        protocols=("nab", "classical-flooding"),
        instances=6,
        description=(
            "The paper's headline comparison: NAB vs capacity-oblivious "
            "full-value flooding across 3 topologies, all 6 adversary "
            "strategies plus the fault-free baseline (42 cells).  Six "
            "instances per cell so dispute control visibly amortises."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="nab_vs_classical_quick",
        topologies=("k4-fast", "bottleneck4"),
        strategies=(FAULT_FREE, "equality-garbage"),
        payload_bytes=(8,),
        fault_counts=(1,),
        protocols=("nab", "classical-flooding"),
        instances=2,
        description="Smoke-sized slice of nab_vs_classical (8 cells).",
    )
)

register_spec(
    ExperimentSpec(
        name="protocol_matrix",
        topologies=("k4-fast", "bottleneck4", "ring7-chords", "k5-unit"),
        strategies=(FAULT_FREE,) + CORE_ADVERSARIES + ("crash", "sub-broadcast-liar"),
        payload_bytes=(8, 32),
        fault_counts=(1,),
        protocols=("nab", "classical-flooding", "eig"),
        instances=3,
        description=(
            "Every registered protocol against every named adversary on four "
            "topologies and two payload sizes (216 cells)."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="pipelined_nab",
        topologies=("k4-fast", "bottleneck4", "ring7-chords", "pipeline-3x3"),
        strategies=(FAULT_FREE,),
        payload_bytes=(8,),
        fault_counts=(1,),
        protocols=("nab",),
        executions=(SEQUENTIAL, PIPELINED),
        instances=8,
        description=(
            "Sequential vs Figure 3 pipelined NAB execution on the headline "
            "topologies plus a depth-3 layered pipeline, fault-free, 8 "
            "instances per cell (8 cells).  Pipelined cells are measured "
            "under per-hop propagation (not directly comparable to the "
            "zero-propagation sequential rows — the report appends the "
            "like-for-like speedup vs the per-hop sequential comparator) "
            "and record the measured event timeline plus the exact analytic "
            "schedule."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="large_payloads",
        # Topologies chosen for their equality-check rate rho (k4-fast: 8,
        # ring7-chords: 6, k7-fast: 15): the per-symbol field degree is
        # ceil(L / rho), so this grid works in GF(2^m) for m between ~1k and
        # ~22k bits.  Infeasible before PR 4: bit-serial field arithmetic,
        # per-instance arborescence re-packing and per-relay path re-derivation
        # made multi-KB cells minutes each; the windowed kernels + structure
        # caches + batched sends bring the whole grid into the CI budget.
        topologies=("k4-fast", "ring7-chords", "k7-fast"),
        strategies=(FAULT_FREE,),
        payload_bytes=(2048, 4096, 8192, 16384),
        fault_counts=(1,),
        protocols=("nab", "classical-flooding"),
        instances=2,
        description=(
            "The paper's asymptotic regime: 2 KB-16 KB payloads on three "
            "capacity-rich topologies, NAB vs the capacity-oblivious "
            "full-value baseline (24 cells).  Throughput should approach "
            "the Eq. 6 bound as L grows — the headline claim, now cheap "
            "enough to sweep."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="huge_payloads",
        # The megabyte-direction extension of large_payloads.  The big-field
        # kernel (``native`` where it builds, else ``windowed``; the rows are
        # the same on either) carries the encode cost.  The capacity-rich
        # "-hbd" fabrics keep the per-symbol degree ceil(L / rho) inside the
        # tabulated irreducible set with no runtime polynomial search:
        # k4-hbd has rho = 128 (degrees 4096 / 16384), k5-hbd has rho = 96
        # (5462 / 21846).  One instance per cell: at 256 KB a single encode
        # is the dominant cost.
        topologies=("k4-hbd", "k5-hbd"),
        strategies=(FAULT_FREE,),
        payload_bytes=(65536, 262144),
        fault_counts=(1,),
        protocols=("nab", "classical-flooding"),
        instances=1,
        description=(
            "The datacenter-fabric regime from PAPERS.md (InfiniteHBD-class "
            "capacity-rich pods): 64 KB and 256 KB payloads on two "
            "high-capacity complete graphs, NAB vs the capacity-oblivious "
            "baseline (8 cells).  Charts the Eq. 6 / Theorem 2 bounds at "
            "field degrees 4096-21846, where the big-field kernel carries "
            "the encode cost."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="lossy_links",
        topologies=("k4-fast", "bottleneck4", "ring7-chords"),
        strategies=(FAULT_FREE,),
        payload_bytes=(8,),
        fault_counts=(1,),
        protocols=("nab", "classical-flooding"),
        fault_plans=(
            "none",
            "drop-1pct",
            "drop-10pct",
            "drop-10pct-one-edge",
            "dup-mild",
        ),
        instances=4,
        description=(
            "Unreliable links under ARQ retransmission: the headline "
            "topologies across the named drop/duplicate fault plans, NAB vs "
            "classical flooding (30 cells).  The none column is the reliable "
            "baseline; every lossy cell must still satisfy "
            "agreement/validity (dead links degrade to omissions) and "
            "reports its retransmission overhead in "
            "record.metadata.reliability."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="datacenter_scale",
        # The PR 8 bounds chart: every datacenter family at 64-1024 nodes.
        # bounds_only cells never execute a protocol — each cell is one
        # gamma*/rho*/Eq. 6/Theorem 2 evaluation, which the global min-cut
        # contraction makes tractable at 1024 nodes.  f = 0 keeps the gamma/Omega
        # families singleton (the full graph); the f = 1 sweep lives in
        # datacenter_scale_f1 on the 64-80-node members, where the
        # O(n)-candidate families are still affordable.
        topologies=(
            "fat-tree-8",
            "fat-tree-16",
            "torus-8x8",
            "torus-16x16",
            "torus-32x32",
            "ring-rings-8x8",
            "ring-rings-16x16",
            "ring-rings-32x32",
            "octopus-8x8",
            "octopus-16x16",
            "octopus-32x32",
        ),
        strategies=(FAULT_FREE,),
        payload_bytes=(8,),
        fault_counts=(0,),
        protocols=("bounds",),
        instances=1,
        bounds_only=True,
        description=(
            "Analytical bounds on datacenter-scale fabrics (PAPERS.md: "
            "InfiniteHBD rings, fat-tree Clos, torus pods, sparse Octopus "
            "meshes) at 64-1024 nodes: per-cell gamma*, rho*, Eq. 6 and "
            "Theorem 2, no protocol execution (11 bounds-only cells).  "
            "Example: python -m repro.engine --spec datacenter_scale"
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="datacenter_scale_f1",
        # One actually-Byzantine point per family: the smallest member of
        # each datacenter family that stays feasible at f = 1 (needs
        # connectivity >= 3; every family below has kappa >= 3 by
        # construction).  The gamma* family then holds n + 1 candidate
        # graphs and Omega_1 holds n subsets, each analysed by its own
        # cached global min-cut contraction.
        topologies=("fat-tree-8", "torus-8x8", "ring-rings-8x8", "octopus-8x8"),
        strategies=(FAULT_FREE,),
        payload_bytes=(8,),
        fault_counts=(1,),
        protocols=("bounds",),
        instances=1,
        bounds_only=True,
        description=(
            "f = 1 companion to datacenter_scale on the 64-80-node family "
            "members: full gamma*/rho* minimisation over the O(n) candidate "
            "fault sets (4 bounds-only cells)."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="adversary_zoo",
        # One worst-case arena: k7-unit at f = 2 (n = 7 = 3f + 1, the
        # tightest resilience the theorem allows on 7 nodes), 8 instances so
        # multi-round adaptive behaviour has room to unfold.  Every
        # hand-written strategy plus every composable zoo strategy, and one
        # search-found worst case: the "composed" cell pins the parameters
        # and placement that python -m repro.adversary.search (seed 0,
        # budget 96, objective dispute-control) found on this very grid —
        # an adaptive dispute-dodger rotating a single aggressor forces 4
        # dispute-control executions under this grid's cell seed (5 under
        # the search harness's) where every hand-written strategy forces 1,
        # while agreement and validity still hold on every cell.
        # equivocating-source is deliberately absent: a Byzantine source
        # makes validity vacuous (None), and this grid's contract is that
        # agreement_ok AND validity_ok stay strictly true everywhere.
        topologies=("k7-unit",),
        strategies=(
            "phase1-relay",
            "equality-garbage",
            "false-flag",
            "dispute-liar",
            "chaos",
            "crash",
            "sub-broadcast-liar",
            "stage-equivocator",
            "colluding-rotator",
            "adaptive-dodger",
            "relay-tamper",
            "composed",
        ),
        payload_bytes=(8,),
        fault_counts=(2,),
        protocols=("nab",),
        instances=8,
        strategy_params={
            "composed": {
                "components": [
                    {"kind": "adaptive-dodger", "targets": 1, "aggressors": 1}
                ],
                "rotate": True,
                "faulty_nodes": [4, 6],
            }
        },
        description=(
            "The adversary zoo on k7-unit at f = 2: all hand-written "
            "strategies, all composable zoo strategies, and the committed "
            "search-found worst case (12 cells).  The composed cell must "
            "force strictly more dispute-control executions than any "
            "hand-written cell while every cell keeps agreement and "
            "validity intact — both properties are asserted in "
            "tests/test_adversary_zoo.py."
        ),
    )
)

register_spec(
    ExperimentSpec(
        name="latency_models",
        # 7-node topologies only: the lan-wan model's slow links touch node 7,
        # so smaller graphs would silently degenerate to uniform latency.
        topologies=("k7-unit", "ring7-chords"),
        strategies=(FAULT_FREE, "equality-garbage"),
        payload_bytes=(8,),
        fault_counts=(1,),
        protocols=("nab", "classical-flooding"),
        link_models=("instant", "unit-latency", "lan-wan", "jitter-mild"),
        instances=4,
        description=(
            "Every protocol across the named propagation-delay models "
            "(32 cells).  The instant column is the zero-delay baseline "
            "(the measured-equals-analytical contract itself is property-"
            "tested in tests/test_scheduled_network.py); the other columns "
            "measure how far latency and jitter push completion beyond it."
        ),
    )
)
