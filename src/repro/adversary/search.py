"""Adversarial search: explore strategy compositions, placements and timings.

The driver walks the product space (composed-strategy parameters ×
faulty-node placement × stage timing) looking for worst cases under a
pluggable objective — dispute-control executions forced, or throughput
degradation relative to the Theorem 2 upper bound.  Candidates are evaluated
through the experiment engine's own :func:`repro.engine.runner.run_cell`, so
every explored point is an ordinary persisted row: deterministic, resumable
and auditable.

Search is seeded random sampling plus greedy/annealed mutation of the current
candidate.  Every decision — sample vs mutate, which mutation, accept a worse
candidate — is a sha256-lattice draw keyed by the iteration
(:class:`repro.adversary.zoo.AdversaryLattice`), and the acceptance state is
a pure fold over the rows in iteration order.  Killing the driver at any
point and resuming from its JSONL therefore reproduces the exact same
trajectory, and the final output file is byte-identical to an uninterrupted
run's (the crash-tolerant runner idiom).

Every evaluated row passes through the forensic audit
(:func:`repro.analysis.forensics.audit_rows`).  Any violation — an
``agreement_ok``/``validity_ok`` flip at ``f <= max_faults``, a fault-free
node identified as faulty, a dispute between fault-free nodes — is a
reproduction-level finding: the offending row is persisted first, then
:class:`repro.exceptions.ReproductionFinding` aborts the search loudly.
Worst cases that merely cost (many dispute controls, low throughput) are the
*expected* output and get committed as ``adversary_zoo`` spec cells.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.zoo import AdversaryLattice
from repro.analysis.forensics import audit_rows
from repro.engine.runner import ROW_SCHEMA_VERSION, run_cell
from repro.engine.spec import SEQUENTIAL, Cell, canonical_params, cell_seed
from repro.exceptions import ConfigurationError, ReproductionFinding
from repro.exec import dump_row, read_jsonl, write_rows_atomically
from repro.workloads.topologies import topology

#: Spec name stamped on every search row (no registered grid — the "spec" is
#: the search trajectory itself).
SEARCH_SPEC = "adversary_search"

#: Component kinds the sampler draws from (a subset of
#: :data:`repro.adversary.zoo.COMPONENT_KINDS` that excludes the pure-noise
#: kinds which never beat their structured counterparts).
SAMPLER_KINDS = (
    "adaptive-dodger",
    "relay-equivocator",
    "equality-garbage",
    "dispute-liar",
    "false-flag",
    "relay-tamper",
    "phase1-relay",
    "chaos",
)


# ------------------------------------------------------------------ objectives


def _score_dispute_control(row: Mapping[str, Any]) -> Fraction:
    record = row.get("record")
    if not isinstance(record, Mapping):
        return Fraction(-1)
    return Fraction(int(record["dispute_control_executions"]))


def _score_throughput_degradation(row: Mapping[str, Any]) -> Fraction:
    record = row.get("record")
    bounds = row.get("bounds")
    if not isinstance(record, Mapping) or not isinstance(bounds, Mapping):
        return Fraction(-1)
    throughput = record.get("throughput")
    if throughput is None:
        return Fraction(0)
    upper = Fraction(str(bounds["capacity_upper_bound"]))
    if upper <= 0:
        return Fraction(0)
    return 1 - Fraction(str(throughput)) / upper


#: Pluggable objectives: name -> scorer (bigger = worse for the protocol).
OBJECTIVES: Dict[str, Callable[[Mapping[str, Any]], Fraction]] = {
    "dispute-control": _score_dispute_control,
    "throughput-degradation": _score_throughput_degradation,
}


# ------------------------------------------------------------------ candidates


@dataclass(frozen=True)
class Candidate:
    """One point of the search space.

    Attributes:
        params: ``composed``-strategy parameters (JSON-able; see
            :func:`repro.adversary.zoo.build_composed`).
        faulty_nodes: The adversary's placement.
    """

    params: Mapping[str, Any]
    faulty_nodes: Tuple[int, ...]


def _sample_component(lattice: AdversaryLattice, iteration: int, slot: int) -> Dict[str, Any]:
    kind = lattice.choice(SAMPLER_KINDS, "kind", iteration, slot)
    component: Dict[str, Any] = {"kind": kind}
    if kind == "adaptive-dodger":
        component["targets"] = 1 + lattice.randbits(1, "targets", iteration, slot)
        component["aggressors"] = lattice.randbits(2, "aggr", iteration, slot) % 3
    elif kind == "equality-garbage":
        component["offset"] = lattice.choice((1, 3, 5), "offset", iteration, slot)
    elif kind == "relay-tamper":
        component["rate"] = list(lattice.choice(((1, 2), (1, 4), (1, 1)), "rate", iteration, slot))
    elif kind in ("dispute-liar", "phase1-relay"):
        component["flip_mask"] = lattice.choice((1, 2, 3), "mask", iteration, slot)
    return component


def _sample_faulty(
    lattice: AdversaryLattice, iteration: int, nodes: Sequence[int], source: int, count: int
) -> Tuple[int, ...]:
    pool = [node for node in sorted(nodes) if node != source]
    chosen: List[int] = []
    for slot in range(min(count, len(pool))):
        pick = lattice.choice(pool, "fault", iteration, slot)
        pool.remove(pick)
        chosen.append(pick)
    return tuple(sorted(chosen))


def _sample_candidate(
    lattice: AdversaryLattice,
    iteration: int,
    nodes: Sequence[int],
    source: int,
    max_faults: int,
    instances: int,
) -> Candidate:
    components = [_sample_component(lattice, iteration, 0)]
    if lattice.point("two-components", iteration) < Fraction(1, 4):
        components.append(_sample_component(lattice, iteration, 1))
    params: Dict[str, Any] = {"components": components}
    if lattice.point("rotate", iteration) < Fraction(1, 3):
        params["rotate"] = True
    if lattice.point("staged", iteration) < Fraction(1, 5):
        phase = 1 + lattice.randbits(2, "stage-phase", iteration) % 3
        fire_at = lattice.randbits(8, "stage-q", iteration) % max(1, instances)
        params["stages"] = [[fire_at, phase], ["*", phase]]
    return Candidate(
        params=params,
        faulty_nodes=_sample_faulty(lattice, iteration, nodes, source, max_faults),
    )


def _mutate_candidate(
    lattice: AdversaryLattice,
    iteration: int,
    current: Candidate,
    nodes: Sequence[int],
    source: int,
    max_faults: int,
    instances: int,
) -> Candidate:
    params: Dict[str, Any] = json.loads(canonical_params(current.params))
    components: List[Dict[str, Any]] = [dict(c) for c in params.get("components", [])]
    faulty = list(current.faulty_nodes)
    ops = ["toggle-rotate", "swap-component", "move-fault", "resample-fault"]
    if any(c.get("kind") == "adaptive-dodger" for c in components):
        ops += ["tweak-targets", "tweak-aggressors"]
    if "stages" in params:
        ops.append("drop-stages")
    if len(components) > 1:
        ops.append("drop-component")
    else:
        ops.append("add-component")
    op = lattice.choice(sorted(ops), "op", iteration)
    if op == "toggle-rotate":
        if params.get("rotate"):
            params.pop("rotate", None)
        else:
            params["rotate"] = True
    elif op == "swap-component":
        slot = lattice.randbits(8, "swap-slot", iteration) % len(components)
        components[slot] = _sample_component(lattice, iteration, slot)
    elif op == "add-component":
        components.append(_sample_component(lattice, iteration, len(components)))
    elif op == "drop-component":
        slot = lattice.randbits(8, "drop-slot", iteration) % len(components)
        components.pop(slot)
    elif op == "tweak-targets":
        for component in components:
            if component.get("kind") == "adaptive-dodger":
                component["targets"] = 1 + lattice.randbits(1, "new-targets", iteration)
    elif op == "tweak-aggressors":
        for component in components:
            if component.get("kind") == "adaptive-dodger":
                component["aggressors"] = lattice.randbits(2, "new-aggr", iteration) % 3
    elif op == "drop-stages":
        params.pop("stages", None)
    elif op == "move-fault" and faulty:
        candidates = [
            node for node in sorted(nodes) if node != source and node not in faulty
        ]
        if candidates:
            slot = lattice.randbits(8, "fault-slot", iteration) % len(faulty)
            faulty[slot] = lattice.choice(candidates, "fault-new", iteration)
    elif op == "resample-fault":
        faulty = list(_sample_faulty(lattice, iteration, nodes, source, max_faults))
    params["components"] = components
    return Candidate(params=params, faulty_nodes=tuple(sorted(faulty)))


# -------------------------------------------------------------------- driver


@dataclass(frozen=True)
class SearchSummary:
    """Outcome of one :func:`run_search` invocation."""

    topology: str
    objective: str
    rows: List[Dict[str, Any]]
    best_row: Optional[Dict[str, Any]]
    best_score: Optional[Fraction]
    iterations: int
    resumed_rows: int
    out_path: Optional[str]

    @property
    def best_candidate(self) -> Optional[Candidate]:
        """The best explored candidate, reconstructed from its row."""
        if self.best_row is None:
            return None
        return _row_candidate(self.best_row)


def _row_candidate(row: Mapping[str, Any]) -> Candidate:
    params = json.loads(row["strategy_params"]) if row.get("strategy_params") else {}
    return Candidate(params=params, faulty_nodes=tuple(row.get("faulty_nodes") or ()))


def _search_cell(
    topology_name: str,
    candidate: Candidate,
    iteration: int,
    base_seed: int,
    instances: int,
    payload_bytes: int,
    max_faults: int,
    source: int,
) -> Cell:
    params_json = canonical_params(candidate.params)
    cell_id = (
        f"search|nab|{topology_name}|composed|f={max_faults}|L={payload_bytes}"
        f"|Q={instances}|src={source}|i={iteration}|sp={params_json}"
    )
    return Cell(
        spec_name=SEARCH_SPEC,
        cell_id=cell_id,
        topology=topology_name,
        strategy="composed",
        payload_bytes=payload_bytes,
        instances=instances,
        max_faults=max_faults,
        protocol="nab",
        source=source,
        seed=cell_seed(base_seed, cell_id),
        faulty_nodes=tuple(candidate.faulty_nodes),
        execution=SEQUENTIAL,
        strategy_params=params_json,
    )


def _load_rows(path: str, topology_name: str, base_seed: int) -> List[Dict[str, Any]]:
    """Rows of a previous run of the *same* search, in iteration order.

    Rows are kept only while they form the contiguous prefix 0..k of verified
    iterations (matching schema, spec, topology and re-derived seed) — the
    fold that rebuilds the acceptance state needs every prior step.
    """
    by_iteration: Dict[int, Dict[str, Any]] = {}
    for row in read_jsonl(path)[0]:
        iteration = row.get("iteration")
        if (
            row.get("schema") == ROW_SCHEMA_VERSION
            and row.get("spec") == SEARCH_SPEC
            and row.get("topology") == topology_name
            and isinstance(iteration, int)
            and not isinstance(iteration, bool)
            and row.get("seed") == cell_seed(base_seed, str(row.get("cell_id")))
            and row.get("error") is None
        ):
            by_iteration.setdefault(iteration, row)
    rows: List[Dict[str, Any]] = []
    for iteration in range(len(by_iteration)):
        row = by_iteration.get(iteration)
        if row is None:
            break
        rows.append(row)
    return rows


def run_search(
    topology_name: str,
    objective: str = "dispute-control",
    budget: int = 32,
    seed: int = 0,
    out_path: Optional[str] = None,
    instances: int = 8,
    payload_bytes: int = 8,
    max_faults: int = 2,
    source: int = 1,
    resume: bool = True,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> SearchSummary:
    """Explore ``budget`` candidates and return the trajectory plus the best.

    Raises:
        ReproductionFinding: if any explored row violates agreement, validity
            or forensic soundness (persisted before raising).
        ConfigurationError: for an unknown objective.
    """
    if objective not in OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {objective!r}; available: {', '.join(sorted(OBJECTIVES))}"
        )
    scorer = OBJECTIVES[objective]
    lattice = AdversaryLattice(seed, namespace=f"adversary-search|{objective}")
    nodes = topology(topology_name).nodes()

    rows: List[Dict[str, Any]] = []
    if out_path and resume:
        rows = _load_rows(out_path, topology_name, seed)
    resumed = len(rows)

    # Rebuild the acceptance state by folding the prior rows in order; the
    # fold below is the only place the state advances, so resumed and fresh
    # runs walk the identical trajectory.
    current: Optional[Candidate] = None
    current_score: Optional[Fraction] = None
    best_row: Optional[Dict[str, Any]] = None
    best_score: Optional[Fraction] = None

    def fold(row: Dict[str, Any], iteration: int) -> None:
        nonlocal current, current_score, best_row, best_score
        score = scorer(row)
        candidate = _row_candidate(row)
        if best_score is None or score > best_score:
            best_row, best_score = row, score
        accept_worse = lattice.point("anneal", iteration) < Fraction(
            1, 2 + iteration // 4
        )
        if current_score is None or score >= current_score or accept_worse:
            current, current_score = candidate, score

    for iteration, row in enumerate(rows):
        fold(row, iteration)

    handle = None
    if out_path:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        mode = "a" if (resume and rows) else "w"
        if resume and rows:
            # Drop any lines past the verified prefix (truncated tails, rows
            # from other searches) before appending.
            write_rows_atomically(out_path, rows)
        handle = open(out_path, mode, encoding="utf-8")

    try:
        for iteration in range(len(rows), budget):
            if current is None or lattice.point("explore", iteration) < Fraction(1, 3):
                candidate = _sample_candidate(
                    lattice, iteration, nodes, source, max_faults, instances
                )
            else:
                candidate = _mutate_candidate(
                    lattice, iteration, current, nodes, source, max_faults, instances
                )
            cell = _search_cell(
                topology_name,
                candidate,
                iteration,
                seed,
                instances,
                payload_bytes,
                max_faults,
                source,
            )
            row = run_cell(cell)
            row["iteration"] = iteration
            row["objective"] = objective
            row["objective_value"] = str(scorer(row))
            rows.append(row)
            if handle is not None:
                handle.write(dump_row(row) + "\n")
                handle.flush()
            if progress is not None:
                progress(row)
            violations = audit_rows([row])
            if violations:
                # A reproduction-level finding: the row is already persisted;
                # abort loudly instead of folding it into the objective.
                raise ReproductionFinding(
                    "adversarial search found a specification violation: "
                    + "; ".join(violations)
                )
            fold(row, iteration)
    finally:
        if handle is not None:
            handle.close()
        if out_path and rows:
            # Compact: a killed-and-resumed run and a fresh run of the same
            # (seed, budget) produce byte-identical files.
            write_rows_atomically(out_path, rows)

    return SearchSummary(
        topology=topology_name,
        objective=objective,
        rows=rows,
        best_row=best_row,
        best_score=best_score,
        iterations=len(rows),
        resumed_rows=resumed,
        out_path=out_path,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.adversary.search --topology k7-unit --budget 32``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.adversary.search",
        description="Adversarial search for NAB worst cases.",
    )
    parser.add_argument("--topology", default="k7-unit", help="named topology to attack")
    parser.add_argument(
        "--objective",
        default="dispute-control",
        choices=sorted(OBJECTIVES),
        help="what to maximise",
    )
    parser.add_argument("--budget", type=int, default=32, help="candidates to explore")
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    parser.add_argument("--out", default=None, help="JSONL trajectory file (resumable)")
    parser.add_argument("--instances", type=int, default=8, help="instances per candidate (Q)")
    parser.add_argument("--payload-bytes", type=int, default=8, help="payload size (L/8)")
    parser.add_argument("--max-faults", type=int, default=2, help="resilience parameter f")
    parser.add_argument("--source", type=int, default=1, help="broadcasting node")
    parser.add_argument(
        "--no-resume", action="store_true", help="ignore any existing trajectory file"
    )
    args = parser.parse_args(argv)
    summary = run_search(
        args.topology,
        objective=args.objective,
        budget=args.budget,
        seed=args.seed,
        out_path=args.out,
        instances=args.instances,
        payload_bytes=args.payload_bytes,
        max_faults=args.max_faults,
        source=args.source,
        resume=not args.no_resume,
    )
    print(
        f"{summary.iterations} candidate(s) explored on {summary.topology} "
        f"({summary.resumed_rows} resumed), objective {summary.objective}"
    )
    if summary.best_row is not None:
        print(f"best score: {summary.best_score}")
        print(f"best faulty_nodes: {summary.best_row.get('faulty_nodes')}")
        print(f"best strategy_params: {summary.best_row.get('strategy_params')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
