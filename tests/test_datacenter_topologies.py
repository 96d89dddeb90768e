"""Datacenter topology families, connectivity thresholds, bounds-only sweeps.

The generator invariants (node counts, symmetry, determinism, exact vertex
connectivity at small sizes, from the frozen oracle of
``tests/_oracles/graph.py``) pin the datacenter families; the spec/runner tests
cover the ``datacenter_scale`` bounds-only mode end to end.
"""

from __future__ import annotations

import json
import random

import pytest
from _oracles.graph import vertex_connectivity

from repro.engine import (
    ExperimentSpec,
    FAULT_FREE,
    get_spec,
    render_comparison,
    run_spec,
    summarize_rows,
)
from repro.exceptions import GraphError
from repro.graph.connectivity import has_vertex_connectivity_at_least
from repro.graph.generators import (
    fat_tree,
    octopus_pods,
    random_connected_network,
    ring_of_rings,
    torus_2d,
)
from repro.graph.gomory_hu import is_symmetric
from repro.workloads.topologies import named_topologies, topology


class TestGeneratorInvariants:
    @pytest.mark.parametrize("k,expected_nodes", [(4, 20), (8, 80)])
    def test_fat_tree_size_symmetry_determinism(self, k, expected_nodes):
        graph = fat_tree(k)
        # (k/2)^2 cores + k pods x (k/2 agg + k/2 edge) = 5 k^2 / 4 nodes.
        assert graph.node_count() == expected_nodes
        assert is_symmetric(graph.edges())
        assert list(graph.edges()) == list(fat_tree(k).edges())

    def test_fat_tree_connectivity_is_half_k(self):
        assert vertex_connectivity(fat_tree(4)) == 2
        assert has_vertex_connectivity_at_least(fat_tree(8), 4)
        assert not has_vertex_connectivity_at_least(fat_tree(8), 5)

    def test_torus_size_symmetry_connectivity(self):
        graph = torus_2d(4, 5)
        assert graph.node_count() == 20
        assert is_symmetric(graph.edges())
        assert vertex_connectivity(graph) == 4
        assert list(graph.edges()) == list(torus_2d(4, 5).edges())
        # Every node has exactly four neighbours on a torus.
        for node in graph.nodes():
            assert len(graph.successors(node)) == 4

    @pytest.mark.parametrize("uplinks,expected_kappa", [(2, 2), (3, 3)])
    def test_ring_of_rings_connectivity_tracks_uplinks(self, uplinks, expected_kappa):
        graph = ring_of_rings(4, 6, uplinks=uplinks)
        assert graph.node_count() == 24
        assert is_symmetric(graph.edges())
        assert vertex_connectivity(graph) == expected_kappa
        assert list(graph.edges()) == list(ring_of_rings(4, 6, uplinks=uplinks).edges())

    @pytest.mark.parametrize("spine_width,expected_kappa", [(2, 2), (3, 3)])
    def test_octopus_connectivity_tracks_spine_width(self, spine_width, expected_kappa):
        graph = octopus_pods(4, 5, spine_width=spine_width)
        assert graph.node_count() == 20
        assert is_symmetric(graph.edges())
        assert vertex_connectivity(graph) == expected_kappa
        assert list(graph.edges()) == list(
            octopus_pods(4, 5, spine_width=spine_width).edges()
        )

    def test_bad_parameters_rejected(self):
        with pytest.raises(GraphError):
            fat_tree(5)  # port counts must be even
        with pytest.raises(GraphError):
            fat_tree(2)
        with pytest.raises(GraphError):
            torus_2d(2, 8)
        with pytest.raises(GraphError):
            ring_of_rings(2, 8)
        with pytest.raises(GraphError):
            ring_of_rings(4, 2)
        with pytest.raises(GraphError):
            octopus_pods(2, 8)
        with pytest.raises(GraphError):
            octopus_pods(4, 1)

    def test_registered_datacenter_topologies_resolve(self):
        names = named_topologies()
        for name in (
            "fat-tree-8",
            "torus-8x8",
            "ring-rings-8x8",
            "octopus-8x8",
            "torus-32x32",
        ):
            assert name in names
            graph = topology(name)
            assert is_symmetric(graph.edges())
            assert graph.node_count() >= 64

    def test_symmetric_random_network_has_equal_reverse_capacities(self):
        graph = random_connected_network(12, 2, random.Random(5), symmetric=True)
        assert is_symmetric(graph.edges())
        # The default (asymmetric) draw stream is unchanged: same seed, no
        # symmetric flag, same node set.
        default = random_connected_network(12, 2, random.Random(5))
        assert default.node_count() == graph.node_count() == 12


class TestConnectivityThreshold:
    @pytest.mark.parametrize("seed", range(8))
    def test_threshold_agrees_with_exact_connectivity(self, seed):
        rng = random.Random(seed)
        graph = random_connected_network(
            rng.randint(5, 12), 1, rng, extra_edge_probability=0.2
        )
        exact = vertex_connectivity(graph)
        for k in range(0, exact + 3):
            assert has_vertex_connectivity_at_least(graph, k) == (exact >= k)

    def test_small_graph_edge_cases(self):
        single = torus_2d(3, 3).remove_nodes(range(2, 10))
        assert single.node_count() == 1
        assert has_vertex_connectivity_at_least(single, 1)
        assert not has_vertex_connectivity_at_least(single, 2)


class TestBoundsOnlySweeps:
    def test_datacenter_scale_expands_bounds_only_cells(self):
        spec = get_spec("datacenter_scale")
        cells = spec.expand()
        assert len(cells) == 11
        assert len({cell.topology for cell in cells}) == 11
        for cell in cells:
            assert cell.bounds_only
            assert cell.cell_id.endswith("|bounds")

    def test_datacenter_scale_f1_filters_to_feasible_families(self):
        spec = get_spec("datacenter_scale_f1")
        cells = spec.expand()
        # f = 1 requires vertex connectivity >= 3: all four 8-ish families
        # qualify (fat-tree-8 has kappa = 4, torus 4, ring-rings 3, octopus 3).
        assert {cell.topology for cell in cells} == {
            "fat-tree-8",
            "torus-8x8",
            "ring-rings-8x8",
            "octopus-8x8",
        }
        assert all(cell.bounds_only for cell in cells)

    def test_infeasible_family_drops_out_of_bounds_sweep(self):
        spec = ExperimentSpec(
            name="unit_bounds_infeasible",
            # f = 2 requires kappa >= 5; ring-rings-8x8 (kappa 3) and
            # torus-8x8 (kappa 4) both fail, so the sweep is empty rather
            # than erroring.
            topologies=("ring-rings-8x8", "torus-8x8"),
            strategies=(FAULT_FREE,),
            payload_bytes=(8,),
            fault_counts=(2,),
            protocols=("bounds",),
            instances=1,
            bounds_only=True,
        )
        assert spec.expand() == []

    def test_bounds_only_rows_have_bounds_and_no_record(self, tmp_path):
        spec = ExperimentSpec(
            name="unit_bounds_run",
            topologies=("torus-8x8",),
            strategies=(FAULT_FREE,),
            payload_bytes=(8,),
            fault_counts=(0,),
            protocols=("bounds",),
            instances=1,
            bounds_only=True,
        )
        out = str(tmp_path / "bounds.jsonl")
        summary = run_spec(spec, out_path=out, workers=1, resume=False)
        assert summary.total_cells == 1
        rows = summary.rows
        assert len(rows) == 1
        row = rows[0]
        assert row["record"] is None
        assert row["error"] is None
        assert row["bounds"]["gamma_star"] == 8  # degree 4, capacity 2 per link
        assert row["bounds"]["rho_star"] >= 1
        # Persisted as one JSONL row with the same shape.
        with open(out, "r", encoding="utf-8") as handle:
            persisted = [json.loads(line) for line in handle if line.strip()]
        assert len(persisted) == 1
        assert persisted[0]["record"] is None

        # Resume reuses the completed bounds-only row instead of recomputing.
        resumed = run_spec(spec, out_path=out, workers=1)
        assert resumed.computed_cells == 0
        assert resumed.skipped_cells == 1

    def test_reports_render_bounds_rows_without_crashing(self, tmp_path):
        spec = ExperimentSpec(
            name="unit_bounds_report",
            topologies=("torus-8x8",),
            strategies=(FAULT_FREE,),
            payload_bytes=(8,),
            fault_counts=(0,),
            protocols=("bounds",),
            instances=1,
            bounds_only=True,
        )
        summary = run_spec(spec, out_path=None, workers=1)
        text = render_comparison(summary.rows)
        assert "bounds" in text
        # summarize_rows skips record-less rows rather than crashing: the
        # bounds-only cell is counted but contributes no protocol tallies.
        summary_counts = summarize_rows(summary.rows)
        assert summary_counts["cells"] == 1
        assert summary_counts["errors"] == 0
