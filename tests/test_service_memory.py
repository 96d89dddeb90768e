"""Flat-memory regression: a long session batch keeps caches within budget.

ISSUE 10 satellite 3: running >= 1k sessions across mixed topologies must not
grow memory without bound — the budgeted kernel window/stacked caches stay
within their ``budget_bytes``, the warm topology-context cache holds exactly
one frozen graph per distinct ``(topology, source, f)``, and process RSS
growth over the batch stays bounded.

The batch deliberately includes 32- and 64-byte payload sessions so the
GF(2^32)/GF(2^64) big-field kernel caches (the only byte-budgeted caches) are
actually exercised; 2-byte payloads never instantiate them.
"""

from __future__ import annotations

import pytest

from repro.service.metrics import ServiceMetrics, process_cache_sample, rss_bytes
from repro.service.pool import PoolTask, run_pool
from repro.service.session import clear_topology_contexts
from repro.service.workload import generate_sessions

#: Generous ceiling on RSS growth across the whole batch.  The budgeted
#: caches sum to a few MiB; anything near this bound means a leak.
RSS_GROWTH_LIMIT_BYTES = 150 * 1024 * 1024

MIXED_TOPOLOGIES = ("k4-fast", "bottleneck4", "ring7-chords", "k7-unit")


def _mixed_batch():
    """1040 sessions: 960 small-payload plus 80 big-field sessions."""
    small = generate_sessions(
        960,
        topologies=MIXED_TOPOLOGIES,
        strategies=("fault-free", "equality-garbage"),
        payload_bytes=2,
        instances=1,
        max_faults=1,
        seed=3,
        service="mem-small",
    )
    gf32 = generate_sessions(
        40,
        topologies=MIXED_TOPOLOGIES,
        strategies=("fault-free",),
        payload_bytes=32,
        instances=1,
        max_faults=1,
        seed=3,
        service="mem-gf32",
    )
    gf64 = generate_sessions(
        40,
        topologies=MIXED_TOPOLOGIES,
        strategies=("fault-free",),
        payload_bytes=64,
        instances=1,
        max_faults=1,
        seed=3,
        service="mem-gf64",
    )
    return small + gf32 + gf64


def _walk_budgets(stats, path=""):
    """Yield every (path, bytes, budget_bytes) pair anywhere in the sample."""
    if isinstance(stats, dict):
        if "bytes" in stats and "budget_bytes" in stats:
            yield path, stats["bytes"], stats["budget_bytes"]
        for key, value in stats.items():
            yield from _walk_budgets(value, f"{path}/{key}")


class TestFlatMemory:
    @pytest.fixture(scope="class")
    def batch_result(self):
        clear_topology_contexts()
        sessions = _mixed_batch()
        assert len(sessions) >= 1000
        rss_before = rss_bytes()
        kernels_before = process_cache_sample()["kernels"]
        metrics = ServiceMetrics()
        rows = []
        retried, quarantined = run_pool(
            [PoolTask(spec=spec) for spec in sessions],
            workers=1,
            emit=lambda row, task: rows.append(row),
            wal_append=lambda row: None,
            metrics=metrics,
        )
        return {
            "sessions": sessions,
            "rows": rows,
            "retried": retried,
            "quarantined": quarantined,
            "metrics": metrics,
            "rss_before": rss_before,
            "kernels_before": kernels_before,
            "rss_after": rss_bytes(),
            "sample": process_cache_sample(),
        }

    def test_every_session_completes_cleanly(self, batch_result):
        assert len(batch_result["rows"]) == len(batch_result["sessions"])
        assert batch_result["retried"] == 0
        assert batch_result["quarantined"] == []
        assert all(row["error"] is None for row in batch_result["rows"])

    def test_big_field_kernel_caches_were_exercised(self, batch_result):
        kernels = batch_result["sample"]["kernels"]
        assert "GF(2^32)" in kernels
        assert "GF(2^64)" in kernels
        # Other tests may have created further canonical fields in this
        # process; only the two the batch itself drives must show traffic.
        for name in ("GF(2^32)", "GF(2^64)"):
            native = kernels[name].get("native_matrices")
            if native is None:
                # The pure-Python tier: the table caches saw real traffic;
                # eviction (not unbounded growth) is how they absorb it.
                layers = [v for v in kernels[name].values() if isinstance(v, dict)]
                assert any(layer.get("misses", 0) > 0 for layer in layers)
                continue
            # Under ``native`` every coding matrix of the batch is derived
            # from a seed, so it is born as its limb buffer: with nothing to
            # pack it is neither a miss (an integer matrix packed) nor a hit
            # (such a pack found again).
            before = batch_result["kernels_before"].get(name, {}).get("native_matrices", {})
            grown = {key: value - before.get(key, 0) for key, value in native.items()}
            assert grown == {"hits": 0, "misses": 0, "bytes_built": 0}

    def test_budgeted_caches_stay_within_budget(self, batch_result):
        budgets = list(_walk_budgets(batch_result["sample"]))
        # The GF(2^32) and GF(2^64) window/stacked caches at minimum.
        assert len(budgets) >= 4
        for path, used, budget in budgets:
            assert used <= budget, f"{path}: {used} bytes exceeds budget {budget}"

    def test_topology_contexts_hold_one_entry_per_distinct_key(self, batch_result):
        contexts = batch_result["sample"]["topology_contexts"]
        assert contexts["entries"] == len(MIXED_TOPOLOGIES)
        assert contexts["misses"] == len(MIXED_TOPOLOGIES)
        assert contexts["hits"] == len(batch_result["sessions"]) - len(
            MIXED_TOPOLOGIES
        )

    def test_mincut_cache_entries_are_flat_in_session_count(self, batch_result):
        entries_after_batch = batch_result["sample"]["mincut"]["entries"]
        # Another wave over the same topologies must not add a single entry:
        # the cache is keyed by graph structure, not by session.
        extra = generate_sessions(
            100,
            topologies=MIXED_TOPOLOGIES,
            strategies=("fault-free", "equality-garbage"),
            payload_bytes=2,
            instances=1,
            max_faults=1,
            seed=9,
            service="mem-extra",
        )
        metrics = ServiceMetrics()
        run_pool(
            [PoolTask(spec=spec) for spec in extra],
            workers=1,
            emit=lambda row, task: None,
            wal_append=lambda row: None,
            metrics=metrics,
        )
        assert process_cache_sample()["mincut"]["entries"] == entries_after_batch

    def test_rss_growth_stays_bounded(self, batch_result):
        before, after = batch_result["rss_before"], batch_result["rss_after"]
        if before is None or after is None:
            pytest.skip("/proc/self/status not readable on this platform")
        assert after - before < RSS_GROWTH_LIMIT_BYTES

    def test_metrics_account_for_the_whole_batch(self, batch_result):
        metrics = batch_result["metrics"]
        assert metrics.sessions_completed == len(batch_result["sessions"])
        assert metrics.instances_executed == len(batch_result["sessions"])
        assert metrics.sessions_per_minute() > 0
        rendered = metrics.to_jsonable()
        assert rendered["sessions"]["completed"] == len(batch_result["sessions"])
        assert rendered["caches"]
