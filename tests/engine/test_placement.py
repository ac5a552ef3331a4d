"""Placement subsystem: ShardMap invariants, precedence, affinity.

The shard map is the one partition abstraction every layer consumes
(table slicing, colfile blocks, shm/mmap block construction, sticky
routing), so its invariants are property-tested: shard ranges are a
bijection over the table's rows — full coverage, no overlap, dense
ordered ids — block-aligned except for the last shard, and the
``align=1`` boundaries reproduce the engine's historical
``n * i // num_shards`` formula exactly (load-bearing for the
bit-identity contract).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DataError, EngineError
from repro.data.shardmap import Shard, ShardMap
from repro.engine.cluster import ClusterContext
from repro.engine.placement import PlacementTracker
from repro.service.budget import EngineBudget


def assert_bijection(shard_map, num_rows):
    """Shards tile [0, num_rows): full coverage, no overlap, in order."""
    expected_start = 0
    for i, shard in enumerate(shard_map):
        assert shard.shard_id == i
        assert shard.start == expected_start
        assert shard.stop >= shard.start
        expected_start = shard.stop
    assert expected_start == num_rows
    assert shard_map.num_rows == num_rows


class TestShardMapProperties:
    @given(st.integers(0, 5000), st.integers(1, 64))
    @settings(max_examples=120, deadline=None)
    def test_build_clamped_is_a_bijection(self, num_rows, num_shards):
        shard_map = ShardMap.build(num_rows, num_shards)
        assert_bijection(shard_map, num_rows)
        if num_rows == 0:
            assert len(shard_map) == 0
        else:
            assert len(shard_map) == min(num_shards, num_rows)
            # Clamped maps never hold an empty shard.
            assert all(s.num_rows > 0 for s in shard_map)

    @given(st.integers(1, 5000), st.integers(1, 64))
    @settings(max_examples=120, deadline=None)
    def test_align_one_matches_historical_formula(self, num_rows,
                                                  num_shards):
        shard_map = ShardMap.build(num_rows, num_shards)
        k = len(shard_map)
        assert shard_map.bounds == [num_rows * i // k for i in range(k + 1)]

    @given(st.integers(1, 5000), st.integers(1, 64),
           st.integers(2, 256))
    @settings(max_examples=120, deadline=None)
    def test_aligned_builds_are_block_aligned_except_last(
            self, num_rows, num_shards, align):
        shard_map = ShardMap.build(num_rows, num_shards, align=align)
        assert_bijection(shard_map, num_rows)
        for shard in list(shard_map)[:-1]:
            assert shard.stop % align == 0

    @given(st.lists(st.integers(1, 64), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_from_block_rows_tiles_the_blocks(self, block_rows):
        shard_map = ShardMap.from_block_rows(block_rows, align=1)
        assert_bijection(shard_map, sum(block_rows))
        assert [s.num_rows for s in shard_map] == block_rows


class TestShardMapValidation:
    def test_overlapping_shards_rejected(self):
        with pytest.raises(EngineError, match="no gap or overlap"):
            ShardMap([Shard(0, 0, 6), Shard(1, 4, 10)], 10)

    def test_gapped_shards_rejected(self):
        with pytest.raises(EngineError, match="no gap or overlap"):
            ShardMap([Shard(0, 0, 4), Shard(1, 6, 10)], 10)

    def test_short_coverage_rejected(self):
        with pytest.raises(EngineError, match="cover"):
            ShardMap([Shard(0, 0, 4)], 10)

    def test_unordered_ids_rejected(self):
        with pytest.raises(EngineError, match="dense and ordered"):
            ShardMap([Shard(1, 0, 4), Shard(0, 4, 8)], 8)

    def test_misaligned_interior_boundary_rejected(self):
        with pytest.raises(EngineError, match="alignment"):
            ShardMap([Shard(0, 0, 3), Shard(1, 3, 8)], 8, align=4)

    def test_placement_for_gives_each_worker_a_contiguous_range(self):
        assert [ShardMap.placement_for(r, 8, 3) for r in range(8)] == [
            0, 0, 0, 1, 1, 1, 2, 2,
        ]
        # Every worker gets a run, in order, and the runs differ in
        # length by at most one.
        for n in range(1, 20):
            for w in range(1, 6):
                slots = [ShardMap.placement_for(r, n, w) for r in range(n)]
                assert slots == sorted(slots)
                runs = [slots.count(s) for s in range(w)]
                assert len(set(slots)) == min(n, w)
                assert max(runs) - min(r for r in runs if r) <= 1
        with pytest.raises(EngineError):
            ShardMap.placement_for(0, 8, 0)
        with pytest.raises(EngineError):
            ShardMap.placement_for(8, 8, 3)


class TestTableShardMap:
    def test_shard_map_is_cached_per_count(self, flight_table=None):
        from repro.data.generators import flight_table

        table = flight_table()
        first = table.shard_map(4)
        assert table.shard_map(4) is first
        assert table.shard_map(2) is not first
        assert first.version == table.dataset_version
        assert_bijection(first, len(table))

    def test_version_bumps_with_dataset_version(self):
        from repro.data.generators import flight_table

        a, b = flight_table(), flight_table()
        assert a.dataset_version != b.dataset_version
        assert a.shard_map(4).version == a.dataset_version
        assert b.shard_map(4).version == b.dataset_version
        assert a.shard_map(4) != b.shard_map(4)

    def test_empty_table_cannot_be_sharded(self):
        from repro.data.schema import Schema
        from repro.data.table import Table

        table = Table.from_rows(
            Schema(dimensions=("d",), measure="m"), rows=[]
        )
        with pytest.raises(DataError, match="empty table"):
            table.shard_map(4)


class TestParallelismPrecedence:
    """Explicit argument > budget grant > serial."""

    def test_explicit_beats_grant(self):
        budget = EngineBudget(max_engine_workers=8)
        grant = budget.acquire(4)
        with ClusterContext(parallelism=2, budget_grant=grant) as cluster:
            assert cluster.parallelism == 2

    def test_grant_without_slots_contributes_granted(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "7")  # not consulted
        budget = EngineBudget(max_engine_workers=8)
        grant = budget.acquire(3)
        with ClusterContext(budget_grant=grant) as cluster:
            assert cluster.parallelism == 3
        assert grant.released  # the cluster owned it


class TestPlacementTracker:
    def test_hits_misses_and_rebalances(self):
        tracker = PlacementTracker()
        tracker.bind(ShardMap.build(100, 4, version=1))
        tracker.record(0, 0)          # first touch: miss
        tracker.record(0, 0)          # same slot again: hit
        tracker.record(1, 1)          # miss
        tracker.record(1, 2)          # moved slots: miss
        tracker.record_stage()
        stats = tracker.stats()
        assert stats["shards"] == 4
        assert stats["affinity_hits"] == 1
        assert stats["affinity_misses"] == 3
        assert stats["affinity_hit_rate"] == pytest.approx(0.25)
        assert stats["rebalances"] == 0
        assert stats["placed_stages"] == 1

    def test_rebind_across_versions_counts_a_rebalance(self):
        tracker = PlacementTracker()
        tracker.bind(ShardMap.build(100, 4, version=1))
        tracker.record(0, 0)
        tracker.bind(ShardMap.build(100, 4, version=2))
        assert tracker.stats()["rebalances"] == 1
        # The affinity table reset: the same pin is a fresh miss.
        tracker.record(0, 0)
        assert tracker.stats()["affinity_misses"] == 2
        # Rebinding the same version is not a rebalance.
        tracker.bind(ShardMap.build(100, 4, version=2))
        assert tracker.stats()["rebalances"] == 1

    def test_worker_failure_counts_and_clears_pins(self):
        tracker = PlacementTracker()
        tracker.bind(ShardMap.build(100, 4, version=1))
        tracker.record(0, 0)
        tracker.record(1, 1)
        tracker.worker_failure(shard_ids=[1])
        stats = tracker.stats()
        assert stats["worker_failures"] == 1
        assert stats["rebalances"] == 1
        # Shard 1 lost its pin with the dead worker: re-placing it on a
        # survivor is a fresh miss, not a broken-affinity anomaly...
        tracker.record(1, 0)
        assert tracker.stats()["affinity_misses"] == 3
        # ...while shard 0's affinity survived untouched.
        tracker.record(0, 0)
        assert tracker.stats()["affinity_hits"] == 1
