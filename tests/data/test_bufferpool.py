"""Buffer pool over colfile blocks: pinning, eviction, accounting."""

import numpy as np
import pytest

from repro.common.errors import DataError
from repro.data.bufferpool import (
    CAPACITY_ENV_VAR,
    DEFAULT_CAPACITY_BYTES,
    BufferPool,
    default_capacity_bytes,
)
from repro.data.colfile import ColFileHandle, write_colfile
from repro.data.generators import flight_table
from repro.common.metrics import MetricsRegistry


@pytest.fixture
def handle(tmp_path):
    # 14 rows in blocks of 4 -> 4 blocks; each decoded block is
    # rows * (8 * 3 dims + 8) bytes = 128 B full, 64 B for the last.
    path = tmp_path / "flights.col"
    write_colfile(flight_table(), path, block_rows=4)
    with ColFileHandle(path) as h:
        yield h


class TestCapacityEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(CAPACITY_ENV_VAR, raising=False)
        assert default_capacity_bytes() == DEFAULT_CAPACITY_BYTES

    def test_env_variable_wins(self, monkeypatch):
        monkeypatch.setenv(CAPACITY_ENV_VAR, "262144")
        assert default_capacity_bytes() == 262144
        assert BufferPool().capacity_bytes == 262144

    def test_env_variable_validated(self, monkeypatch):
        monkeypatch.setenv(CAPACITY_ENV_VAR, "lots")
        with pytest.raises(DataError):
            default_capacity_bytes()
        monkeypatch.setenv(CAPACITY_ENV_VAR, "0")
        with pytest.raises(DataError):
            default_capacity_bytes()

    def test_explicit_capacity_validated(self):
        with pytest.raises(DataError):
            BufferPool(capacity_bytes=0)


class TestPinning:
    def test_miss_then_hit(self, handle):
        pool = BufferPool(capacity_bytes=1 << 20)
        with pool.pin(handle, 0) as frame:
            np.testing.assert_array_equal(
                frame.measure, np.asarray(flight_table().measure)[:4]
            )
        with pool.pin(handle, 0):
            pass
        assert (pool.hits, pool.misses) == (1, 1)

    def test_frame_values_match_table(self, handle):
        pool = BufferPool(capacity_bytes=1 << 20)
        table = flight_table()
        with pool.pin(handle, 1) as frame:
            for col, full in zip(frame.columns, table.dimension_columns()):
                np.testing.assert_array_equal(col, full[4:8])

    def test_counters_fold_into_metrics_registry(self, handle):
        metrics = MetricsRegistry()
        pool = BufferPool(capacity_bytes=256, metrics=metrics)
        for index in (0, 1, 0, 2):  # block 2 evicts block 1 (LRU)
            with pool.pin(handle, index):
                pass
        assert metrics.counter("buffer_pool_misses") == 3
        assert metrics.counter("buffer_pool_hits") == 1
        assert metrics.counter("buffer_pool_evictions") == 1

    def test_unpin_without_pin_rejected(self, handle):
        pool = BufferPool(capacity_bytes=1 << 20)
        pinned = pool.pin(handle, 0)
        pinned.__exit__(None, None, None)
        with pytest.raises(DataError):
            pool.unpin(pinned._frame)


class TestEviction:
    def test_lru_eviction_order(self, handle):
        pool = BufferPool(capacity_bytes=256)  # fits two full blocks
        for index in (0, 1):
            with pool.pin(handle, index):
                pass
        with pool.pin(handle, 0):  # refresh block 0
            pass
        with pool.pin(handle, 2):  # evicts block 1
            pass
        assert pool.contains(handle, 0)
        assert not pool.contains(handle, 1)
        assert pool.contains(handle, 2)
        assert pool.evictions == 1

    def test_resident_bytes_bounded(self, handle):
        pool = BufferPool(capacity_bytes=256)
        for _ in range(3):
            for index in range(handle.num_blocks):
                with pool.pin(handle, index):
                    pass
        assert pool.resident_bytes <= 256
        assert pool.evictions > 0

    def test_pinned_blocks_survive_pressure(self, handle):
        pool = BufferPool(capacity_bytes=128)  # fits one full block
        with pool.pin(handle, 0):
            with pool.pin(handle, 1):
                # Both pinned: the pool overcommits rather than
                # evicting under a live pin.
                assert pool.contains(handle, 0)
                assert pool.contains(handle, 1)
                assert pool.resident_bytes > pool.capacity_bytes
        # Pins released: the pool shrinks back within capacity.
        assert pool.resident_bytes <= pool.capacity_bytes

    def test_eviction_refaults_with_identical_values(self, handle):
        pool = BufferPool(capacity_bytes=128)
        with pool.pin(handle, 0) as frame:
            first = [col.copy() for col in frame.columns]
        for index in (1, 2):  # push block 0 out
            with pool.pin(handle, index):
                pass
        assert not pool.contains(handle, 0)
        with pool.pin(handle, 0) as frame:
            for a, b in zip(first, frame.columns):
                np.testing.assert_array_equal(a, b)

    def test_stats_snapshot(self, handle):
        pool = BufferPool(capacity_bytes=256)
        for index in (0, 0, 1):
            with pool.pin(handle, index):
                pass
        stats = pool.stats()
        assert stats["capacity_bytes"] == 256
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)
        assert stats["resident_blocks"] == 2
        assert stats["pinned_blocks"] == 0
        assert stats["resident_bytes"] == pool.resident_bytes
