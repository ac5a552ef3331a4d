"""Tests for the LRU partition cache (thesis §4.5 memory behaviour)."""

from repro.engine.memory import CacheManager
from repro.common.metrics import MetricsRegistry


def make_cache(capacity):
    return CacheManager(capacity, MetricsRegistry())


class TestCacheBasics:
    def test_first_access_misses_and_charges_disk(self):
        cache = make_cache(100)
        assert cache.access("p0", 40) == 40
        assert cache.misses == 1

    def test_second_access_hits_for_free(self):
        cache = make_cache(100)
        cache.access("p0", 40)
        assert cache.access("p0", 40) == 0
        assert cache.hits == 1

    def test_cached_bytes_tracked(self):
        cache = make_cache(100)
        cache.access("p0", 40)
        cache.access("p1", 30)
        assert cache.cached_bytes == 70


class TestEviction:
    def test_lru_eviction_order(self):
        cache = make_cache(100)
        cache.access("p0", 50)
        cache.access("p1", 50)
        cache.access("p0", 50)      # refresh p0
        cache.access("p2", 50)      # evicts p1 (least recently used)
        assert cache.contains("p0")
        assert not cache.contains("p1")
        assert cache.contains("p2")

    def test_thrash_when_working_set_exceeds_memory(self):
        # Thesis §4.5: a dataset larger than storage memory causes
        # continuous disk reads on every pass.
        cache = make_cache(100)
        partitions = [("p%d" % i, 60) for i in range(2)]
        total_disk = 0
        for _ in range(5):
            for key, size in partitions:
                total_disk += cache.access(key, size)
        # Every access misses: 10 reads of 60 bytes.
        assert total_disk == 600

    def test_fits_in_memory_after_first_pass(self):
        cache = make_cache(200)
        partitions = [("p%d" % i, 60) for i in range(3)]
        first_pass = sum(cache.access(k, s) for k, s in partitions)
        second_pass = sum(cache.access(k, s) for k, s in partitions)
        assert first_pass == 180
        assert second_pass == 0

    def test_oversized_partition_never_cached(self):
        cache = make_cache(100)
        cache.access("big", 500)
        assert not cache.contains("big")
        assert cache.cached_bytes == 0

    def test_invalidate(self):
        cache = make_cache(100)
        cache.access("p0", 40)
        cache.invalidate("p0")
        assert not cache.contains("p0")
        assert cache.cached_bytes == 0
