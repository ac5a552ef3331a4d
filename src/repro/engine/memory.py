"""Cluster storage-memory simulation: partition cache with LRU eviction.

Thesis §4.5 shows SIRUM's behaviour when the input does not fit in the
executors' storage memory: evicted RDD partitions must be re-read from
HDFS on the next pass, which dominates runtime.  :class:`CacheManager`
models the aggregate storage pool (executors x memory x storage
fraction): ``access`` either hits (free) or misses (the caller is
charged a disk read of the partition's bytes), and a timeline of cached
bytes is recorded for the Figure 4.3/4.4 memory plots.

The eviction discipline itself is the shared
:class:`~repro.common.eviction.EvictionIndex` ledger, the same one the
*real* block buffer pool (:mod:`repro.data.bufferpool`) runs.
"""

import threading

from repro.common.eviction import EvictionIndex


class CacheManager:
    """LRU cache over named partitions with byte-level accounting.

    Mutations take an internal lock so a cluster shared by concurrent
    jobs stays consistent.  Within one parallel stage the engine never
    touches the cache from worker threads — kernels *defer* their
    accesses and the driver replays them in partition order — so the
    hit/miss sequence (and the LRU state it leaves behind) is identical
    to a serial run.
    """

    def __init__(self, capacity_bytes, metrics):
        self.capacity_bytes = int(capacity_bytes)
        self._metrics = metrics
        self._index = EvictionIndex()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def cached_bytes(self):
        return self._index.total_bytes

    def access(self, key, size_bytes):
        """Access partition ``key``; return disk bytes to charge (0 on hit)."""
        size_bytes = int(size_bytes)
        with self._lock:
            if self._index.touch(key):
                self.hits += 1
                self._metrics.increment("cache_hits")
                return 0
            self.misses += 1
            self._metrics.increment("cache_misses")
            self._insert(key, size_bytes)
            return size_bytes

    def _insert(self, key, size_bytes):
        if size_bytes > self.capacity_bytes:
            # Partition larger than the whole pool: never cached.
            return
        while (self._index.total_bytes + size_bytes > self.capacity_bytes
                and len(self._index)):
            self._index.pop_coldest()
            self.evictions += 1
            self._metrics.increment("cache_evictions")
        self._index.add(key, size_bytes)

    def contains(self, key):
        return key in self._index

    def invalidate(self, key):
        with self._lock:
            self._index.pop(key)

    def record_timeline(self):
        """Append the current cached-bytes level to the metrics timeline."""
        self._metrics.record_memory(self.cached_bytes)
