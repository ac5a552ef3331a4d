"""Block-granular buffer manager over columnar files.

The classic database buffer pool, applied to the colfile block format:
a bounded pool of decoded column blocks with pin/unpin discipline, LRU
eviction of unpinned frames, and hit/miss/eviction accounting.  This is
what lets a scan (and the file-backed :class:`~repro.data.table.Table`
built on it) stream a dataset larger than memory: resident decoded
bytes never exceed ``capacity_bytes``, and blocks that fall out are
simply re-faulted from the file on the next touch.

Eviction bookkeeping reuses :class:`~repro.common.eviction.EvictionIndex`
— the same LRU ledger behind the engine's simulated partition cache —
so there is one eviction policy in the codebase, not two.  Counters are
folded into a :class:`~repro.common.metrics.MetricsRegistry` under
``buffer_pool_hits`` / ``buffer_pool_misses`` / ``buffer_pool_evictions``.

Pinned frames are never evicted; if every frame is pinned the pool
overcommits rather than failing the caller, and shrinks back to
capacity as pins are released.  Frames are keyed on the handle's
``(path, file_key, block)`` so a rewritten file can never serve stale
blocks.
"""

import threading

from repro.common.env import positive_env_number
from repro.common.errors import DataError
from repro.common.eviction import EvictionIndex
from repro.common.metrics import MetricsRegistry

DEFAULT_CAPACITY_BYTES = 64 * 1024 * 1024
CAPACITY_ENV_VAR = "REPRO_BUFFER_POOL_BYTES"


def default_capacity_bytes():
    """Pool capacity from ``REPRO_BUFFER_POOL_BYTES`` (64 MiB default)."""
    return positive_env_number(
        CAPACITY_ENV_VAR, DEFAULT_CAPACITY_BYTES, int, DataError,
        "an integer byte count", "positive",
    )


class BlockFrame:
    """One resident decoded block: column arrays plus pin bookkeeping."""

    __slots__ = ("key", "columns", "measure", "size_bytes", "pin_count")

    def __init__(self, key, columns, measure, size_bytes):
        self.key = key
        self.columns = columns
        self.measure = measure
        self.size_bytes = size_bytes
        self.pin_count = 0


class PinnedBlock:
    """Context manager handed out by :meth:`BufferPool.pin`.

    While the ``with`` body runs, the underlying frame cannot be
    evicted; leaving the body releases the pin.  The exposed arrays are
    read-only and remain valid after unpinning only until eviction —
    callers keeping rows copy them (boolean indexing already does).
    """

    __slots__ = ("_pool", "_frame")

    def __init__(self, pool, frame):
        self._pool = pool
        self._frame = frame

    @property
    def columns(self):
        return self._frame.columns

    @property
    def measure(self):
        return self._frame.measure

    @property
    def size_bytes(self):
        return self._frame.size_bytes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.unpin(self._frame)


class BufferPool:
    """Bounded LRU pool of decoded colfile blocks with pin/unpin.

    ``capacity_bytes`` defaults to ``REPRO_BUFFER_POOL_BYTES`` (64 MiB
    when unset).  All state mutates under one lock; a fault reads the
    block while holding it, so concurrent scans of the same block decode
    it exactly once.
    """

    def __init__(self, capacity_bytes=None, metrics=None):
        if capacity_bytes is None:
            capacity_bytes = default_capacity_bytes()
        self.capacity_bytes = int(capacity_bytes)
        if self.capacity_bytes < 1:
            raise DataError(
                "buffer pool capacity must be positive, got %d"
                % self.capacity_bytes
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._frames = {}
        self._index = EvictionIndex()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Pin / unpin
    # ------------------------------------------------------------------

    def pin(self, handle, block_index):
        """Pin block ``block_index`` of ``handle``; returns a context
        manager exposing ``columns`` and ``measure``."""
        key = (handle.path, handle.file_key, int(block_index))
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                frame.pin_count += 1
                self._index.touch(key)
                self.hits += 1
                self.metrics.increment("buffer_pool_hits")
                return PinnedBlock(self, frame)
            self.misses += 1
            self.metrics.increment("buffer_pool_misses")
            columns, measure = handle.read_block(block_index)
            frame = BlockFrame(key, columns, measure,
                               handle.block_nbytes(block_index))
            frame.pin_count = 1
            self._frames[key] = frame
            self._index.add(key, frame.size_bytes)
            self._shrink_to_capacity()
            return PinnedBlock(self, frame)

    def unpin(self, frame):
        with self._lock:
            if frame.pin_count <= 0:
                raise DataError(
                    "unpin of block %r that is not pinned" % (frame.key,)
                )
            frame.pin_count -= 1
            if self._index.total_bytes > self.capacity_bytes:
                self._shrink_to_capacity()

    def _shrink_to_capacity(self):
        """Evict cold unpinned frames until within capacity (or stuck)."""
        while self._index.total_bytes > self.capacity_bytes:
            pinned = {key for key, frame in self._frames.items()
                      if frame.pin_count > 0}
            victim = self._index.pop_coldest(pinned)
            if victim is None:
                # Everything resident is pinned: overcommit until the
                # callers release their pins.
                return
            key, _size = victim
            del self._frames[key]
            self.evictions += 1
            self.metrics.increment("buffer_pool_evictions")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_bytes(self):
        return self._index.total_bytes

    def contains(self, handle, block_index):
        return (handle.path, handle.file_key, int(block_index)) in self._frames

    def stats(self):
        """Counter snapshot for service ``stats()`` / debugging."""
        with self._lock:
            accesses = self.hits + self.misses
            return {
                "capacity_bytes": self.capacity_bytes,
                "resident_bytes": self._index.total_bytes,
                "resident_blocks": len(self._frames),
                "pinned_blocks": sum(
                    1 for frame in self._frames.values() if frame.pin_count
                ),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / accesses) if accesses else 0.0,
            }

    def __repr__(self):
        return "BufferPool(%d/%d bytes, %d blocks)" % (
            self.resident_bytes, self.capacity_bytes, len(self._frames)
        )
