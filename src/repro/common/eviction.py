"""The LRU eviction ledger shared by every byte-bounded cache: the
simulated partition cache, the block buffer pool and the shard
workers' block cache hold different things but evict the same way."""

from collections import OrderedDict


class EvictionIndex:
    """Recency-ordered key -> size_bytes map with byte accounting.

    The shared LRU ledger behind the simulated partition cache and the
    data layer's block buffer pool: entries keep least-recently-used
    order, ``total_bytes`` is maintained incrementally, and eviction
    pops from the cold end — optionally skipping keys the caller has
    pinned.  Not thread-safe on its own; owners lock around it.
    """

    def __init__(self):
        self._entries = OrderedDict()
        self.total_bytes = 0

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    def touch(self, key):
        """Mark ``key`` most recently used; True when it was present."""
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def add(self, key, size_bytes):
        """Insert ``key`` (absent) as the most recently used entry."""
        self._entries[key] = size_bytes
        self._entries.move_to_end(key)
        self.total_bytes += size_bytes

    def pop(self, key):
        """Remove ``key``; returns its size, or None when absent."""
        size = self._entries.pop(key, None)
        if size is not None:
            self.total_bytes -= size
        return size

    def pop_coldest(self, pinned=()):
        """Evict the least-recently-used key not in ``pinned``.

        Returns ``(key, size_bytes)``, or None when every entry is
        pinned (or the index is empty).
        """
        for key in self._entries:
            if key not in pinned:
                size = self._entries.pop(key)
                self.total_bytes -= size
                return key, size
        return None
