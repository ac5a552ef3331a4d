"""Versioned result cache with an LRU capacity bound.

Generalizes the SQL engine's plan cache (PR 1) from plans to full
request results.  Keys are tuples whose shape the service controls —
``("mine", dataset, version, fingerprint)`` and
``("sql", version, fingerprint)`` — so *version invalidation is
structural*: re-registering a dataset bumps the catalog version, every
new request keys to the new version, and stale entries simply become
unreachable until LRU eviction (or an explicit
:meth:`ResultCache.invalidate_dataset`) reclaims them.

There is no time-based expiry: version invalidation is exact for this
engine, because every data change goes through the catalog.
"""

import threading
from collections import OrderedDict


class ResultCache:
    """Thread-safe LRU mapping of request keys to results."""

    def __init__(self, capacity=256):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries = OrderedDict()  # key -> value
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """``(hit, value)`` — a miss returns ``(False, None)``."""
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, self._entries[key]

    def put(self, key, value):
        """Insert/overwrite ``key``; evicts LRU entries over capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_dataset(self, dataset):
        """Eagerly drop mining entries keyed to ``dataset``.

        Matches the key *structurally* — ``("mine", dataset, ...)`` —
        so a dataset that happens to be named ``"sql"`` or ``"mine"``
        cannot wipe unrelated entries.  Version-keyed entries would die
        of unreachability anyway; this frees their memory immediately
        on re-registration.  Returns the number of entries removed.
        """
        return self.invalidate_where(
            lambda key: len(key) >= 2 and key[0] == "mine"
            and key[1] == dataset
        )

    def invalidate_where(self, predicate):
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [k for k in self._entries if predicate(k)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    @property
    def info(self):
        """Statistics dict mirroring ``SqlEngine.plan_cache_info``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "max_size": self.capacity,
            }
