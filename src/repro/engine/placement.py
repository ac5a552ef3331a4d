"""Placement: which worker a shard runs on, and how sticky that is.

A table's row ranges are assigned to shard ids by the data layer's
:class:`~repro.data.shardmap.ShardMap`; a placed cluster routes shard i
to the worker pinned to it (:meth:`ShardMap.placement_for
<repro.data.shardmap.ShardMap.placement_for>`).  :class:`PlacementTracker`
records the worker↔shard affinity that routing achieves: kernel i
routed to the worker pinned to shard i is an affinity *hit* (that
worker's mmap/attachment caches are already hot); a shard landing on a
different worker than last time is a *miss*; a cluster rebound to a
different dataset version is a *rebalance*.
"""

import os
import threading

from repro.common.errors import EngineError


def default_placement():
    """Placement preference from ``REPRO_PLACEMENT`` (off when unset).

    Truthy spellings (``1``/``true``/``yes``/``on``) request placed
    execution; unset, empty and falsy spellings leave it off.
    """
    value = os.environ.get("REPRO_PLACEMENT", "").strip().lower()
    if value in ("", "0", "false", "no", "off"):
        return False
    if value in ("1", "true", "yes", "on"):
        return True
    raise EngineError(
        "REPRO_PLACEMENT must be a boolean spelling, got %r" % value
    )


class PlacementTracker:
    """Driver-side record of worker↔shard affinity (thread-safe).

    A placed cluster routes shard i to slot ``i % workers`` every
    stage, so once a shard has landed somewhere, every later stage of
    the same job — and every coalesced job reusing the cluster — finds
    that worker's attachment caches hot.  The tracker observes exactly
    that: first touch of a shard is a *miss*, a repeat on the same slot
    is a *hit*, and rebinding the cluster to a different dataset
    version is a *rebalance* (the affinity table resets — old pins are
    meaningless against new data).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._slots = {}  # shard_id -> last slot
        self._bound_version = None
        self.shards = 0
        self.hits = 0
        self.misses = 0
        self.rebalances = 0
        self.worker_failures = 0
        self.placed_stages = 0
        self.unplaced_stages = 0

    def bind(self, shard_map):
        """Bind the tracker to ``shard_map``'s version; count rebalances."""
        with self._lock:
            version = shard_map.version
            if self._bound_version is not None \
                    and self._bound_version != version:
                self.rebalances += 1
                self._slots.clear()
            self._bound_version = version
            self.shards = len(shard_map)

    def record(self, shard_id, slot):
        """Record shard ``shard_id`` executing on worker ``slot``."""
        with self._lock:
            previous = self._slots.get(shard_id)
            if previous == slot:
                self.hits += 1
            else:
                self.misses += 1
            self._slots[shard_id] = slot

    def worker_failure(self, shard_ids=()):
        """A worker died mid-stage and ``shard_ids`` must re-place.

        Counted as one worker failure *and* one rebalance — the
        affinity these shards had is gone with the worker, and their
        next :meth:`record` on a survivor is a legitimate miss, not a
        broken pin.
        """
        with self._lock:
            self.worker_failures += 1
            self.rebalances += 1
            for shard_id in shard_ids:
                self._slots.pop(shard_id, None)

    def record_stage(self, placed):
        with self._lock:
            if placed:
                self.placed_stages += 1
            else:
                self.unplaced_stages += 1

    def stats(self):
        """One dict of placement counters, for ``stats()["placement"]``."""
        with self._lock:
            touched = self.hits + self.misses
            return {
                "shards": self.shards,
                "affinity_hits": self.hits,
                "affinity_misses": self.misses,
                "affinity_hit_rate": (
                    self.hits / touched if touched else 0.0
                ),
                "rebalances": self.rebalances,
                "worker_failures": self.worker_failures,
                "placed_stages": self.placed_stages,
                "unplaced_stages": self.unplaced_stages,
            }
