"""Placement: how sticky the shard → worker routing turned out to be.

A table's row ranges are assigned to shard ids by the data layer's
:class:`~repro.data.shardmap.ShardMap`, and the remote executor gives
each worker the contiguous run of shards :meth:`ShardMap.placement_for
<repro.data.shardmap.ShardMap.placement_for>` assigns it, so a worker
sees the same row ranges stage after stage and the blocks it fetched
for them stay useful.  :class:`PlacementTracker` records what that
routing achieved: shard i landing on the worker it last ran on is an
affinity *hit*; a first touch, or a shard landing somewhere else, is a
*miss*; a cluster rebound to a different dataset version, or a worker
death that forces shards onto survivors, is a *rebalance*.  Local pools
have no addressable workers and record nothing.
"""

import threading


class PlacementTracker:
    """Driver-side record of worker↔shard affinity (thread-safe).

    First touch of a shard is a *miss*, a repeat on the same worker is
    a *hit*, and rebinding the cluster to a different dataset version
    is a *rebalance* (the affinity table resets — old pins are
    meaningless against new data).  ``placed_stages`` counts the stages
    that were routed to workers at all — data stages only, since
    metering passes run on the driver.
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

    def record_stage(self):
        """Count one stage whose shards were routed by shard id."""
        with self._lock:
            self.placed_stages += 1

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
            }
