"""The shard map: the one partition abstraction.

Partitioning used to be computed ad hoc at every layer — the table
sliced row ranges per ``partition_blocks`` call, the colfile handle kept
its own block-start bookkeeping, the session recomputed partition
counts per job, and no layer could say *where* a partition should run.
This module centralizes all of it:

- :class:`Shard` is one placed row range: a picklable descriptor
  ``(shard_id, start, stop, size_bytes)`` every execution mode consumes
  — serial and thread kernels slice table views by it, and process
  kernels and remote workers receive the rows it names, or an
  :class:`~repro.data.shm.MmapTableBlock` built from it.
- :class:`ShardMap` is the immutable, versioned assignment of a
  table's row ranges to shard ids.  It is built once per dataset
  version (:meth:`~repro.data.table.Table.shard_map` caches it) and
  reused by every stage, so serial, thread, process and remote
  executors all consume *identical* shard descriptors instead of
  recomputing ranges per call.

Invariants (checked at construction, property-tested in
``tests/engine/test_placement.py``): shard ranges are a bijection over
the table's rows — full coverage, no overlap, in order — and with an
alignment every interior boundary is a multiple of it (the last shard
is ragged).  An empty table maps to zero shards.

The default row split (``align=1``) reproduces the historical formula
``bounds[i] = n * i // num_shards`` exactly, which is load-bearing:
per-shard row counts feed the cost model, and the engine's
bit-identity contract requires identical charges across in-RAM and
file-backed tables.
"""

from repro.common.errors import EngineError


class Shard:
    """One placed row range ``[start, stop)`` of a table.

    Shard ids are ordered, so a shard's rank is the whole addressing
    scheme: the remote executor hands each worker one contiguous run of
    the shards it places (:meth:`ShardMap.placement_for`) — no lookup
    table travels with tasks.
    """

    __slots__ = ("shard_id", "start", "stop", "size_bytes")

    def __init__(self, shard_id, start, stop, size_bytes=0):
        self.shard_id = int(shard_id)
        self.start = int(start)
        self.stop = int(stop)
        self.size_bytes = int(size_bytes)

    @property
    def num_rows(self):
        return self.stop - self.start

    def __eq__(self, other):
        return (isinstance(other, Shard)
                and self.shard_id == other.shard_id
                and self.start == other.start
                and self.stop == other.stop
                and self.size_bytes == other.size_bytes)

    def __hash__(self):
        return hash((self.shard_id, self.start, self.stop, self.size_bytes))

    def __getstate__(self):
        return (self.shard_id, self.start, self.stop, self.size_bytes)

    def __setstate__(self, state):
        self.shard_id, self.start, self.stop, self.size_bytes = state

    def __repr__(self):
        return "Shard(%d, [%d, %d), %dB)" % (
            self.shard_id, self.start, self.stop, self.size_bytes,
        )


class ShardMap:
    """Immutable, versioned assignment of row ranges to shard ids.

    Build with :meth:`build` (even row split, the engine's partitioning)
    or :meth:`from_block_rows` (one shard per storage block, the
    colfile's physical layout).  ``version`` is the dataset version the
    map was built against — a table that changes data gets a new
    version, so stale maps are detectable (and a cluster counts a
    *rebalance* when rebound across versions).
    """

    __slots__ = ("version", "num_rows", "align", "_shards")

    def __init__(self, shards, num_rows, version=0, align=1):
        shards = tuple(shards)
        num_rows = int(num_rows)
        if num_rows < 0:
            raise EngineError("a shard map needs a non-negative row count")
        if align < 1:
            raise EngineError("shard alignment must be at least 1")
        expected_start = 0
        for i, shard in enumerate(shards):
            if shard.shard_id != i:
                raise EngineError(
                    "shard ids must be dense and ordered: position %d "
                    "holds id %d" % (i, shard.shard_id)
                )
            if shard.start != expected_start:
                raise EngineError(
                    "shard %d starts at row %d, expected %d (ranges must "
                    "tile the table with no gap or overlap)"
                    % (i, shard.start, expected_start)
                )
            if shard.stop < shard.start:
                raise EngineError("shard %d has a negative row range" % i)
            if i + 1 < len(shards) and shard.stop % align != 0:
                raise EngineError(
                    "interior shard %d ends at row %d, not a multiple of "
                    "the %d-row alignment" % (i, shard.stop, align)
                )
            expected_start = shard.stop
        if expected_start != num_rows:
            raise EngineError(
                "shards cover %d rows of %d" % (expected_start, num_rows)
            )
        self._shards = shards
        self.num_rows = num_rows
        self.version = int(version)
        self.align = int(align)

    # -- constructors --------------------------------------------------

    @classmethod
    def build(cls, num_rows, num_shards, version=0, bytes_per_row=1,
              align=1):
        """Evenly split ``num_rows`` into ``num_shards`` shards.

        With ``align=1`` the boundaries are exactly the engine's
        historical formula ``n * i // num_shards`` (row counts differing
        by at most one); a larger ``align`` rounds every interior
        boundary down to a multiple of it — block-aligned shards whose
        last shard absorbs the remainder.  ``num_shards`` is limited to
        ``[1, num_rows]`` and an empty table yields an empty map.
        """
        num_rows = int(num_rows)
        num_shards = int(num_shards)
        if num_rows == 0:
            return cls((), 0, version=version, align=align)
        num_shards = max(1, min(num_shards, num_rows))
        bounds = [num_rows * i // num_shards for i in range(num_shards + 1)]
        if align > 1:
            bounds = [(b // align) * align for b in bounds[:-1]] + [num_rows]
            bounds = sorted(set(bounds))
        shards = []
        for i in range(len(bounds) - 1):
            start, stop = bounds[i], bounds[i + 1]
            shards.append(Shard(
                shard_id=i, start=start, stop=stop,
                size_bytes=(stop - start) * int(bytes_per_row),
            ))
        return cls(shards, num_rows, version=version, align=align)

    @classmethod
    def from_block_rows(cls, block_rows, version=0, bytes_per_row=1,
                        align=None):
        """One shard per storage block, from per-block row counts.

        This is the colfile's physical layout as a shard map: every
        block is ``block_rows[0]`` rows except the ragged last one, so
        the map is block-aligned by construction when ``align`` is the
        writer's block size.
        """
        shards = []
        row = 0
        for i, rows in enumerate(block_rows):
            rows = int(rows)
            shards.append(Shard(
                shard_id=i, start=row, stop=row + rows,
                size_bytes=rows * int(bytes_per_row),
            ))
            row += rows
        if align is None:
            align = int(block_rows[0]) if shards else 1
        return cls(shards, row, version=version, align=align)

    # -- access --------------------------------------------------------

    def __len__(self):
        return len(self._shards)

    def __iter__(self):
        return iter(self._shards)

    def __getitem__(self, shard_id):
        return self._shards[shard_id]

    @property
    def shards(self):
        return self._shards

    @property
    def bounds(self):
        """Row boundaries as one list: ``[0, ..., num_rows]``."""
        if not self._shards:
            return [0] if self.num_rows == 0 else [0, self.num_rows]
        return [s.start for s in self._shards] + [self.num_rows]

    @staticmethod
    def placement_for(rank, num_shards, num_workers):
        """Worker slot of the shard ranked ``rank`` of ``num_shards``.

        Range placement: slot ``rank * num_workers // num_shards``, so
        each worker takes one contiguous run of shards and the storage
        blocks under a run are read by one worker only (a block spans
        two workers at most where two runs meet).  The one copy of the
        addressing scheme: the remote executor routes through it, over
        its live workers and the shards a stage still has to run.
        """
        if num_workers < 1:
            raise EngineError("placement needs at least one worker")
        if not 0 <= rank < num_shards:
            raise EngineError(
                "rank %d outside %d shards" % (rank, num_shards)
            )
        return int(rank) * int(num_workers) // int(num_shards)

    def __eq__(self, other):
        return (isinstance(other, ShardMap)
                and self.version == other.version
                and self.num_rows == other.num_rows
                and self._shards == other._shards)

    def __hash__(self):
        return hash((self.version, self.num_rows, self._shards))

    def __repr__(self):
        return "ShardMap(v%d, %d shards over %d rows)" % (
            self.version, len(self._shards), self.num_rows,
        )
