"""Eager RDD layer over the cluster context.

Provides the familiar coarse-grained transformation API (thesis §2.6.3)
over arbitrary Python elements.  Transformations execute immediately —
the simulator has no need for lazy DAG re-execution — but costs are
metered stage by stage exactly as the cluster context prescribes.

SIRUM's hot paths use vectorized kernels through
:meth:`ClusterContext.run_stage` directly; this layer exists for the
engine's own tests, examples and the naive/baseline implementations
where per-element processing matches what the thesis profiles.
"""

from repro.common.errors import EngineError
from repro.common.rng import make_rng
from repro.data.shardmap import ShardMap

# Rough per-element serialized size used for shuffle-byte estimates.
ELEMENT_BYTES = 64


# ----------------------------------------------------------------------
# Stage kernels
#
# Module-level classes rather than closures so a kernel pickles — and
# therefore runs in a process-pool worker — whenever the user function
# it wraps does.  Each receives ``(tc, (index, partition))`` and defers
# its storage-cache touch; the driver replays accesses in partition
# order (the cluster-module contract for every execution mode).
# ----------------------------------------------------------------------


class _IndexedKernel:
    """Base: cache accounting for one ``(index, partition)`` task.

    Slots-only classes, so the default pickle protocol ships them
    whenever their fields (notably the user function) pickle.
    """

    __slots__ = ("cache_key",)

    def __init__(self, cache_key):
        self.cache_key = cache_key

    def touch(self, tc, index, part):
        if self.cache_key is not None:
            tc.request_cache_access(
                (self.cache_key, index), len(part) * ELEMENT_BYTES
            )


class _MapPartitionsKernel(_IndexedKernel):
    """Run ``fn(list) -> list`` over one partition."""

    __slots__ = ("fn",)

    def __init__(self, fn, cache_key):
        super().__init__(cache_key)
        self.fn = fn

    def __call__(self, tc, item):
        index, part = item
        self.touch(tc, index, part)
        tc.add_records(len(part))
        result = list(self.fn(part))
        tc.add_ops(len(result))
        return result


class _CombineKernel(_IndexedKernel):
    """Map-side combine of (k, v) pairs with ``combine``."""

    __slots__ = ("combine",)

    def __init__(self, combine, cache_key):
        super().__init__(cache_key)
        self.combine = combine

    def __call__(self, tc, item):
        index, part = item
        self.touch(tc, index, part)
        tc.add_records(len(part))
        acc = {}
        for key, value in part:
            if key in acc:
                acc[key] = self.combine(acc[key], value)
            else:
                acc[key] = value
            tc.add_ops(1)
        tc.add_output_bytes(len(acc) * ELEMENT_BYTES)
        return acc


class _CollectKernel(_IndexedKernel):
    __slots__ = ()

    def __call__(self, tc, item):
        index, part = item
        self.touch(tc, index, part)
        tc.add_records(len(part))
        return list(part)


class _CountKernel(_IndexedKernel):
    __slots__ = ()

    def __call__(self, tc, item):
        index, part = item
        self.touch(tc, index, part)
        tc.add_records(len(part))
        return len(part)


class _SampleKernel(_IndexedKernel):
    """Bernoulli sampling with one independent RNG per partition."""

    __slots__ = ("fraction", "seed")

    def __init__(self, fraction, seed, cache_key):
        super().__init__(cache_key)
        self.fraction = fraction
        self.seed = seed

    def __call__(self, tc, item):
        index, part = item
        self.touch(tc, index, part)
        tc.add_records(len(part))
        rng = make_rng((self.seed, index))
        result = [x for x in part if rng.random() < self.fraction]
        tc.add_ops(len(result))
        return result


def _reduce_kernel(tc, bucket):
    tc.add_records(len(bucket))
    return list(bucket.items())


class _MapFn:
    """``fn`` element-wise over a partition (picklable with ``fn``)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        fn = self.fn
        return [fn(x) for x in part]


class _FilterFn(_MapFn):
    __slots__ = ()

    def __call__(self, part):
        fn = self.fn
        return [x for x in part if fn(x)]


class _FlatMapFn(_MapFn):
    __slots__ = ()

    def __call__(self, part):
        fn = self.fn
        out = []
        for x in part:
            out.extend(fn(x))
        return out


class _BroadcastJoinFn:
    """Map-side join against a broadcast dict (ships with the kernel)."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    def __call__(self, part):
        table = self.table
        return [
            (key, (value, table[key])) for key, value in part if key in table
        ]


class RDD:
    """An eagerly materialized, partitioned collection."""

    def __init__(self, ctx, partitions, cache_key=None):
        self.ctx = ctx
        self._partitions = [list(p) for p in partitions]
        self._cache_key = cache_key

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @classmethod
    def parallelize(cls, ctx, data, num_partitions):
        """Split ``data`` into ``num_partitions`` roughly equal chunks.

        Chunk boundaries come from the same
        :class:`~repro.data.shardmap.ShardMap` split every other
        layer partitions with (unclamped: the caller's partition count
        is kept even when some chunks are empty).
        """
        data = list(data)
        if num_partitions < 1:
            raise EngineError("num_partitions must be at least 1")
        shard_map = ShardMap.build(len(data), num_partitions, clamp=False)
        return cls(ctx, [data[s.start:s.stop] for s in shard_map])

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_partitions(self):
        return len(self._partitions)

    def cache(self):
        """Register partitions with the cluster's storage memory."""
        self._cache_key = "rdd-%d" % id(self)
        for i, part in enumerate(self._partitions):
            self.ctx.cache.access(
                (self._cache_key, i), len(part) * ELEMENT_BYTES
            )
        return self

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def map(self, fn):
        return self.map_partitions(_MapFn(fn))

    def filter(self, fn):
        return self.map_partitions(_FilterFn(fn))

    def flat_map(self, fn):
        return self.map_partitions(_FlatMapFn(fn))

    def map_partitions(self, fn):
        """Apply ``fn(list) -> list`` per partition as one stage."""
        indexed = list(enumerate(self._partitions))
        kernel = _MapPartitionsKernel(fn, self._cache_key)
        stage = self.ctx.run_stage(kernel, indexed, name="map_partitions")
        return RDD(self.ctx, stage.outputs)

    # ------------------------------------------------------------------
    # Wide transformations
    # ------------------------------------------------------------------

    def reduce_by_key(self, combine, num_partitions=None):
        """Group (k, v) pairs by key and fold values with ``combine``.

        Performs a map-side combine per partition (as Spark does), then
        a metered shuffle, then a reduce stage.
        """
        num_partitions = num_partitions or self.num_partitions
        indexed = list(enumerate(self._partitions))
        combine_kernel = _CombineKernel(combine, self._cache_key)
        combined = self.ctx.run_stage(
            combine_kernel, indexed, name="map_side_combine", shuffle_output=True
        )

        buckets = [dict() for _ in range(num_partitions)]
        for acc in combined.outputs:
            for key, value in acc.items():
                bucket = buckets[hash(key) % num_partitions]
                if key in bucket:
                    bucket[key] = combine(bucket[key], value)
                else:
                    bucket[key] = value

        reduced = self.ctx.run_stage(_reduce_kernel, buckets, name="reduce")
        return RDD(self.ctx, reduced.outputs)

    def group_by_key(self, num_partitions=None):
        as_lists = self.map(lambda kv: (kv[0], [kv[1]]))
        return as_lists.reduce_by_key(lambda a, b: a + b, num_partitions)

    def join(self, other, num_partitions=None):
        """Inner shuffle join of two (k, v) RDDs -> (k, (v1, v2))."""
        left = self.map(lambda kv: (kv[0], ("L", kv[1])))
        right = other.map(lambda kv: (kv[0], ("R", kv[1])))
        both = RDD(self.ctx, left._partitions + right._partitions)
        grouped = both.group_by_key(num_partitions or self.num_partitions)

        def emit(kv):
            key, tagged = kv
            lefts = [v for tag, v in tagged if tag == "L"]
            rights = [v for tag, v in tagged if tag == "R"]
            return [(key, (lv, rv)) for lv in lefts for rv in rights]

        return grouped.flat_map(emit)

    def broadcast_join(self, small_pairs):
        """Map-side join against a broadcast dict of (k -> v)."""
        small = dict(small_pairs)
        handle = self.ctx.broadcast(small, len(small) * ELEMENT_BYTES)
        return self.map_partitions(_BroadcastJoinFn(handle.value))

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self):
        stage = self.ctx.run_stage(
            _CollectKernel(self._cache_key),
            list(enumerate(self._partitions)), name="collect"
        )
        out = []
        for part in stage.outputs:
            out.extend(part)
        return out

    def count(self):
        stage = self.ctx.run_stage(
            _CountKernel(self._cache_key),
            list(enumerate(self._partitions)), name="count"
        )
        return sum(stage.outputs)

    def sample(self, fraction, seed=None):
        """Bernoulli sample of elements, one decision per element.

        ``seed=None`` (the default) derives a fresh per-call seed from
        the cluster context, so repeated samples draw different rows
        while whole-run reruns still reproduce.  Pass an explicit seed
        to pin one draw.  Decisions use one independent RNG per
        partition (seeded by ``(seed, partition_index)``), making the
        sample independent of task execution order — serial and
        parallel stages keep the same rows.
        """
        if not 0.0 < fraction <= 1.0:
            raise EngineError("sample fraction must be in (0, 1]")
        if seed is None:
            seed = self.ctx.next_sample_seed()
        indexed = list(enumerate(self._partitions))
        kernel = _SampleKernel(fraction, seed, self._cache_key)
        stage = self.ctx.run_stage(kernel, indexed, name="sample")
        return RDD(self.ctx, stage.outputs)

    def union(self, other):
        if other.ctx is not self.ctx:
            raise EngineError("cannot union RDDs from different clusters")
        return RDD(self.ctx, self._partitions + other._partitions)
