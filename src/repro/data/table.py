"""Immutable columnar table with dictionary-encoded dimension columns.

A :class:`Table` stores each dimension attribute as a dense
``numpy.int64`` column of dictionary codes and the measure attribute as a
``numpy.float64`` column.  This is the in-memory representation all of
SIRUM operates on; the engine partitions row ranges of it.
"""

import itertools
import threading

import numpy as np

from repro.common.errors import DataError
from repro.data.encoding import DictionaryEncoder
from repro.data.schema import Schema
from repro.data.shardmap import ShardMap
from repro.data.shm import MmapTableBlock, register_served_handle

#: Process-wide dataset version counter.  Tables are immutable, so a
#: version identifies one table *instance*'s data for its whole life;
#: a new table (even over the same rows) gets a new version, which is
#: what lets shard maps — and the placement affinity built on them —
#: detect that they were computed against different data.
_dataset_versions = itertools.count(1)


class TableBlock:
    """One contiguous row range of a table, as zero-copy NumPy views.

    Blocks are what the engine hands to partition kernels: ``columns``
    and ``measure`` are slices of the parent table's arrays (views, not
    row lists), so partitioning costs nothing and kernels vectorize
    over their block directly.  A block pickles as its own rows, which
    is how an in-RAM partition reaches a process child or a shard
    worker.
    """

    __slots__ = ("index", "columns", "measure", "start", "stop",
                 "size_bytes")

    def __init__(self, index, columns, measure, start, stop, size_bytes):
        self.index = index
        self.columns = columns
        self.measure = measure
        self.start = start
        self.stop = stop
        self.size_bytes = size_bytes

    @property
    def num_rows(self):
        return self.stop - self.start


class Table:
    """Columnar relation matching a :class:`~repro.data.schema.Schema`.

    Construct via :meth:`from_rows`, :meth:`from_columns` or the dataset
    generators.  Tables are immutable: transformation methods return new
    tables sharing column arrays where possible.
    """

    def __init__(self, schema, dim_columns, measure_column, encoders):
        if len(dim_columns) != schema.arity:
            raise DataError(
                "expected %d dimension columns, got %d"
                % (schema.arity, len(dim_columns))
            )
        n = len(measure_column)
        for name, col in zip(schema.dimensions, dim_columns):
            if len(col) != n:
                raise DataError("column %r length mismatch" % name)
        if len(encoders) != schema.arity:
            raise DataError("one encoder per dimension attribute is required")
        self.schema = schema
        self._dims = [np.asarray(col, dtype=np.int64) for col in dim_columns]
        self._measure = np.asarray(measure_column, dtype=np.float64)
        self._encoders = list(encoders)
        for col in self._dims:
            col.setflags(write=False)
        self._measure.setflags(write=False)
        self.dataset_version = next(_dataset_versions)
        self._shard_maps = {}
        self._shard_map_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, schema, rows):
        """Build a table from an iterable of (dim values..., measure) rows.

        Each row must have ``schema.arity + 1`` entries with the measure
        value last.  Dimension values may be any hashable objects; they
        are dictionary-encoded in first-seen order.
        """
        encoders = [DictionaryEncoder() for _ in schema.dimensions]
        dim_lists = [[] for _ in schema.dimensions]
        measure = []
        width = schema.arity + 1
        for row in rows:
            if len(row) != width:
                raise DataError(
                    "row %r has %d fields, expected %d" % (row, len(row), width)
                )
            for j in range(schema.arity):
                dim_lists[j].append(encoders[j].encode(row[j]))
            measure.append(float(row[-1]))
        return cls(schema, dim_lists, measure, encoders)

    @classmethod
    def from_columns(cls, schema, dim_columns, measure_column, encoders):
        """Build a table directly from encoded columns (no copying)."""
        return cls(schema, dim_columns, measure_column, encoders)

    @classmethod
    def open_colfile(cls, path, pool=None, capacity_bytes=None):
        """Open a columnar file as a :class:`FileBackedTable`.

        The returned table is usable everywhere a plain table is, but
        its columns live in the file: scans stream blocks through a
        :class:`~repro.data.bufferpool.BufferPool` (``pool``, or a new
        one sized by ``capacity_bytes`` / ``REPRO_BUFFER_POOL_BYTES``),
        and partitions that cross a process boundary are mmap-backed
        descriptors instead of copies of their rows.
        """
        from repro.data.bufferpool import BufferPool
        from repro.data.colfile import ColFileHandle

        handle = ColFileHandle(path)
        if pool is None:
            pool = BufferPool(capacity_bytes=capacity_bytes)
        # A driver holding this table can serve its blocks to remote
        # shard workers even after the file is deleted or renamed —
        # the live mmap, not the directory entry, is the data.
        register_served_handle(handle)
        return FileBackedTable(handle, pool)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._measure)

    @property
    def num_rows(self):
        return len(self._measure)

    @property
    def measure(self):
        """Measure column as a read-only float64 array."""
        return self._measure

    def dimension_column(self, name):
        """Encoded codes of dimension ``name`` as a read-only array."""
        return self._dims[self.schema.dimension_index(name)]

    def dimension_columns(self):
        """All encoded dimension columns, in schema order."""
        return list(self._dims)

    def encoder(self, name):
        """Dictionary encoder for dimension ``name``."""
        return self._encoders[self.schema.dimension_index(name)]

    def encoders(self):
        return list(self._encoders)

    def domain_size(self, name):
        """Active-domain cardinality of dimension ``name``."""
        return len(self.encoder(name))

    def encoded_row(self, i):
        """Row ``i``'s dimension codes as a tuple (no measure)."""
        return tuple(int(col[i]) for col in self._dims)

    def decoded_row(self, i):
        """Row ``i`` with original dimension values plus the measure."""
        values = tuple(
            enc.decode(int(col[i])) for enc, col in zip(self._encoders, self._dims)
        )
        return values + (float(self._measure[i]),)

    def iter_encoded(self):
        """Yield (dimension-code tuple, measure value) per row."""
        for i in range(len(self)):
            yield self.encoded_row(i), float(self._measure[i])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def take(self, indices):
        """Return a new table with the rows at ``indices`` (in order)."""
        indices = np.asarray(indices, dtype=np.int64)
        dims = [col[indices] for col in self._dims]
        return Table(self.schema, dims, self._measure[indices], self._encoders)

    def slice(self, start, stop):
        """Return the contiguous row range [start, stop)."""
        dims = [col[start:stop] for col in self._dims]
        return Table(self.schema, dims, self._measure[start:stop], self._encoders)

    def sample(self, size, rng):
        """Uniform random sample of ``size`` rows without replacement."""
        if size > len(self):
            raise DataError(
                "sample size %d exceeds table size %d" % (size, len(self))
            )
        indices = rng.choice(len(self), size=size, replace=False)
        return self.take(np.sort(indices))

    def sample_fraction(self, fraction, rng):
        """Uniform random sample keeping ``fraction`` of the rows."""
        if not 0.0 < fraction <= 1.0:
            raise DataError("sampling fraction must be in (0, 1], got %r" % fraction)
        size = max(1, int(round(fraction * len(self))))
        return self.sample(size, rng)

    def project(self, dimension_names):
        """Keep only the listed dimension attributes (measure retained)."""
        schema = self.schema.project(dimension_names)
        indices = [self.schema.dimension_index(n) for n in dimension_names]
        dims = [self._dims[i] for i in indices]
        encs = [self._encoders[i] for i in indices]
        return Table(schema, dims, self._measure, encs)

    def with_measure(self, measure_column):
        """Return a table with the same dimensions and a new measure."""
        if len(measure_column) != len(self):
            raise DataError("replacement measure column length mismatch")
        return Table(self.schema, self._dims, measure_column, self._encoders)

    def shard_map(self, num_shards):
        """This table's :class:`~repro.data.shardmap.ShardMap` for
        ``num_shards`` (built once per degree and cached).

        The map is the one partition abstraction: every execution mode
        — serial views, pickled rows, mmap descriptors, remote
        shards — derives its blocks from the same map, so ranges and
        metered sizes are identical everywhere.  Maps carry this
        table's ``dataset_version``; a different table (new data) gets
        a different version, which placement uses to detect rebinds.
        """
        n = len(self)
        if n == 0:
            raise DataError("cannot partition an empty table")
        num_shards = max(1, min(int(num_shards), n))
        with self._shard_map_lock:
            cached = self._shard_maps.get(num_shards)
            if cached is None:
                cached = ShardMap.build(
                    n, num_shards,
                    version=self.dataset_version,
                    bytes_per_row=max(1, self.estimated_bytes() // n),
                )
                self._shard_maps[num_shards] = cached
            return cached

    def partition_blocks(self, num_blocks, shared=False):
        """Split the table into ``num_blocks`` contiguous row blocks.

        Returns a list of :class:`TableBlock` whose columns and measure
        are views of this table's arrays, one per shard of
        :meth:`shard_map` (``num_blocks`` clamped to ``[1, len(self)]``;
        row counts differ by at most one).  This is the partitioning
        every engine stage runs over.

        ``shared`` asks for blocks that cross a process boundary.  An
        in-RAM table's views already do — they pickle as their own rows —
        so it returns the same blocks either way; a file-backed table
        answers with descriptors (:meth:`FileBackedTable.partition_blocks`).
        """
        return [
            TableBlock(
                index=shard.shard_id,
                columns=[col[shard.start:shard.stop] for col in self._dims],
                measure=self._measure[shard.start:shard.stop],
                start=shard.start,
                stop=shard.stop,
                size_bytes=shard.size_bytes,
            )
            for shard in self.shard_map(num_blocks)
        ]

    # ------------------------------------------------------------------
    # Aggregates used across the library
    # ------------------------------------------------------------------

    def measure_sum(self):
        return float(self._measure.sum())

    def measure_mean(self):
        if len(self) == 0:
            raise DataError("mean of an empty table is undefined")
        return float(self._measure.mean())

    def estimated_bytes(self):
        """In-memory footprint estimate used by the memory simulator."""
        return sum(col.nbytes for col in self._dims) + self._measure.nbytes

    def __repr__(self):
        return "Table(%d rows, %d dims, measure=%r)" % (
            len(self),
            self.schema.arity,
            self.schema.measure,
        )


class FileBackedTable(Table):
    """A table whose columns live in a columnar file, not RAM.

    Open via :meth:`Table.open_colfile`.  Row count, schema, encoders
    and byte estimates come from the file's metadata; the column arrays
    themselves materialize lazily — the first operation that needs whole
    columns (measure transform fit, rule mask evaluation, in-process
    partitioning) streams every block through the buffer pool once and
    concatenates.  The pool bounds resident *decoded* bytes during any
    block-wise scan (:meth:`scan`), which is where the out-of-core
    behaviour lives; its hit/miss/eviction counters are the observable
    record of that streaming.

    Partitions that cross a process boundary are not copies of their
    rows: ``partition_blocks`` with ``shared=True`` returns
    :class:`~repro.data.shm.MmapTableBlock` descriptors that workers
    resolve against an mmap of the file itself, so no whole-table copy
    is made for a process or remote job.

    Values are bit-identical to ``read_colfile(path)`` — codes are
    stored as int64 and the measure as float64, the engine's native
    dtypes — so mining results match the in-RAM path exactly.

    Derived tables (``take``, ``project``, ``with_measure``, ...) are
    plain in-RAM tables.
    """

    def __init__(self, handle, pool):
        self.schema = handle.schema
        self._handle = handle
        self._pool = pool
        self._encoders = list(handle.encoders)
        self._materialize_lock = threading.Lock()
        self.dataset_version = next(_dataset_versions)
        self._shard_maps = {}
        self._shard_map_lock = threading.Lock()

    def __getattr__(self, name):
        # Lazy hook: only fires while ``_dims`` / ``_measure`` are
        # still unset; materializing fills both, after which normal
        # attribute lookup takes over for good.
        if name in ("_dims", "_measure"):
            self._materialize()
            return self.__dict__[name]
        raise AttributeError(
            "%r object has no attribute %r" % (type(self).__name__, name)
        )

    def _materialize(self):
        with self._materialize_lock:
            if "_dims" in self.__dict__:
                return
            handle = self._handle
            dim_parts = [[] for _ in self.schema.dimensions]
            measure_parts = []
            for index in range(handle.num_blocks):
                with self._pool.pin(handle, index) as frame:
                    # Frames are heap copies: safe to keep past unpin.
                    for j, col in enumerate(frame.columns):
                        dim_parts[j].append(col)
                    measure_parts.append(frame.measure)
            if measure_parts:
                dims = [np.concatenate(parts) for parts in dim_parts]
                measure = np.concatenate(measure_parts)
            else:
                dims = [np.zeros(0, dtype=np.int64)
                        for _ in self.schema.dimensions]
                measure = np.zeros(0, dtype=np.float64)
            for col in dims:
                col.setflags(write=False)
            measure.setflags(write=False)
            self._dims = dims
            self._measure = measure

    # -- metadata answered from the file, without materializing --------

    def __len__(self):
        return self._handle.num_rows

    @property
    def num_rows(self):
        return self._handle.num_rows

    def estimated_bytes(self):
        # Same formula as the in-RAM layout (int64 codes + float64
        # measure), so the memory simulator's charges are identical.
        return self._handle.num_rows * self._handle.row_bytes

    @property
    def is_materialized(self):
        return "_dims" in self.__dict__

    @property
    def buffer_pool(self):
        return self._pool

    # -- out-of-core access --------------------------------------------

    def scan(self, dim_predicates=None, measure_range=None):
        """Filtered scan streamed through the buffer pool.

        Returns a plain in-RAM :class:`Table` of the matching rows;
        blocks whose statistics exclude the predicate cost no I/O.
        """
        table, _read, _skipped = self._handle.scan(
            dim_predicates, measure_range, pool=self._pool
        )
        return table

    def scan_stats(self, dim_predicates=None, measure_range=None):
        """(blocks_read, blocks_skipped) a scan would do (stats only)."""
        return self._handle.scan_stats(dim_predicates, measure_range)

    def partition_blocks(self, num_blocks, shared=False):
        """Partition for the engine; mmap descriptors in shared mode.

        With ``shared=True`` (process or remote execution) the blocks
        carry ``(path, file_key, row range)`` and workers map the file
        directly, or fetch its blocks from the driver, instead of
        receiving the rows in the batch.  Partition bounds and ``size_bytes`` match the base
        implementation exactly, keeping metered costs bit-identical.
        """
        if not shared:
            return super().partition_blocks(num_blocks, shared=False)
        return [
            MmapTableBlock(
                index=shard.shard_id,
                path=self._handle.path,
                file_key=self._handle.file_key,
                start=shard.start,
                stop=shard.stop,
                size_bytes=shard.size_bytes,
            )
            for shard in self.shard_map(num_blocks)
        ]

    def close(self):
        """Close the underlying file handle (the table stays usable
        only if already materialized)."""
        self._handle.close()

    def __repr__(self):
        return "FileBackedTable(%r, %d rows, %d dims, measure=%r)" % (
            self._handle.path,
            len(self),
            self.schema.arity,
            self.schema.measure,
        )
