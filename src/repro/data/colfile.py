"""Binary columnar file format with block statistics.

The thesis reads CSV in-situ and notes (§4.5) that deserialized Java
objects occupy far more memory than the on-disk data.  A dictionary-
encoded columnar layout is the standard answer, and it also enables
predicate pushdown to storage: per-block min/max statistics let a scan
skip whole row blocks that cannot match.  This module implements such a
format end to end so the data layer is complete rather than CSV-only.

Layout (all integers little-endian)::

    magic "SRCF" | version u32 | header_len u32 | header JSON
    dict_len u32 | per-dimension dictionaries (JSON, in code order)
    pad_len u32 | pad_len zero bytes (aligns the block region to 64 B)
    per block:
        per dimension: codes as int64[rows_in_block]
        measure as float64[rows_in_block]
    footer JSON: row counts and per-block min/max statistics
    footer_len u32

The header carries the schema; blocks hold ``block_rows`` rows each
(last block ragged).  Statistics record, per block, each dimension's
min/max *code* and the measure's min/max, mirroring Parquet/ORC
row-group stats.

Codes are stored as int64 — the engine's native dtype — so an mmap of
the block region yields column views that are bit-for-bit the arrays an
in-RAM :class:`~repro.data.table.Table` holds, with no decode copy.
:class:`ColFileHandle` is the open-file object the rest of the data
layer builds on: it parses the preamble and footer once, builds the
dictionary encoders once, and serves zero-copy block views from a
read-only mmap (so repeated reads cost page-cache lookups, not I/O).
"""

import json
import mmap
import os
import struct

import numpy as np

from repro.common.errors import DataError, EngineError
from repro.data.encoding import DictionaryEncoder
from repro.data.schema import Schema
from repro.data.shardmap import ShardMap
from repro.data.table import Table

MAGIC = b"SRCF"
VERSION = 2
DEFAULT_BLOCK_ROWS = 4096
BLOCK_ALIGN = 64


def write_colfile(table, path, block_rows=DEFAULT_BLOCK_ROWS):
    """Serialize ``table`` to a columnar file; returns block statistics."""
    if block_rows < 1:
        raise DataError("block_rows must be at least 1")
    n = len(table)
    dims = table.dimension_columns()
    measure = np.asarray(table.measure, dtype=np.float64)
    header = {
        "dimensions": list(table.schema.dimensions),
        "measure": table.schema.measure,
        "num_rows": n,
        "block_rows": block_rows,
    }
    dictionaries = [encoder.values() for encoder in table.encoders()]

    blocks = []
    stats = []
    for start in range(0, max(n, 1), block_rows):
        stop = min(start + block_rows, n)
        if start >= stop:
            break
        block_stat = {"rows": stop - start, "dims": [], "measure": None}
        chunk_parts = []
        for column in dims:
            codes = np.ascontiguousarray(column[start:stop], dtype=np.int64)
            chunk_parts.append(codes.tobytes())
            block_stat["dims"].append(
                [int(codes.min()), int(codes.max())]
            )
        values = measure[start:stop]
        chunk_parts.append(values.tobytes())
        block_stat["measure"] = [float(values.min()), float(values.max())]
        blocks.append(b"".join(chunk_parts))
        stats.append(block_stat)

    footer = {"blocks": stats}
    with open(path, "wb") as f:
        header_bytes = json.dumps(header).encode("utf-8")
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(header_bytes)))
        f.write(header_bytes)
        dict_bytes = json.dumps(dictionaries).encode("utf-8")
        f.write(struct.pack("<I", len(dict_bytes)))
        f.write(dict_bytes)
        pos = f.tell()
        pad_len = (-(pos + 4)) % BLOCK_ALIGN
        f.write(struct.pack("<I", pad_len))
        f.write(b"\0" * pad_len)
        for block in blocks:
            f.write(block)
        footer_bytes = json.dumps(footer).encode("utf-8")
        f.write(footer_bytes)
        f.write(struct.pack("<I", len(footer_bytes)))
    return stats


def views_over(buffer, offset, rows, num_dimensions):
    """Zero-copy (columns, measure) views of one block's payload.

    ``buffer[offset:]`` holds the block region layout
    ``[int64[rows] × num_dimensions | float64[rows]]``.
    """
    columns = [
        np.frombuffer(buffer, dtype=np.int64, count=rows,
                      offset=offset + 8 * j * rows)
        for j in range(num_dimensions)
    ]
    measure = np.frombuffer(
        buffer, dtype=np.float64, count=rows,
        offset=offset + 8 * num_dimensions * rows,
    )
    return columns, measure


def read_row_range(start, stop, num_rows, block_rows, num_dimensions,
                   block_buffers):
    """(columns, measure) for rows [start, stop) of a blocked colfile.

    ``block_buffers(first, last)`` returns one ``(buffer, offset)`` per
    block ``first..last``: where that block's payload starts.  It is
    the only thing that differs between readers — offsets into one
    mmap (:class:`ColFileHandle`) or one bytes object per shipped block
    (:class:`~repro.net.worker.RemoteColFile`) — so both return the
    same bytes by construction.  A range inside one block is a
    zero-copy view of that block's buffer; a range spanning blocks
    concatenates the per-block slices (one read-only copy of just that
    range).
    """
    if not 0 <= start <= stop <= num_rows:
        raise DataError(
            "row range [%d, %d) out of bounds for %d rows"
            % (start, stop, num_rows)
        )
    if start == stop:
        empty_dims = [np.zeros(0, dtype=np.int64)
                      for _ in range(num_dimensions)]
        return empty_dims, np.zeros(0, dtype=np.float64)
    first = start // block_rows
    last = (stop - 1) // block_rows
    dim_parts = [[] for _ in range(num_dimensions)]
    measure_parts = []
    for index, (buffer, offset) in enumerate(block_buffers(first, last),
                                             first):
        b_start = index * block_rows
        b_stop = min(b_start + block_rows, num_rows)
        columns, measure = views_over(
            buffer, offset, b_stop - b_start, num_dimensions
        )
        lo = max(start, b_start) - b_start
        hi = min(stop, b_stop) - b_start
        for j, col in enumerate(columns):
            dim_parts[j].append(col[lo:hi])
        measure_parts.append(measure[lo:hi])
    if first == last:
        return [parts[0] for parts in dim_parts], measure_parts[0]
    out_columns = [np.concatenate(parts) for parts in dim_parts]
    out_measure = np.concatenate(measure_parts)
    for col in out_columns:
        col.setflags(write=False)
    out_measure.setflags(write=False)
    return out_columns, out_measure


class ColFileHandle:
    """An open columnar file: parsed metadata plus mmap'd block region.

    The handle is the unit the buffer pool and the mmap-backed process
    blocks key on.  Opening parses the preamble and footer exactly once
    and builds one :class:`DictionaryEncoder` per dimension, so scans
    never re-encode dictionaries per call.  ``file_key`` (size,
    mtime_ns) identifies this file *state*; attachment caches use it to
    refuse a file that was rewritten underneath them.

    Block data is served as read-only NumPy views over a private
    ``ACCESS_READ`` mmap — the OS page cache is the only copy, shared
    with every other process mapping the same file.
    """

    def __init__(self, path):
        self.path = str(path)
        try:
            with open(self.path, "rb") as f:
                info = os.fstat(f.fileno())
                self.file_key = (info.st_size, info.st_mtime_ns)
                self._mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise DataError(
                "cannot open columnar file %s: %s" % (self.path, exc)
            ) from exc
        try:
            self._parse()
        except DataError:
            self.close()
            raise
        except (ValueError, KeyError, TypeError, struct.error) as exc:
            self.close()
            raise DataError(
                "%s has a corrupt columnar layout" % self.path
            ) from exc

    def _parse(self):
        mm = self._mm
        size = len(mm)
        if size < 12 or mm[:4] != MAGIC:
            raise DataError(
                "%s is not a columnar file (bad magic)" % self.path
            )
        version, header_len = struct.unpack_from("<II", mm, 4)
        if version != VERSION:
            raise DataError(
                "unsupported columnar file version %d in %s"
                % (version, self.path)
            )
        pos = 12
        header = json.loads(bytes(mm[pos:pos + header_len]).decode("utf-8"))
        pos += header_len
        (dict_len,) = struct.unpack_from("<I", mm, pos)
        pos += 4
        # ``parse_constant=float``: one object per NaN entry, as the
        # writer's dictionary held them (``json`` hands out one shared
        # NaN otherwise).
        dictionaries = json.loads(
            bytes(mm[pos:pos + dict_len]).decode("utf-8"),
            parse_constant=float,
        )
        pos += dict_len
        (pad_len,) = struct.unpack_from("<I", mm, pos)
        pos += 4 + pad_len

        self.dimensions = list(header["dimensions"])
        self.schema = Schema(self.dimensions, header["measure"])
        self.num_rows = int(header["num_rows"])
        self.block_rows = int(header["block_rows"])
        self.data_offset = pos
        self.row_bytes = 8 * (len(self.dimensions) + 1)

        self.encoders = [DictionaryEncoder.from_values(values)
                         for values in dictionaries]

        footer_start = size - 4
        if footer_start < pos:
            raise DataError(
                "%s has a corrupt columnar footer" % self.path
            )
        (footer_len,) = struct.unpack_from("<I", mm, footer_start)
        if footer_start - footer_len < pos:
            raise DataError(
                "%s has a corrupt columnar footer" % self.path
            )
        footer = json.loads(
            bytes(mm[footer_start - footer_len:footer_start]).decode("utf-8")
        )
        self.block_stats = list(footer["blocks"])
        self.num_blocks = len(self.block_stats)

        # The file's physical layout as a shard map: one shard per
        # block, block-aligned except the ragged last block, versioned
        # by the file state (a rewritten file is a different dataset).
        try:
            self.block_map = ShardMap.from_block_rows(
                [int(stat["rows"]) for stat in self.block_stats],
                version=self.file_key[1],
                bytes_per_row=self.row_bytes,
                align=self.block_rows if self.num_blocks > 1 else 1,
            )
        except EngineError as exc:
            raise DataError(
                "%s has inconsistent block row counts: %s"
                % (self.path, exc)
            ) from None
        if self.block_map.num_rows != self.num_rows:
            raise DataError(
                "%s footer disagrees with header row count" % self.path
            )
        # Readers locate a row's block by ``row // block_rows``.
        if self.block_map.bounds[:-1] != list(
                range(0, self.num_rows, self.block_rows)):
            raise DataError(
                "%s has blocks that are not block_rows=%d rows each"
                % (self.path, self.block_rows)
            )
        if pos + self.num_rows * self.row_bytes != footer_start - footer_len:
            raise DataError(
                "%s is truncated (block region size mismatch)" % self.path
            )

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------

    def block_range(self, index):
        """Row range [start, stop) covered by block ``index``."""
        shard = self.block_map[index]
        return shard.start, shard.stop

    def block_nbytes(self, index):
        """Decoded byte size of block ``index`` (codes + measure)."""
        return self.block_map[index].size_bytes

    def block_views(self, index):
        """Zero-copy (columns, measure) views of block ``index``.

        The arrays alias the read-only mmap; they stay valid while the
        handle is open.  Callers that outlive the handle must copy.
        """
        start, stop = self.block_range(index)
        return views_over(self._mm, self._block_offset(index), stop - start,
                          len(self.dimensions))

    def _block_offset(self, index):
        return self.data_offset + self.block_range(index)[0] * self.row_bytes

    def _mapped_blocks(self, first, last):
        return [(self._mm, self._block_offset(index))
                for index in range(first, last + 1)]

    def block_raw_bytes(self, index):
        """The exact on-disk bytes of block ``index``'s payload region.

        This is what the remote block-shipping path serves: the raw
        little-endian ``[per-dim int64[rows] | measure float64[rows]]``
        region exactly as mmap'd, so a worker rebuilding column views
        from these bytes gets arrays bit-identical to a local mmap
        (see :class:`~repro.net.worker.RemoteColFile`).
        """
        base = self._block_offset(index)
        return bytes(self._mm[base:base + self.block_nbytes(index)])

    def wire_meta(self):
        """Layout facts a remote reader needs to interpret raw blocks."""
        return {
            "num_rows": self.num_rows,
            "block_rows": self.block_rows,
            "num_dimensions": len(self.dimensions),
        }

    def read_block(self, index):
        """Materialized (columns, measure) copies of block ``index``.

        This is the buffer pool's fault path: the copies live on the
        heap (counted against the pool's capacity) independent of the
        mmap, unlike :meth:`block_views`.
        """
        columns, measure = self.block_views(index)
        out_columns = [col.copy() for col in columns]
        out_measure = measure.copy()
        for col in out_columns:
            col.setflags(write=False)
        out_measure.setflags(write=False)
        return out_columns, out_measure

    def read_rows(self, start, stop):
        """(columns, measure) for the row range [start, stop).

        A range inside one block returns zero-copy mmap views; a range
        spanning blocks concatenates the per-block views (one copy of
        just that range).  This is what mmap-backed partition blocks
        resolve through in process workers.
        """
        return read_row_range(
            start, stop, self.num_rows, self.block_rows,
            len(self.dimensions), self._mapped_blocks,
        )

    # ------------------------------------------------------------------
    # Predicate pushdown
    # ------------------------------------------------------------------

    def required_codes(self, dim_predicates):
        """Map dimension index -> required code (None: value unknown)."""
        required = {}
        if dim_predicates:
            for name, value in dim_predicates.items():
                if name not in self.dimensions:
                    raise DataError("unknown dimension %r in predicate" % name)
                j = self.dimensions.index(name)
                if value not in self.encoders[j]:
                    # Value never occurs: nothing can match anywhere.
                    required[j] = None
                else:
                    required[j] = self.encoders[j].encode_existing(value)
        return required

    def scan_stats(self, dim_predicates=None, measure_range=None):
        """(blocks_read, blocks_skipped) from footer stats alone.

        No block payload is touched — this is the planning-time answer
        to "how much I/O would this scan do".
        """
        required = self.required_codes(dim_predicates)
        read = skipped = 0
        for stat in self.block_stats:
            if _block_can_match(stat, required, measure_range):
                read += 1
            else:
                skipped += 1
        return read, skipped

    def scan(self, dim_predicates=None, measure_range=None, pool=None):
        """Filtered scan; returns (table, blocks_read, blocks_skipped).

        Skipped blocks cost no I/O at all (the stats decision precedes
        any payload access).  Surviving blocks stream through ``pool``
        when given — bounding resident decoded bytes and recording
        hit/miss/eviction counters — or are read as direct mmap views.
        """
        required = self.required_codes(dim_predicates)
        kept_dim_columns = [[] for _ in self.dimensions]
        kept_measure = []
        blocks_read = 0
        blocks_skipped = 0
        for index, stat in enumerate(self.block_stats):
            if not _block_can_match(stat, required, measure_range):
                blocks_skipped += 1
                continue
            blocks_read += 1
            if pool is not None:
                with pool.pin(self, index) as frame:
                    columns, measure = frame.columns, frame.measure
                    self._filter_block(
                        columns, measure, required, measure_range,
                        kept_dim_columns, kept_measure,
                    )
            else:
                columns, measure = self.block_views(index)
                self._filter_block(
                    columns, measure, required, measure_range,
                    kept_dim_columns, kept_measure,
                )
        if kept_measure:
            dim_arrays = [np.concatenate(parts) for parts in kept_dim_columns]
            measure_array = np.concatenate(kept_measure)
        else:
            dim_arrays = [np.zeros(0, dtype=np.int64) for _ in self.dimensions]
            measure_array = np.zeros(0, dtype=np.float64)
        table = Table.from_columns(
            self.schema, dim_arrays, measure_array, self.encoders
        )
        return table, blocks_read, blocks_skipped

    @staticmethod
    def _filter_block(columns, measure, required, measure_range,
                      kept_dim_columns, kept_measure):
        rows = len(measure)
        mask = np.ones(rows, dtype=bool)
        for j, code in required.items():
            if code is None:
                mask[:] = False
                break
            mask = mask & (columns[j] == code)
        if measure_range is not None:
            low, high = measure_range
            mask = mask & (measure >= low) & (measure <= high)
        for j, col in enumerate(columns):
            # Boolean indexing copies, so kept rows are safe to use
            # after the source block is unpinned or evicted.
            kept_dim_columns[j].append(col[mask])
        kept_measure.append(measure[mask])

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------

    def close(self):
        mm, self._mm = getattr(self, "_mm", None), None
        if mm is not None:
            try:
                mm.close()
            except BufferError:
                # Live NumPy views still reference the map; the OS
                # reclaims it when they are garbage collected.
                pass

    @property
    def closed(self):
        return self._mm is None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self):
        return "ColFileHandle(%r, %d rows, %d blocks)" % (
            self.path, self.num_rows, self.num_blocks
        )


def read_colfile(path):
    """Load a full columnar file back into a :class:`Table`."""
    return scan_colfile(path)


def scan_colfile(path, dim_predicates=None, measure_range=None, pool=None):
    """Read a columnar file, skipping blocks via statistics.

    Parameters
    ----------
    dim_predicates:
        Optional mapping of dimension name -> required *value* (the
        original object, not the code).  Blocks whose code range cannot
        contain the value are skipped entirely; surviving blocks are
        filtered row-exactly.
    measure_range:
        Optional (low, high) inclusive bounds on the measure; same
        block-skip + exact-filter behaviour.
    pool:
        Optional :class:`~repro.data.bufferpool.BufferPool` to stream
        surviving blocks through.

    Returns a :class:`Table` of exactly the matching rows.  The number
    of blocks read versus skipped is available via
    :func:`block_scan_stats` for the same arguments.
    """
    with ColFileHandle(path) as handle:
        table, _read, _skipped = handle.scan(
            dim_predicates, measure_range, pool=pool
        )
    return table


def block_scan_stats(path, dim_predicates=None, measure_range=None):
    """Return (blocks_read, blocks_skipped) for a hypothetical scan.

    Computed from the footer statistics alone: no block payload is read
    or decoded.
    """
    with ColFileHandle(path) as handle:
        return handle.scan_stats(dim_predicates, measure_range)


def _block_can_match(stat, required_codes, measure_range):
    for j, code in required_codes.items():
        if code is None:
            return False
        low, high = stat["dims"][j]
        if not low <= code <= high:
            return False
    if measure_range is not None:
        low, high = measure_range
        m_low, m_high = stat["measure"]
        if m_high < low or m_low > high:
            return False
    return True
