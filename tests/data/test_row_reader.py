"""The one colfile row reader, over both buffer shapes.

``repro.data.colfile.read_row_range`` turns a row range into block
slices for :class:`~repro.data.colfile.ColFileHandle` (one mmap, an
offset per block) and :class:`~repro.net.worker.RemoteColFile` (one
buffer per shipped block).  The property here is that both shapes
return exactly ``source[start:stop]``; the remote reader's own checks
(received length, meta, range) are driven through a scripted
connection.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import DataError, ProtocolError
from repro.data.colfile import ColFileHandle, read_row_range, write_colfile
from repro.net.worker import RemoteColFile, WorkerBlockCache

#: Bytes in front of the block region in the contiguous shape, standing
#: in for a colfile's preamble (``ColFileHandle.data_offset``).
PREAMBLE = 24


@st.composite
def layouts(draw):
    num_rows = draw(st.integers(0, 48))
    block_rows = draw(st.integers(1, 12))
    num_dimensions = draw(st.integers(0, 3))
    start = draw(st.integers(0, num_rows))
    stop = draw(st.integers(start, num_rows))
    return num_rows, block_rows, num_dimensions, start, stop


def _source(num_rows, num_dimensions):
    columns = [np.arange(num_rows, dtype=np.int64) * (j + 2) - j
               for j in range(num_dimensions)]
    return columns, np.arange(num_rows, dtype=np.float64) * 0.5 - 3.0


def _block_payloads(columns, measure, block_rows):
    """Each block's ``[int64[rows] × d | float64[rows]]`` bytes."""
    return [
        b"".join([col[lo:lo + block_rows].tobytes() for col in columns]
                 + [measure[lo:lo + block_rows].tobytes()])
        for lo in range(0, measure.size, block_rows)
    ]


@given(layouts())
@example((10, 4, 2, 3, 3))    # empty range inside a block
@example((0, 4, 1, 0, 0))     # empty file
@example((6, 1, 2, 1, 5))     # single-row blocks
@example((10, 4, 2, 7, 10))   # ragged last block
@example((10, 4, 2, 2, 8))    # ends exactly on a block edge
@example((10, 4, 0, 0, 10))   # measure only
@settings(max_examples=300, deadline=None)
def test_both_buffer_shapes_equal_a_plain_slice(layout):
    num_rows, block_rows, num_dimensions, start, stop = layout
    columns, measure = _source(num_rows, num_dimensions)
    payloads = _block_payloads(columns, measure, block_rows)
    contiguous = b"\xff" * PREAMBLE + b"".join(payloads)
    stride = block_rows * 8 * (num_dimensions + 1)
    asked = []

    def per_block(first, last):          # the RemoteColFile shape
        asked.append((first, last))
        return [(payloads[i], 0) for i in range(first, last + 1)]

    def mapped(first, last):             # the mmap shape
        return [(contiguous, PREAMBLE + i * stride)
                for i in range(first, last + 1)]

    for buffers in (per_block, mapped):
        out_columns, out_measure = read_row_range(
            start, stop, num_rows, block_rows, num_dimensions, buffers
        )
        assert len(out_columns) == num_dimensions
        for out, col in zip(out_columns + [out_measure],
                            columns + [measure]):
            assert out.dtype == col.dtype
            assert out.tobytes() == col[start:stop].tobytes()

    out_columns, out_measure = read_row_range(
        start, stop, num_rows, block_rows, num_dimensions, per_block
    )
    if start == stop:
        assert asked == []               # nothing fetched for no rows
        return
    first, last = asked[-1]
    assert (first, last) == (start // block_rows, (stop - 1) // block_rows)
    for out in out_columns + [out_measure]:
        if first == last:
            block = np.frombuffer(payloads[first], dtype=np.uint8)
            assert np.shares_memory(out, block)
        else:
            assert not out.flags.writeable


class _ScriptedDriver:
    """Stands in for the stage connection: answers ``block_fetch``."""

    def __init__(self, handle, meta=None, tamper=None):
        self._handle = handle
        self._meta = handle.wire_meta() if meta is None else meta
        self._tamper = tamper or (lambda index, data: data)
        self.fetched = []

    def call_back(self, op, payload, timeout=None):
        assert op == "block_fetch"
        self.fetched.append(list(payload["blocks"]))
        reply = {"blocks": [
            {"index": i, "data": position}
            for position, i in enumerate(payload["blocks"])
        ]}
        if payload["want_meta"]:
            reply["meta"] = self._meta
        # Blobs reach the reader as views into one frame body.
        return reply, [
            memoryview(self._tamper(i, self._handle.block_raw_bytes(i)))
            for i in payload["blocks"]
        ]


@pytest.fixture
def handle(flights, tmp_path):
    path = tmp_path / "flights.col"
    write_colfile(flights, path, block_rows=4)   # 14 rows: 4 + 4 + 4 + 2
    with ColFileHandle(path) as opened:
        yield opened


def _remote(handle, **driver_kwargs):
    driver = _ScriptedDriver(handle, **driver_kwargs)
    remote = RemoteColFile(handle.path, handle.file_key,
                           WorkerBlockCache(1 << 20), driver)
    return remote, driver


class TestBothCallers:
    @pytest.mark.parametrize("start,stop", [(0, 14), (3, 9), (4, 8),
                                            (13, 14), (5, 5)])
    def test_remote_reads_what_the_handle_reads(self, handle, start, stop):
        remote, _ = _remote(handle)
        local_columns, local_measure = handle.read_rows(start, stop)
        columns, measure = remote.read_rows(start, stop)
        assert measure.tobytes() == local_measure.tobytes()
        assert [c.tobytes() for c in columns] == [
            c.tobytes() for c in local_columns
        ]

    @pytest.mark.parametrize("start,stop", [(-1, 3), (5, 4), (0, 15)])
    def test_out_of_range_raises_data_error(self, handle, start, stop):
        remote, driver = _remote(handle)
        with pytest.raises(DataError, match="out of bounds"):
            handle.read_rows(start, stop)
        with pytest.raises(DataError, match="out of bounds"):
            remote.read_rows(start, stop)
        assert driver.fetched == [[]]    # the meta fetch, no block


class TestRemoteChecks:
    def test_missing_blocks_arrive_in_one_round_trip_then_cache(self,
                                                                handle):
        remote, driver = _remote(handle)
        remote.read_rows(2, 11)
        remote.read_rows(0, 14)
        assert driver.fetched == [[], [0, 1, 2], [3]]

    def test_short_block_is_a_protocol_error(self, handle):
        remote, _ = _remote(
            handle, tamper=lambda i, data: data[:-8] if i == 1 else data
        )
        with pytest.raises(ProtocolError, match="block 1 .* arrived with"):
            remote.read_rows(0, 14)
        # Refused before it was cached, in raw block bytes.
        assert remote._cache.get((remote.path, remote.file_key, 1)) is None
        assert (remote._cache.stats()["fetched_bytes"]
                == handle.block_nbytes(0))

    def test_cached_blocks_are_bytes_the_cache_owns(self, handle):
        # The driver double hands out views, as a decoded frame does;
        # what the cache keeps must not be one of them.
        remote, _ = _remote(handle)
        remote.read_rows(0, 14)
        cached = list(remote._cache._blocks.values())
        assert [type(data) for data in cached] == [bytes] * 4
        raw = sum(handle.block_nbytes(i) for i in range(4))
        assert sum(len(data) for data in cached) == raw
        stats = remote._cache.stats()
        assert stats["resident_bytes"] == stats["fetched_bytes"] == raw

    def test_unanswered_block_is_a_protocol_error(self, handle):
        remote, driver = _remote(handle)
        answer = driver.call_back

        def drop_block_two(op, payload, timeout=None):
            reply, blobs = answer(op, payload, timeout)
            reply["blocks"] = [e for e in reply["blocks"] if e["index"] != 2]
            return reply, blobs

        driver.call_back = drop_block_two
        with pytest.raises(ProtocolError, match=r"without blocks \[2\]"):
            remote.read_rows(0, 14)

    @pytest.mark.parametrize("meta", [
        {},
        {"num_rows": 14, "block_rows": 4},
        {"num_rows": "many", "block_rows": 4, "num_dimensions": 3},
        {"num_rows": 14, "block_rows": 0, "num_dimensions": 3},
        {"num_rows": -1, "block_rows": 4, "num_dimensions": 3},
    ])
    def test_malformed_meta_is_a_protocol_error(self, handle, meta):
        remote, _ = _remote(handle, meta=meta)
        with pytest.raises(ProtocolError, match="malformed block_fetch meta"):
            remote.read_rows(0, 1)


def test_non_uniform_blocks_are_refused_at_open(flights, tmp_path):
    # Readers find a row's block by ``row // block_rows``: a footer
    # whose blocks are aligned but not block_rows each must not open.
    import json
    import struct

    path = tmp_path / "flights.col"
    write_colfile(flights, path, block_rows=2)
    raw = path.read_bytes()
    (footer_len,) = struct.unpack("<I", raw[-4:])
    footer = json.loads(raw[-4 - footer_len:-4])
    first, second = footer["blocks"][:2]
    first["rows"] += second["rows"]
    del footer["blocks"][1]
    patched = json.dumps(footer).encode("utf-8")
    path.write_bytes(raw[:-4 - footer_len] + patched
                     + struct.pack("<I", len(patched)))
    with pytest.raises(DataError, match="not block_rows=2 rows each"):
        ColFileHandle(path)
