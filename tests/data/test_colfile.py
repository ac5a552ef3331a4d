"""Columnar file format: round trips, statistics, block skipping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DataError
from repro.data.colfile import (
    ColFileHandle,
    block_scan_stats,
    read_colfile,
    scan_colfile,
    write_colfile,
)
from repro.data.generators import flight_table
from repro.data.schema import Schema
from repro.data.table import Table


def tables_equal(a, b):
    if a.schema != b.schema or len(a) != len(b):
        return False
    return all(a.decoded_row(i) == b.decoded_row(i) for i in range(len(a)))


@pytest.fixture
def flights():
    return flight_table()


class TestRoundTrip:
    def test_flight_table_round_trips(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path)
        assert tables_equal(read_colfile(path), flights)

    def test_multi_block_round_trip(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        stats = write_colfile(flights, path, block_rows=4)
        assert len(stats) == 4  # 14 rows in blocks of 4
        assert tables_equal(read_colfile(path), flights)

    def test_single_row_blocks(self, flights, tmp_path):
        path = tmp_path / "tiny.col"
        write_colfile(flights, path, block_rows=1)
        assert tables_equal(read_colfile(path), flights)

    def test_block_rows_validated(self, flights, tmp_path):
        with pytest.raises(DataError):
            write_colfile(flights, tmp_path / "x.col", block_rows=0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.col"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DataError):
            read_colfile(path)


class TestStatistics:
    def test_stats_bound_block_contents(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        stats = write_colfile(flights, path, block_rows=5)
        measure = np.asarray(flights.measure)
        start = 0
        for stat in stats:
            stop = start + stat["rows"]
            low, high = stat["measure"]
            assert low == measure[start:stop].min()
            assert high == measure[start:stop].max()
            for j in range(flights.schema.arity):
                codes = flights.dimension_columns()[j][start:stop]
                assert stat["dims"][j] == [int(codes.min()), int(codes.max())]
            start = stop


class TestBlockSkipping:
    def test_dim_predicate_scan_is_exact(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        result = scan_colfile(path, dim_predicates={"Origin": "SF"})
        expected = [
            flights.decoded_row(i)
            for i in range(len(flights))
            if flights.decoded_row(i)[1] == "SF"
        ]
        got = [result.decoded_row(i) for i in range(len(result))]
        assert got == expected

    def test_measure_range_scan_is_exact(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        result = scan_colfile(path, measure_range=(15.0, 20.0))
        assert len(result) == 5
        assert all(15.0 <= m <= 20.0 for m in result.measure)

    def test_blocks_are_skipped(self, flights, tmp_path):
        # Delays 15..20 cluster in the first rows of the (ordered)
        # flight table, so later blocks are skippable by stats.
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        read, skipped = block_scan_stats(path, measure_range=(15.0, 20.0))
        assert skipped > 0
        assert read + skipped == 5

    def test_unknown_value_skips_everything(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        result = scan_colfile(path, dim_predicates={"Origin": "Atlantis"})
        assert len(result) == 0
        read, skipped = block_scan_stats(
            path, dim_predicates={"Origin": "Atlantis"}
        )
        assert read == 0

    def test_unknown_dimension_rejected(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path)
        with pytest.raises(DataError):
            scan_colfile(path, dim_predicates={"Nope": "x"})

    def test_no_predicate_reads_all_blocks(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        read, skipped = block_scan_stats(path)
        assert (read, skipped) == (5, 0)


class TestEdgeCases:
    def test_empty_table_round_trips(self, tmp_path):
        empty = Table.from_rows(Schema(["x", "y"], "m"), [])
        path = tmp_path / "empty.col"
        stats = write_colfile(empty, path)
        assert stats == []
        loaded = read_colfile(path)
        assert len(loaded) == 0
        assert loaded.schema == empty.schema
        assert block_scan_stats(path) == (0, 0)

    def test_distinct_nan_entries_keep_their_codes(self, tmp_path):
        # Two NaN objects are two dictionary entries; JSON writes both
        # as ``NaN`` and, read back naively, merges them into one.
        first, second = float("nan"), float("nan")
        table = Table.from_rows(Schema(["x"], "m"), [
            (first, 1.0), ("a", 2.0), (second, 3.0), (first, 4.0),
        ])
        assert len(table.encoders()[0]) == 3
        path = tmp_path / "nan.col"
        write_colfile(table, path, block_rows=2)
        handle = ColFileHandle(path)
        try:
            values = handle.encoders[0].values()
            assert len(values) == 3 and values[1] == "a"
            assert values[0] != values[0] and values[2] != values[2]
            assert values[0] is not values[2]
            assert handle.encoders[0].encode_existing("a") == 1
        finally:
            handle.close()
        loaded = Table.open_colfile(path)
        try:
            rows = [loaded.decoded_row(i) for i in range(len(loaded))]
        finally:
            loaded.close()
        assert [row[1] for row in rows] == [1.0, 2.0, 3.0, 4.0]
        assert rows[1][0] == "a"
        assert rows[0][0] is rows[3][0] and rows[0][0] is not rows[2][0]

    def test_single_block_table(self, flights, tmp_path):
        path = tmp_path / "one.col"
        stats = write_colfile(flights, path, block_rows=1000)
        assert len(stats) == 1
        assert tables_equal(read_colfile(path), flights)

    def test_partial_last_block(self, flights, tmp_path):
        # 14 rows in blocks of 4: the last block holds only 2.
        path = tmp_path / "ragged.col"
        stats = write_colfile(flights, path, block_rows=4)
        assert [s["rows"] for s in stats] == [4, 4, 4, 2]
        assert tables_equal(read_colfile(path), flights)

    def test_predicate_value_absent_from_dictionary(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        result = scan_colfile(path, dim_predicates={"Origin": "Narnia"})
        assert len(result) == 0
        # Statistics alone prove no block can match.
        assert block_scan_stats(
            path, dim_predicates={"Origin": "Narnia"}
        ) == (0, 5)

    def test_truncated_footer_length_raises(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path)
        data = path.read_bytes()
        path.write_bytes(data[:-2])  # cut into the trailing u32
        with pytest.raises(DataError):
            read_colfile(path)

    def test_corrupt_footer_length_raises(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path)
        data = path.read_bytes()
        # A footer length larger than the file cannot be honoured.
        path.write_bytes(data[:-4] + b"\xff\xff\xff\xff")
        with pytest.raises(DataError):
            read_colfile(path)

    def test_truncated_block_region_raises(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path)
        with ColFileHandle(path) as handle:
            offset = handle.data_offset
        data = path.read_bytes()
        # Drop 40 bytes out of the block region, keeping the preamble
        # and footer intact: the size check must notice.
        path.write_bytes(data[:offset] + data[offset + 40:])
        with pytest.raises(DataError):
            read_colfile(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.col"
        path.write_bytes(b"")
        with pytest.raises(DataError):
            read_colfile(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            read_colfile(tmp_path / "nowhere.col")


class TestColFileHandle:
    def test_encoders_built_once_per_handle(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        with ColFileHandle(path) as handle:
            before = [id(e) for e in handle.encoders]
            first, _, _ = handle.scan(dim_predicates={"Origin": "SF"})
            second, _, _ = handle.scan(measure_range=(15.0, 20.0))
            assert [id(e) for e in handle.encoders] == before
            # Scan results share the handle's encoders, not copies.
            assert first.encoders()[0] is handle.encoders[0]
            assert second.encoders()[0] is handle.encoders[0]

    def test_block_views_are_zero_copy_and_read_only(self, flights,
                                                     tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=4)
        with ColFileHandle(path) as handle:
            columns, measure = handle.block_views(0)
            assert not measure.flags.writeable
            assert all(not col.flags.writeable for col in columns)
            assert columns[0].dtype == np.int64
            np.testing.assert_array_equal(
                columns[0], flights.dimension_columns()[0][:4]
            )
            np.testing.assert_array_equal(measure, flights.measure[:4])

    def test_read_rows_spanning_blocks(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=4)
        with ColFileHandle(path) as handle:
            columns, measure = handle.read_rows(2, 11)
            np.testing.assert_array_equal(
                measure, np.asarray(flights.measure)[2:11]
            )
            for got, full in zip(columns, flights.dimension_columns()):
                np.testing.assert_array_equal(got, full[2:11])

    def test_read_rows_bounds_checked(self, flights, tmp_path):
        path = tmp_path / "flights.col"
        write_colfile(flights, path)
        with ColFileHandle(path) as handle:
            with pytest.raises(DataError):
                handle.read_rows(0, len(flights) + 1)

    def test_scan_stats_never_touches_payload(self, flights, tmp_path):
        # Scribble over the whole block region (footer untouched):
        # footer-only statistics must still come back intact.
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=3)
        with ColFileHandle(path) as handle:
            data_offset, num_rows = handle.data_offset, handle.num_rows
            row_bytes = handle.row_bytes
        data = bytearray(path.read_bytes())
        end = data_offset + num_rows * row_bytes
        data[data_offset:end] = b"\xa5" * (end - data_offset)
        path.write_bytes(bytes(data))
        read, skipped = block_scan_stats(path, measure_range=(15.0, 20.0))
        assert skipped > 0
        assert read + skipped == 5


# ----------------------------------------------------------------------
# Property-based round trips
# ----------------------------------------------------------------------

ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(0, 5),
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=50,
)


@given(ROWS, st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_round_trip_any_table(tmp_path_factory, rows, block_rows):
    table = Table.from_rows(Schema(["x", "y"], "m"), rows)
    path = tmp_path_factory.mktemp("colfile") / "t.col"
    write_colfile(table, path, block_rows=block_rows)
    assert tables_equal(read_colfile(path), table)


@given(ROWS, st.sampled_from(["a", "b", "c", "d"]))
@settings(max_examples=40, deadline=None)
def test_predicate_scan_equals_filter(tmp_path_factory, rows, value):
    table = Table.from_rows(Schema(["x", "y"], "m"), rows)
    path = tmp_path_factory.mktemp("colfile") / "t.col"
    write_colfile(table, path, block_rows=3)
    result = scan_colfile(path, dim_predicates={"x": value})
    expected = [r for r in (table.decoded_row(i) for i in range(len(table)))
                if r[0] == value]
    assert [result.decoded_row(i) for i in range(len(result))] == expected
