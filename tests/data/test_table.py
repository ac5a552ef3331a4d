"""Tests for the columnar Table."""

import numpy as np
import pytest

from repro.common.errors import DataError
from repro.data.schema import Schema
from repro.data.table import Table


@pytest.fixture
def schema():
    return Schema(["color", "size"], "price")


@pytest.fixture
def table(schema):
    rows = [
        ("red", "S", 10.0),
        ("blue", "M", 20.0),
        ("red", "L", 30.0),
        ("green", "S", 40.0),
    ]
    return Table.from_rows(schema, rows)


class TestConstruction:
    def test_from_rows_encodes_dimensions(self, table):
        np.testing.assert_array_equal(
            table.dimension_column("color"), [0, 1, 0, 2]
        )
        np.testing.assert_array_equal(table.measure, [10, 20, 30, 40])

    def test_row_width_validated(self, schema):
        with pytest.raises(DataError):
            Table.from_rows(schema, [("red", 1.0)])

    def test_decoded_row_round_trips(self, table):
        assert table.decoded_row(1) == ("blue", "M", 20.0)

    def test_columns_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.measure[0] = 99.0

    def test_iter_encoded(self, table):
        rows = list(table.iter_encoded())
        assert rows[0] == ((0, 0), 10.0)
        assert len(rows) == 4


class TestTransformations:
    def test_take_reorders(self, table):
        sub = table.take([2, 0])
        assert sub.decoded_row(0) == ("red", "L", 30.0)
        assert len(sub) == 2

    def test_slice_is_contiguous(self, table):
        sub = table.slice(1, 3)
        assert len(sub) == 2
        assert sub.decoded_row(0) == ("blue", "M", 20.0)

    def test_sample_without_replacement(self, table, rng):
        sub = table.sample(3, rng)
        assert len(sub) == 3
        originals = {table.decoded_row(i) for i in range(4)}
        for i in range(3):
            assert sub.decoded_row(i) in originals

    def test_sample_too_large_rejected(self, table, rng):
        with pytest.raises(DataError):
            table.sample(5, rng)

    def test_sample_fraction_bounds(self, table, rng):
        with pytest.raises(DataError):
            table.sample_fraction(0.0, rng)
        assert len(table.sample_fraction(0.5, rng)) == 2

    @pytest.mark.parametrize("fraction, size", [(0.1, 1), (0.5, 2),
                                                (0.75, 3), (1.0, 4)])
    def test_sample_fraction_size(self, table, rng, fraction, size):
        assert len(table.sample_fraction(fraction, rng)) == size

    def test_full_sample_is_the_table(self, table, rng):
        sub = table.sample(4, rng)
        assert [sub.decoded_row(i) for i in range(4)] == [
            table.decoded_row(i) for i in range(4)
        ]

    @pytest.mark.parametrize("batch", [1, 3, 4])
    def test_slices_tile_the_table(self, table, batch):
        rows = []
        for start in range(0, len(table), batch):
            piece = table.slice(start, start + batch)
            rows.extend(piece.decoded_row(i) for i in range(len(piece)))
        assert rows == [table.decoded_row(i) for i in range(len(table))]

    @pytest.mark.parametrize("num_blocks, sizes", [
        (1, [4]), (2, [2, 2]), (3, [1, 1, 2]), (9, [1, 1, 1, 1]),
    ])
    def test_partition_blocks_tile_the_table(self, table, num_blocks, sizes):
        blocks = table.partition_blocks(num_blocks)
        assert [block.num_rows for block in blocks] == sizes
        assert [block.start for block in blocks] == [
            sum(sizes[:i]) for i in range(len(sizes))
        ]
        assert np.concatenate([b.measure for b in blocks]).tolist() == (
            table.measure.tolist()
        )
        for j, column in enumerate(table.dimension_columns()):
            joined = np.concatenate([b.columns[j] for b in blocks])
            assert joined.tolist() == column.tolist()

    def test_project_keeps_measure(self, table):
        sub = table.project(["size"])
        assert sub.schema.dimensions == ("size",)
        np.testing.assert_array_equal(sub.measure, table.measure)

    def test_with_measure_replaces(self, table):
        new = table.with_measure(np.array([1.0, 1.0, 1.0, 1.0]))
        assert new.measure_sum() == pytest.approx(4.0)
        assert len(new) == 4

    def test_with_measure_length_checked(self, table):
        with pytest.raises(DataError):
            table.with_measure(np.ones(3))


class TestAggregates:
    def test_sums_and_means(self, table):
        assert table.measure_sum() == pytest.approx(100.0)
        assert table.measure_mean() == pytest.approx(25.0)

    def test_mean_of_empty_rejected(self, schema):
        empty = Table.from_rows(schema, [])
        with pytest.raises(DataError):
            empty.measure_mean()

    def test_domain_size(self, table):
        assert table.domain_size("color") == 3
        assert table.domain_size("size") == 3

    def test_estimated_bytes_positive(self, table):
        assert table.estimated_bytes() > 0


class TestFileBackedTable:
    """Table.open_colfile: out-of-core mode over the colfile format."""

    @pytest.fixture
    def colpath(self, tmp_path):
        from repro.data.colfile import write_colfile
        from repro.data.generators import flight_table

        path = tmp_path / "flights.col"
        write_colfile(flight_table(), path, block_rows=4)
        return path

    def test_metadata_without_materializing(self, colpath):
        from repro.data.generators import flight_table

        plain = flight_table()
        table = Table.open_colfile(colpath)
        assert len(table) == len(plain)
        assert table.num_rows == plain.num_rows
        assert table.schema == plain.schema
        assert table.estimated_bytes() == plain.estimated_bytes()
        assert not table.is_materialized

    def test_columns_identical_to_in_ram(self, colpath):
        from repro.data.generators import flight_table

        plain = flight_table()
        table = Table.open_colfile(colpath)
        for got, want in zip(table.dimension_columns(),
                             plain.dimension_columns()):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64
        np.testing.assert_array_equal(table.measure, plain.measure)
        assert table.is_materialized

    def test_materializing_streams_through_pool(self, colpath):
        # Pool smaller than one decoded block still completes: blocks
        # stream through (pin, copy out, evict) one at a time.
        table = Table.open_colfile(colpath, capacity_bytes=130)
        table.dimension_columns()
        pool = table.buffer_pool
        assert pool.misses == 4
        assert pool.evictions >= 2
        assert pool.resident_bytes <= pool.capacity_bytes

    def test_scan_with_pushdown(self, colpath):
        from repro.data.generators import flight_table

        plain = flight_table()
        table = Table.open_colfile(colpath)
        result = table.scan(dim_predicates={"Origin": "SF"})
        expected = [plain.decoded_row(i) for i in range(len(plain))
                    if plain.decoded_row(i)[1] == "SF"]
        got = [result.decoded_row(i) for i in range(len(result))]
        assert got == expected
        read, skipped = table.scan_stats(dim_predicates={"Origin": "SF"})
        assert read + skipped == 4
        assert table.buffer_pool.misses == read

    def test_derived_tables_are_plain_in_ram(self, colpath):
        from repro.data.table import FileBackedTable

        table = Table.open_colfile(colpath)
        assert type(table.take([0, 1])) is Table
        assert type(table.slice(0, 3)) is Table
        assert type(table.with_measure(np.zeros(len(table)))) is Table
        assert isinstance(table, FileBackedTable)

    def test_partition_blocks_match_in_ram(self, colpath):
        from repro.data.generators import flight_table

        plain = flight_table()
        table = Table.open_colfile(colpath)
        ours = table.partition_blocks(3)
        theirs = plain.partition_blocks(3)
        assert [(b.index, b.start, b.stop, b.size_bytes) for b in ours] == [
            (b.index, b.start, b.stop, b.size_bytes) for b in theirs
        ]
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a.measure, b.measure)

    def test_shared_partitions_are_mmap_backed(self, colpath):
        from repro.data.shm import MmapTableBlock

        from tests.conftest import shm_entries

        before = shm_entries()
        table = Table.open_colfile(colpath)
        blocks = table.partition_blocks(3, shared=True)
        assert all(isinstance(b, MmapTableBlock) for b in blocks)
        # No copy of the table was put in /dev/shm for these.
        assert shm_entries() <= before

    def test_empty_colfile_opens(self, tmp_path):
        from repro.data.colfile import write_colfile

        path = tmp_path / "empty.col"
        write_colfile(Table.from_rows(Schema(["x"], "m"), []), path)
        table = Table.open_colfile(path)
        assert len(table) == 0
        assert len(table.measure) == 0
        with pytest.raises(DataError):
            table.partition_blocks(2, shared=True)
