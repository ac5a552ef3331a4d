"""The SQL engine's data cube against the naive cube oracle.

``GROUP BY CUBE``, ``ROLLUP``, ``GROUPING SETS`` and ``HAVING`` over
the whole lattice must produce exactly the cuboids that one group-by
per cuboid produces (``tests/core/oracles.py::naive_cube``, thesis
§2.5): the same groups, counts and sums, with every cuboid a partition
of the rows, so any cuboid is the roll-up of the base cuboid.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.generators import flight_table, susy_table
from repro.data.generators import SyntheticSpec, generate
from repro.data.schema import Schema
from repro.data.table import Table
from repro.sql import SqlEngine
from tests.core.oracles import naive_cube


def _tables():
    return {
        "flights": flight_table(),
        "susy3": susy_table(num_rows=120, num_dimensions=3, seed=3),
        "susy4": susy_table(num_rows=150, num_dimensions=4, seed=9),
        "synthetic": generate(
            SyntheticSpec(num_rows=200, cardinalities=[4, 3, 5]),
            seed=5,
        )[0],
    }


TABLES = _tables()
TABLE_NAMES = sorted(TABLES)


def _quoted(names):
    return ", ".join('"%s"' % name for name in names)


def sql_cube(table, grouping=None, having=None):
    """Run one grouped query over ``table``; return ``{mask: {key: (count, sum)}}``.

    ``grouping`` is the GROUP BY clause (``CUBE`` over every dimension
    by default); the key of each group is the grouped dimensions' codes
    in position order, as :func:`naive_cube` keys them.
    """
    dims = list(table.schema.dimensions)
    grouping = grouping or "CUBE(%s)" % _quoted(dims)
    sql = "SELECT %s, %s, COUNT(*) c, SUM(\"%s\") s FROM t GROUP BY %s" % (
        _quoted(dims),
        ", ".join('GROUPING("%s") g%d' % (d, i) for i, d in enumerate(dims)),
        table.schema.measure,
        grouping,
    )
    if having:
        sql += " HAVING " + having
    engine = SqlEngine()
    engine.register_table("t", table)
    arity = len(dims)
    cube = {}
    for row in engine.query(sql).rows:
        mask = 0
        key = []
        for j in range(arity):
            if row[arity + j] == 0:
                mask |= 1 << j
                key.append(table.encoder(dims[j]).encode_existing(row[j]))
        groups = cube.setdefault(mask, {})
        assert tuple(key) not in groups
        groups[tuple(key)] = (row[2 * arity], row[2 * arity + 1])
    return cube


def assert_cubes_equal(got, expected):
    assert set(got) == set(expected)
    for mask, groups in expected.items():
        assert set(got[mask]) == set(groups)
        for key, (count, total) in groups.items():
            assert got[mask][key] == (count, pytest.approx(total))


def roll_up(groups, from_mask, to_mask):
    """Sum the groups of cuboid ``from_mask`` into cuboid ``to_mask``."""
    assert to_mask & from_mask == to_mask
    positions = [j for j in range(from_mask.bit_length()) if from_mask >> j & 1]
    keep = [i for i, j in enumerate(positions) if to_mask >> j & 1]
    rolled = {}
    for key, (count, total) in groups.items():
        sub = tuple(key[i] for i in keep)
        old_count, old_total = rolled.get(sub, (0, 0.0))
        rolled[sub] = (old_count + count, old_total + total)
    return rolled


@pytest.fixture(scope="module")
def oracle_cubes():
    return {name: naive_cube(table) for name, table in TABLES.items()}


@pytest.fixture(scope="module")
def sql_cubes():
    return {name: sql_cube(table) for name, table in TABLES.items()}


@pytest.mark.parametrize("name", TABLE_NAMES)
class TestCubeAgreement:
    def test_matches_naive_cube(self, name, sql_cubes, oracle_cubes):
        assert_cubes_equal(sql_cubes[name], oracle_cubes[name])

    def test_every_cuboid_materialized(self, name, sql_cubes):
        arity = TABLES[name].schema.arity
        assert set(sql_cubes[name]) == set(range(1 << arity))

    def test_every_cuboid_partitions_the_rows(self, name, sql_cubes):
        table = TABLES[name]
        for groups in sql_cubes[name].values():
            assert sum(count for count, _ in groups.values()) == len(table)

    def test_every_cuboid_sums_the_measure(self, name, sql_cubes):
        table = TABLES[name]
        for groups in sql_cubes[name].values():
            total = sum(s for _, s in groups.values())
            assert total == pytest.approx(table.measure_sum())

    def test_every_cuboid_rolls_up_from_base(self, name, sql_cubes):
        cube = sql_cubes[name]
        base = (1 << TABLES[name].schema.arity) - 1
        for mask, groups in cube.items():
            rolled = roll_up(cube[base], base, mask)
            assert set(rolled) == set(groups)
            for key, (count, total) in groups.items():
                assert rolled[key] == (count, pytest.approx(total))

    def test_base_cuboid_has_a_group_per_distinct_row(self, name, sql_cubes):
        table = TABLES[name]
        base = (1 << table.schema.arity) - 1
        distinct = {table.encoded_row(i) for i in range(len(table))}
        assert set(sql_cubes[name][base]) == distinct

    def test_average_is_sum_over_count(self, name, oracle_cubes):
        table = TABLES[name]
        dims = list(table.schema.dimensions)
        engine = SqlEngine()
        engine.register_table("t", table)
        result = engine.query(
            "SELECT %s, AVG(\"%s\") FROM t GROUP BY %s"
            % (_quoted(dims), table.schema.measure, _quoted(dims))
        )
        base = oracle_cubes[name][(1 << len(dims)) - 1]
        assert len(result) == len(base)
        for row in result.rows:
            key = tuple(table.encoder(d).encode_existing(v)
                        for d, v in zip(dims, row[:-1]))
            count, total = base[key]
            assert row[-1] == pytest.approx(total / count)


class TestFlightCube:
    """Landmarks of the thesis Table 1.1 cube."""

    @pytest.fixture(scope="class")
    def cube(self, sql_cubes):
        return sql_cubes["flights"]

    @pytest.fixture(scope="class")
    def flights(self):
        return TABLES["flights"]

    def test_apex_is_grand_total(self, cube):
        count, total = cube[0][()]
        assert count == 14
        assert total == pytest.approx(145.0)
        assert total / count == pytest.approx(10.357, abs=1e-3)

    def test_london_cell_matches_thesis_rule(self, cube, flights):
        london = flights.encoder("Destination").encode_existing("London")
        count, total = cube[0b100][(london,)]
        assert count == 4
        assert total / count == pytest.approx(15.25)

    def test_unflown_group_is_absent(self, cube, flights):
        # (Fri, *, *) exists but Fri->Beijing was never flown.
        fri = flights.encoder("Day").encode_existing("Fri")
        beijing = flights.encoder("Destination").encode_existing("Beijing")
        assert (fri,) in cube[0b001]
        assert (fri, beijing) not in cube[0b101]

    def test_slice_keeps_the_fixed_value_in_every_cuboid(self, cube,
                                                         flights):
        # HAVING on a grouped column keeps the Day = Mon cells of every
        # cuboid that groups Day; the cuboids aggregating Day drop out.
        sliced = sql_cube(flights, having="\"Day\" = 'Mon'")
        mon = flights.encoder("Day").encode_existing("Mon")
        expected = {
            mask: {key: agg for key, agg in groups.items() if key[0] == mon}
            for mask, groups in cube.items() if mask & 1
        }
        assert sliced == expected
        assert sum(count for count, _ in expected[0b011].values()) == 5


class TestGroupingSets:
    @pytest.mark.parametrize("sets, masks", [
        ('("Day"), ("Origin", "Destination")', {0b001, 0b110}),
        ('("Day", "Origin"), ("Destination")', {0b011, 0b100}),
        ('("Origin"), ("Day", "Destination")', {0b010, 0b101}),
    ])
    def test_requested_cuboids_only(self, sets, masks, oracle_cubes):
        got = sql_cube(TABLES["flights"], grouping="GROUPING SETS (%s)" % sets)
        expected = oracle_cubes["flights"]
        assert_cubes_equal(got, {mask: expected[mask] for mask in masks})

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_rollup_is_the_prefix_chain(self, name, oracle_cubes):
        table = TABLES[name]
        dims = list(table.schema.dimensions)
        got = sql_cube(table, grouping="ROLLUP(%s)" % _quoted(dims))
        chain = [(1 << n) - 1 for n in range(len(dims) + 1)]
        assert_cubes_equal(
            got, {mask: oracle_cubes[name][mask] for mask in chain}
        )

    def test_reversed_rollup_drops_the_first_dimension_last(
            self, oracle_cubes):
        got = sql_cube(
            TABLES["flights"],
            grouping='ROLLUP("Destination", "Origin", "Day")',
        )
        chain = [0b111, 0b110, 0b100, 0]
        assert_cubes_equal(
            got, {mask: oracle_cubes["flights"][mask] for mask in chain}
        )



def merge_cubes(left, right):
    """Add two cubes cell by cell (the aggregates are distributive)."""
    merged = {mask: dict(groups) for mask, groups in left.items()}
    for mask, groups in right.items():
        target = merged.setdefault(mask, {})
        for key, (count, total) in groups.items():
            old_count, old_total = target.get(key, (0, 0.0))
            target[key] = (old_count + count, old_total + total)
    return merged


@pytest.mark.parametrize("split", [1, 40, 75, 149])
def test_cubes_of_two_windows_merge_into_the_whole(split, oracle_cubes):
    # The cube is distributive: the cubes of two adjacent row windows,
    # added cell by cell, are the cube of their union.
    table = TABLES["susy4"]
    left = sql_cube(table.slice(0, split))
    right = sql_cube(table.slice(split, len(table)))
    assert_cubes_equal(merge_cubes(left, right), oracle_cubes["susy4"])

def iceberg(cube, support):
    """The groups of ``cube`` with at least ``support`` rows."""
    kept = {}
    for mask, groups in cube.items():
        selected = {key: agg for key, agg in groups.items()
                    if agg[0] >= support}
        if selected:
            kept[mask] = selected
    return kept


class TestIceberg:
    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_support_one_is_the_full_cube(self, name, oracle_cubes):
        got = sql_cube(TABLES[name], having="COUNT(*) >= 1")
        assert_cubes_equal(got, oracle_cubes[name])

    @pytest.mark.parametrize("support", [2, 3, 4, 5, 6])
    def test_keeps_exactly_the_supported_groups(self, support, oracle_cubes):
        got = sql_cube(TABLES["flights"],
                       having="COUNT(*) >= %d" % support)
        assert_cubes_equal(got, iceberg(oracle_cubes["flights"], support))

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_wider_tables_keep_the_supported_groups(self, name,
                                                    oracle_cubes):
        got = sql_cube(TABLES[name], having="COUNT(*) >= 10")
        assert_cubes_equal(got, iceberg(oracle_cubes[name], 10))

    def test_unreachable_support_leaves_nothing(self):
        assert sql_cube(TABLES["flights"], having="COUNT(*) >= 1000") == {}


# ----------------------------------------------------------------------
# Property-based agreement on random tables
# ----------------------------------------------------------------------

ROWS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 2),
        st.floats(0, 50, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def table_from(rows):
    return Table.from_rows(Schema(["a", "b", "c"], "m"), rows)


@given(ROWS)
@settings(max_examples=40, deadline=None)
def test_cube_matches_naive_on_random_tables(rows):
    table = table_from(rows)
    assert_cubes_equal(sql_cube(table), naive_cube(table))


@given(ROWS)
@settings(max_examples=40, deadline=None)
def test_every_level_sums_to_total(rows):
    """Each cuboid partitions the rows, so counts always total |D|."""
    table = table_from(rows)
    for groups in sql_cube(table).values():
        assert sum(count for count, _ in groups.values()) == len(table)


@given(ROWS, st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_iceberg_equals_filtered_naive_cube(rows, support):
    table = table_from(rows)
    got = sql_cube(table, having="COUNT(*) >= %d" % support)
    assert_cubes_equal(got, iceberg(naive_cube(table), support))


@given(ROWS)
@settings(max_examples=40, deadline=None)
def test_rollup_matches_naive_on_random_tables(rows):
    table = table_from(rows)
    got = sql_cube(table, grouping='ROLLUP("a", "b", "c")')
    expected = naive_cube(table)
    assert_cubes_equal(
        got, {mask: expected[mask] for mask in (0, 0b001, 0b011, 0b111)}
    )
