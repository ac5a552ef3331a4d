"""GroupAggregate and MaterializedCube container behaviour."""

import pytest

from repro.common.errors import DataError
from repro.cube import naive_cube
from repro.cube.materialized import GroupAggregate, MaterializedCube
from repro.core.rule import WILDCARD
from repro.data.generators import flight_table, susy_table


class TestGroupAggregate:
    def test_add_accumulates(self):
        agg = GroupAggregate()
        agg.add(2.0)
        agg.add(3.0)
        assert agg.count == 2
        assert agg.sum_measure == 5.0
        assert agg.avg == 2.5

    def test_merge(self):
        left = GroupAggregate(2, 10.0)
        right = GroupAggregate(3, 5.0)
        left.merge(right)
        assert (left.count, left.sum_measure) == (5, 15.0)

    def test_copy_is_independent(self):
        original = GroupAggregate(1, 1.0)
        clone = original.copy()
        clone.add(9.0)
        assert original.count == 1

    def test_empty_avg_raises(self):
        with pytest.raises(DataError):
            GroupAggregate().avg

    def test_equality_tolerates_float_noise(self):
        assert GroupAggregate(2, 1.0) == GroupAggregate(2, 1.0 + 1e-12)
        assert GroupAggregate(2, 1.0) != GroupAggregate(3, 1.0)


class TestMaterializedCube:
    @pytest.fixture(scope="class")
    def cube(self):
        return naive_cube(flight_table())

    def test_has_cuboid(self, cube):
        assert cube.has_cuboid(0)
        assert not cube.has_cuboid(0b11111)

    def test_missing_cuboid_raises(self, cube):
        with pytest.raises(DataError):
            cube.cuboid(0b10000)

    def test_num_groups_totals_all_cuboids(self, cube):
        assert cube.num_groups() == sum(
            len(groups) for groups in cube.cuboids.values()
        )

    def test_equality_requires_same_cuboid_keys(self, cube):
        partial = MaterializedCube(cube.arity, {0: cube.cuboids[0]})
        assert partial != cube

    def test_rollup_to_self_is_identity(self, cube):
        assert cube.roll_up(0b011, 0b011) == cube.cuboids[0b011]

    def test_repr_mentions_counts(self, cube):
        text = repr(cube)
        assert "cuboids=8" in text


class TestPartialMaterialization:
    """A cube holding only some cuboids answers the rest by rolling up
    a materialized descendant."""

    @pytest.fixture(scope="class")
    def flights(self):
        return flight_table()

    @pytest.fixture(scope="class")
    def full(self, flights):
        return naive_cube(flights)

    @pytest.fixture(scope="class")
    def base_only(self, flights):
        return naive_cube(flights, masks=[0b111])

    def test_every_cuboid_answerable_from_base(self, full, base_only):
        base = base_only.lattice.base_mask
        for mask, expected in full.cuboids.items():
            assert base_only.roll_up(base, mask) == expected

    def test_roll_up_from_intermediate_cuboid(self, flights, full):
        cube = naive_cube(flights, masks=[0b111, 0b011])
        assert cube.roll_up(0b011, 0b001) == full.cuboids[0b001]
        assert cube.roll_up(0b011, 0) == full.cuboids[0]

    def test_roll_up_to_non_ancestor_rejected(self, full):
        with pytest.raises(DataError, match="ancestor"):
            full.roll_up(0b001, 0b010)

    def test_roll_up_from_unmaterialized_cuboid_rejected(self, base_only):
        with pytest.raises(DataError, match="not materialized"):
            base_only.roll_up(0b011, 0b001)

    def test_point_on_unmaterialized_cuboid_rejected(self, flights,
                                                     base_only):
        london = flights.encoder("Destination").encode_existing("London")
        with pytest.raises(DataError, match="not materialized"):
            base_only.point((WILDCARD, WILDCARD, london))

    def test_consistency_needs_base(self, flights):
        cube = naive_cube(flights, masks=[0b011, 0b001])
        assert not cube.consistent_with_base()

    def test_wider_table_rolls_up_to_every_cuboid(self):
        table = susy_table(num_rows=150, num_dimensions=4, seed=9)
        full = naive_cube(table)
        base = full.lattice.base_mask
        base_only = naive_cube(table, masks=[base])
        for mask, expected in full.cuboids.items():
            assert base_only.roll_up(base, mask) == expected
