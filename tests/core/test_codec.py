"""Tests for the packed-row codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DataError
from repro.core.codec import GroupPlan, RowCodec, plan_groups
from repro.core.lattice_packed import pack_rule_rows
from repro.core.rule import WILDCARD


class TestRowCodec:
    def test_fits_for_thesis_dataset_shapes(self):
        gdelt = RowCodec([200, 40, 4, 300, 6, 9, 9, 9, 60])
        susy = RowCodec([3] * 18)
        assert gdelt.fits
        assert susy.fits

    def test_pack_values_round_trips(self):
        codec = RowCodec([5, 3, 7])
        values = (4, WILDCARD, 6)
        assert codec.unpack(codec.pack_values(values)) == values

    def test_pack_columns_round_trips(self, rng):
        codec = RowCodec([10, 4, 6])
        cols = [rng.integers(0, c, size=20).astype(np.int64) for c in (10, 4, 6)]
        packed = codec.pack_columns(cols)
        rows = codec.unpack_batch(packed)
        for j in range(3):
            np.testing.assert_array_equal(rows[:, j], cols[j])

    @given(
        seed=st.integers(0, 10_000),
        cards=st.lists(st.integers(1, 30), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_packing_is_injective(self, seed, cards):
        codec = RowCodec(cards)
        rng = np.random.default_rng(seed)
        rows = set()
        for _ in range(30):
            values = tuple(
                int(rng.integers(-1, c)) for c in cards
            )
            rows.add(values)
        keys = {codec.pack_values(v) for v in rows}
        assert len(keys) == len(rows)

    def test_distinct_wildcard_and_zero(self):
        codec = RowCodec([4])
        assert codec.pack_values((0,)) != codec.pack_values((WILDCARD,))

    @given(
        seed=st.integers(0, 10_000),
        cards=st.lists(st.integers(1, 30), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_oversized_codec_round_trips_and_orders_like_a_fitting_one(
            self, seed, cards):
        # The same fields 2**40 apart: past 63 bits the keys are Python
        # ints in an object array, and they decode and sort the same.
        fitting = RowCodec(cards)
        wide = RowCodec([2**40] * len(cards))
        assert fitting.fits and fitting.key_dtype == np.int64
        assert not wide.fits and wide.key_dtype == object
        rng = np.random.default_rng(seed)
        rows = np.stack([rng.integers(-1, c, size=25) for c in cards], axis=1)
        columns = [rng.integers(0, c, size=25) for c in cards]
        for codec in (fitting, wide):
            keys = pack_rule_rows(rows, codec)
            assert keys.dtype == codec.key_dtype
            np.testing.assert_array_equal(codec.unpack_batch(keys), rows)
            for key, row in zip(keys, rows):
                assert codec.unpack(key) == tuple(row)
                assert codec.pack_values(tuple(row)) == key
            packed = codec.pack_columns(columns)
            assert packed.dtype == codec.key_dtype
            np.testing.assert_array_equal(
                codec.unpack_batch(packed), np.stack(columns, axis=1)
            )
        np.testing.assert_array_equal(
            np.argsort(pack_rule_rows(rows, wide), kind="stable"),
            np.argsort(pack_rule_rows(rows, fitting), kind="stable"),
        )

    def test_invalid_cardinalities(self):
        with pytest.raises(DataError):
            RowCodec([])
        with pytest.raises(DataError):
            RowCodec([0, 3])


def _plan(keys, weights, key_bits=None):
    """A group-by plan summing ``weights`` and counting per key."""
    uniq, group_ids, positions = plan_groups(keys, key_bits)
    return GroupPlan(uniq, group_ids, positions, weights,
                     np.ones(keys.size))


class TestGrouping:
    def test_a_plan_sums_weights(self):
        keys = np.array([3, 3, 5, 3], dtype=np.int64)
        plan = _plan(keys, np.array([1.0, 2.0, 4.0, 8.0]))
        np.testing.assert_array_equal(plan.keys, [3, 5])
        np.testing.assert_allclose(plan.fixed[:, 0], [11.0, 4.0])
        np.testing.assert_array_equal(plan.fixed[:, 2], [3.0, 1.0])

    def test_oversized_keys_group_like_fitting_ones(self, rng):
        rows = rng.integers(-1, 4, size=(50, 2)).astype(np.int64)
        weights = rng.uniform(0, 1, size=50)
        fitting, wide = RowCodec([4, 4]), RowCodec([2**40, 2**40])
        plan_f = _plan(pack_rule_rows(rows, fitting), weights, key_bits=6)
        plan_w = _plan(pack_rule_rows(rows, wide), weights,
                       key_bits=wide.total_bits)
        np.testing.assert_array_equal(
            wide.unpack_batch(plan_w.keys), fitting.unpack_batch(plan_f.keys)
        )
        assert plan_w.fixed.tobytes() == plan_f.fixed.tobytes()
