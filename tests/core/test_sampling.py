"""Tests for sample-based candidate pruning (thesis §3.1.1, §4.2)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import lattice_packed
from repro.core.codec import RowCodec
from repro.core.index import SampleInvertedIndex
from repro.core.lattice_packed import match_counts_packed, pack_rule_rows
from repro.core.rule import Rule, WILDCARD
from repro.core.sampling import draw_sample_rows, lca_aggregates_packed
from repro.engine.task import TaskContext

from .oracles import ancestors, group_packed_reference, lca_table_reference


def _lca_table(columns, measure, estimates, sample, codec=None, **kwargs):
    """The packed LCA table as ``{value tuple: [sum_m, sum_mhat, count]}``."""
    codec = codec or RowCodec([int(col.max()) + 1 for col in columns])
    keys, aggs = lca_aggregates_packed(
        columns, measure, estimates, sample, codec, **kwargs
    )
    return {codec.unpack(key): list(agg) for key, agg in zip(keys, aggs)}


def _assert_tables_equal(got, expected):
    assert set(got) == set(expected)
    for key in expected:
        assert got[key] == pytest.approx(expected[key])


class TestDrawSample:
    def test_sample_rows_come_from_table(self, flights, rng):
        rows = draw_sample_rows(flights, 5, rng)
        table_rows = {flights.encoded_row(i) for i in range(14)}
        assert len(rows) == 5
        assert all(r in table_rows for r in rows)

    def test_sample_capped_at_table_size(self, flights, rng):
        rows = draw_sample_rows(flights, 100, rng)
        assert len(rows) == 14

    def test_empty_table_blames_the_table(self, flights, rng):
        # The old message blamed the sample size ("sample size must be
        # positive") when the *table* had no rows.
        from repro.common.errors import DataError

        with pytest.raises(DataError, match="empty table"):
            draw_sample_rows(flights.slice(0, 0), 5, rng)

    def test_non_positive_size_rejected(self, flights, rng):
        from repro.common.errors import DataError

        with pytest.raises(DataError, match="sample size must be positive"):
            draw_sample_rows(flights, 0, rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_seed_same_sample(self, small_gdelt, seed):
        first = draw_sample_rows(small_gdelt, 16, np.random.default_rng(seed))
        again = draw_sample_rows(small_gdelt, 16, np.random.default_rng(seed))
        assert first == again

    def test_seeds_draw_different_samples(self, small_gdelt):
        samples = {
            tuple(draw_sample_rows(small_gdelt, 16,
                                   np.random.default_rng(seed)))
            for seed in range(5)
        }
        assert len(samples) == 5

    def test_sample_is_without_replacement(self, rng):
        # Tag every row with its own code so rows are distinct.
        from repro.data.schema import Schema
        from repro.data.table import Table

        table = Table.from_rows(Schema(["row"], "m"),
                                [(str(i), 0.0) for i in range(30)])
        rows = draw_sample_rows(table, 20, rng)
        assert len(set(rows)) == 20

    def test_inclusion_is_roughly_uniform(self):
        # Each of 20 rows lands in a size-5 sample with probability
        # 1/4; over 2000 draws every row's rate stays near it.
        from repro.data.schema import Schema
        from repro.data.table import Table

        table = Table.from_rows(Schema(["row"], "m"),
                                [(str(i), 0.0) for i in range(20)])
        rng = np.random.default_rng(7)
        hits = np.zeros(20)
        for _ in range(2000):
            for (code,) in draw_sample_rows(table, 5, rng):
                hits[code] += 1
        assert np.all(np.abs(hits / 2000 - 0.25) < 0.05)


class TestLcaAggregates:
    def test_baseline_matches_oracle(self, flights, rng):
        columns = flights.dimension_columns()
        m = flights.measure
        est = np.ones(14)
        sample = draw_sample_rows(flights, 4, rng)
        _assert_tables_equal(
            _lca_table(columns, m, est, sample),
            lca_table_reference(columns, m, est, sample),
        )

    def test_fast_equals_baseline(self, flights, rng):
        columns = flights.dimension_columns()
        m = flights.measure
        est = rng.uniform(1, 2, size=14)
        sample = draw_sample_rows(flights, 6, rng)
        index = SampleInvertedIndex(sample, 3)
        slow = _lca_table(columns, m, est, sample)
        fast = _lca_table(columns, m, est, sample, index=index)
        assert fast == slow

    @pytest.mark.parametrize("field", [None, 2**40])
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_aggregates_match_oracle_on_random_tables(self, field, seed):
        rng = np.random.default_rng(seed)
        n, d = 30, 3
        columns = [rng.integers(0, 3, size=n).astype(np.int64) for _ in range(d)]
        measure = rng.uniform(0, 5, size=n)
        estimates = rng.uniform(0.5, 2, size=n)
        sample = [tuple(int(col[i]) for col in columns) for i in
                  rng.choice(n, size=4, replace=False)]
        codec = None if field is None else RowCodec([field] * d)
        _assert_tables_equal(
            _lca_table(columns, measure, estimates, sample, codec),
            lca_table_reference(columns, measure, estimates, sample),
        )

    def test_pair_totals_preserved(self, flights, rng):
        # The LCA table partitions the |s| x n pairs: counts sum to it.
        columns = flights.dimension_columns()
        sample = draw_sample_rows(flights, 6, rng)
        acc = _lca_table(columns, flights.measure, np.ones(14), sample)
        assert sum(v[2] for v in acc.values()) == 6 * 14

    def test_fast_charges_fewer_ops_when_values_differ(self, flights, rng):
        columns = flights.dimension_columns()
        sample = draw_sample_rows(flights, 6, rng)
        index = SampleInvertedIndex(sample, 3)
        tc_slow = TaskContext(0, 0)
        tc_fast = TaskContext(0, 0)
        _lca_table(columns, flights.measure, np.ones(14), sample, tc=tc_slow)
        _lca_table(columns, flights.measure, np.ones(14), sample,
                   index=index, tc=tc_fast)
        # Flight attributes rarely agree: §4.2 predicts fewer operations.
        assert tc_fast.ops < tc_slow.ops


class TestMerge:
    def test_merge_of_splits_equals_whole(self, flights, rng):
        # The reduce side groups the blocks' LCA tables by key.
        columns = flights.dimension_columns()
        m = flights.measure
        est = np.ones(14)
        sample = draw_sample_rows(flights, 4, rng)
        codec = RowCodec.from_table(flights)
        whole = _lca_table(columns, m, est, sample, codec)
        halves = [
            lca_aggregates_packed([c[part] for c in columns], m[part],
                                  est[part], sample, codec)
            for part in (slice(0, 7), slice(7, 14))
        ]
        aggs = np.concatenate([a for _, a in halves])
        keys, sums = group_packed_reference(
            np.concatenate([k for k, _ in halves]), list(aggs.T)
        )
        merged = {
            codec.unpack(key): list(agg)
            for key, agg in zip(keys, np.stack(sums, axis=1))
        }
        _assert_tables_equal(merged, whole)


class TestSampleMatchCounts:
    def _counts(self, candidates, sample, codec):
        return match_counts_packed(
            pack_rule_rows(np.array(candidates, dtype=np.int64), codec),
            pack_rule_rows(np.array(sample, dtype=np.int64), codec),
            codec,
        )

    def test_thesis_correction_invariant(self, flights, rng):
        # Every candidate generated from LCAs matches >= 1 sample tuple.
        sample = draw_sample_rows(flights, 5, rng)
        acc = _lca_table(
            flights.dimension_columns(), flights.measure, np.ones(14), sample
        )
        candidates = []
        for key in acc:
            candidates.extend(a.values for a in ancestors(Rule(key)))
        counts = self._counts(candidates, sample,
                              RowCodec.from_table(flights))
        assert np.all(counts >= 1)

    @pytest.mark.parametrize("field", [3, 2**40])
    def test_counts_against_bruteforce(self, field):
        sample = [(0, 1), (0, 2), (1, 1)]
        candidates = [
            (WILDCARD, WILDCARD),  # matches all 3
            (0, WILDCARD),         # matches 2
            (WILDCARD, 1),         # matches 2
            (1, 2),                # matches 0
        ]
        counts = self._counts(candidates, sample, RowCodec([field] * 2))
        np.testing.assert_array_equal(counts, [3, 2, 2, 0])

    def test_chunked_path_consistency(self, rng):
        # Exercise the block-partitioned implementation past one block.
        sample = [tuple(rng.integers(0, 3, size=4)) for _ in range(8)]
        candidates = [
            tuple(int(v) if rng.random() > 0.5 else WILDCARD
                  for v in rng.integers(0, 3, size=4))
            for _ in range(5000)
        ]
        with mock.patch.object(lattice_packed, "_MATCH_BLOCK", 1024):
            counts = self._counts(candidates, sample, RowCodec([3] * 4))
        # Oracle on a few spot indices.
        for idx in [0, 1234, 4999]:
            rule = Rule(candidates[idx])
            expected = sum(1 for s in sample if rule.matches(s))
            assert counts[idx] == expected
