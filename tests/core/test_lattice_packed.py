"""Equivalence tests: packed ancestor generation vs the object lattice
of :mod:`tests.core.oracles`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DataError
from repro.core.codec import RowCodec
from repro.core.lattice_packed import (
    generate_ancestors_packed,
    match_counts_packed,
    pack_rule_rows,
)
from repro.core.rule import Rule, WILDCARD

from . import oracles


def _random_rules(rng, count, cards):
    rules = {}
    for _ in range(count):
        values = tuple(
            int(rng.integers(0, c)) if rng.random() > 0.4 else WILDCARD
            for c in cards
        )
        rules[Rule(values)] = (
            float(rng.integers(1, 30)),
            float(rng.integers(1, 30)),
            float(rng.integers(1, 8)),
        )
    return rules


def _pack_weighted(weighted, codec):
    rules = list(weighted)
    keys = np.array(
        [codec.pack_values(r.values) for r in rules], dtype=codec.key_dtype
    )
    aggs = np.array([weighted[r] for r in rules], dtype=np.float64)
    return keys, aggs


class TestGenerateAncestorsPacked:
    @pytest.mark.parametrize("field", [3, 2**40])
    @given(seed=st.integers(0, 5000), arity=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_single_stage(self, field, seed, arity):
        rng = np.random.default_rng(seed)
        cards = [3] * arity
        codec = RowCodec([field] * arity)
        weighted = _random_rules(rng, 8, cards)
        keys, aggs = _pack_weighted(weighted, codec)
        out_keys, out_aggs, _ = generate_ancestors_packed(keys, aggs, codec)
        reference, _ = oracles.generate_ancestors_single_stage(weighted)
        got = {
            Rule(codec.unpack(int(k))): tuple(a)
            for k, a in zip(out_keys, out_aggs)
        }
        assert set(got) == set(reference)
        for rule, agg in reference.items():
            assert got[rule] == pytest.approx(agg)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_grouped(self, seed):
        rng = np.random.default_rng(seed)
        cards = [4, 4, 4, 4]
        codec = RowCodec(cards)
        weighted = _random_rules(rng, 6, cards)
        keys, aggs = _pack_weighted(weighted, codec)
        group = (0, 2)
        out_keys, out_aggs, _ = generate_ancestors_packed(
            keys, aggs, codec, group=group
        )
        reference, _ = oracles.generate_ancestors_staged(weighted, [group])
        got = {
            Rule(codec.unpack(int(k))): tuple(a)
            for k, a in zip(out_keys, out_aggs)
        }
        assert set(got) == set(reference)
        for rule, agg in reference.items():
            assert got[rule] == pytest.approx(agg)

    def test_instance_weighted_emission_counts_match_reference(self):
        rng = np.random.default_rng(3)
        cards = [3, 3, 3]
        codec = RowCodec(cards)
        weighted = _random_rules(rng, 10, cards)
        multiplicities = {r: int(a[2]) for r, a in weighted.items()}
        keys, aggs = _pack_weighted(weighted, codec)
        _, _, emitted = generate_ancestors_packed(
            keys, aggs, codec, instance_weighted=True
        )
        _, reference_emitted = oracles.generate_ancestors_single_stage(
            weighted, multiplicities
        )
        assert emitted == reference_emitted

    def test_empty_input(self):
        codec = RowCodec([3, 3])
        keys = np.empty(0, dtype=np.int64)
        aggs = np.empty((0, 3))
        out_keys, out_aggs, emitted = generate_ancestors_packed(
            keys, aggs, codec
        )
        assert out_keys.size == 0
        assert emitted == 0

    def test_shape_mismatch_rejected(self):
        codec = RowCodec([3])
        with pytest.raises(DataError):
            generate_ancestors_packed(
                np.array([1]), np.ones((2, 3)), codec
            )


class TestPackRuleRows:
    def test_round_trip_with_wildcards(self):
        codec = RowCodec([5, 5])
        rows = np.array([[2, WILDCARD], [WILDCARD, 4]], dtype=np.int64)
        keys = pack_rule_rows(rows, codec)
        assert codec.unpack(int(keys[0])) == (2, WILDCARD)
        assert codec.unpack(int(keys[1])) == (WILDCARD, 4)


class TestMatchCountsPacked:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_matches_tuple_implementation(self, seed):
        rng = np.random.default_rng(seed)
        cards = [3, 4, 3]
        codec = RowCodec(cards)
        sample = [
            tuple(int(rng.integers(0, c)) for c in cards) for _ in range(6)
        ]
        candidates = [
            tuple(
                int(rng.integers(0, c)) if rng.random() > 0.5 else WILDCARD
                for c in cards
            )
            for _ in range(40)
        ]
        keys = pack_rule_rows(np.array(candidates, dtype=np.int64), codec)
        sample_keys = pack_rule_rows(np.array(sample, dtype=np.int64), codec)
        packed = match_counts_packed(keys, sample_keys, codec)
        reference = oracles.sample_match_counts(candidates, sample)
        np.testing.assert_array_equal(packed, reference)
