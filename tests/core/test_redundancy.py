"""Tests for redundant-candidate elimination (thesis §7 future work)."""

import numpy as np
import pytest

from repro.core.codec import RowCodec
from repro.core.lattice_packed import pack_rule_rows
from repro.core.miner import mine
from repro.core.redundancy import filter_candidate_set, redundant_mask_packed
from repro.core.rule import Rule, WILDCARD
from repro.data.schema import Schema
from repro.data.table import Table

from .oracles import redundant_mask_rules


def _support_table():
    """A table where ('a', 'x') has the same support as ('a', *)."""
    schema = Schema(["A", "B"], "m")
    rows = [
        ("a", "x", 5.0),
        ("a", "x", 7.0),
        ("b", "x", 1.0),
        ("b", "y", 2.0),
    ]
    return Table.from_rows(schema, rows)


def _packed_mask(rules, counts, sums):
    codec = RowCodec([3] * rules[0].arity)
    keys = pack_rule_rows(
        np.array([r.values for r in rules], dtype=np.int64), codec
    )
    return redundant_mask_packed(keys, counts, sums, codec)


class TestRuleMasks:
    def test_descendant_with_equal_support_is_redundant(self):
        # (0, 0) covers exactly the tuples (0, *) covers -> redundant.
        rules = [Rule((0, 0)), Rule((0, WILDCARD)), Rule((WILDCARD, 0))]
        counts = np.array([2.0, 2.0, 3.0])
        sums = np.array([12.0, 12.0, 13.0])
        mask = _packed_mask(rules, counts, sums)
        assert mask[0]           # descendant dropped
        assert not mask[1]       # ancestor kept
        assert not mask[2]       # different support

    def test_equal_count_different_sum_not_redundant(self):
        rules = [Rule((0, 0)), Rule((0, WILDCARD))]
        counts = np.array([2.0, 2.0])
        sums = np.array([5.0, 12.0])
        mask = _packed_mask(rules, counts, sums)
        assert not mask.any()

    def test_missing_parent_keeps_candidate(self):
        rules = [Rule((0, 0))]
        mask = _packed_mask(rules, np.array([2.0]), np.array([5.0]))
        assert not mask.any()


class TestPackedMask:
    # 3-value fields, and 2**40-value ones whose keys pass 63 bits.
    @pytest.mark.parametrize("field", [3, 2**40])
    def test_matches_rule_mask(self, rng, field):
        codec = RowCodec([field] * 3)
        rules = []
        for _ in range(40):
            rules.append(Rule(tuple(
                int(v) if rng.random() > 0.4 else WILDCARD
                for v in rng.integers(0, 3, size=3)
            )))
        rules = list(dict.fromkeys(rules))
        counts = rng.integers(1, 4, size=len(rules)).astype(float)
        sums = rng.integers(1, 4, size=len(rules)).astype(float)
        keys = pack_rule_rows(
            np.array([r.values for r in rules], dtype=np.int64), codec
        )
        packed = redundant_mask_packed(keys, counts, sums, codec)
        reference = redundant_mask_rules(rules, counts, sums)
        np.testing.assert_array_equal(packed, reference)


class TestMinerIntegration:
    def test_elimination_preserves_rule_quality(self, small_gdelt):
        plain = mine(small_gdelt, k=4, variant="baseline",
                     sample_size=32, seed=5)
        deduped = mine(small_gdelt, k=4, variant="baseline",
                       sample_size=32, seed=5, eliminate_redundant=True)
        assert deduped.final_kl == pytest.approx(plain.final_kl, rel=1e-6)

    def test_elimination_reduces_candidates(self):
        table = _support_table()
        plain = mine(table, k=1, variant="baseline", sample_size=4, seed=0)
        deduped = mine(table, k=1, variant="baseline", sample_size=4,
                       seed=0, eliminate_redundant=True)
        assert deduped.candidates_scored < plain.candidates_scored
        assert deduped.metrics["counters"].get(
            "redundant_candidates", 0
        ) > 0

    def test_selected_rules_are_maximally_general(self):
        # With elimination on, the specialized twin of an equal-support
        # pair can never be selected.
        table = _support_table()
        result = mine(table, k=2, variant="baseline", sample_size=4,
                      seed=0, eliminate_redundant=True)
        a_code = table.encoder("A").encode_existing("a")
        x_code = table.encoder("B").encode_existing("x")
        specialized = Rule((a_code, x_code))
        assert specialized not in [m.rule for m in result.rule_set]
