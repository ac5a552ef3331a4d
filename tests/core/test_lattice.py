"""Tests for the cube lattice and column grouping (§2.5, §4.3).

Includes the property-based check of Appendix A Theorem 1: staged
(column-grouped) ancestor generation produces exactly the same
candidate rules with exactly the same aggregates as single-stage
generation — run on the packed kernel the miner uses, for a codec
that fits 63 bits and one that does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core import lattice
from repro.core.codec import RowCodec
from repro.core.lattice_packed import generate_ancestors_packed
from repro.core.rule import Rule, WILDCARD

from .oracles import ancestors


def _packed(weighted, codec):
    """``{Rule: aggregates}`` as aligned (keys, aggs) arrays."""
    keys = np.array(
        [codec.pack_values(rule.values) for rule in weighted],
        dtype=codec.key_dtype,
    )
    aggs = np.array(list(weighted.values()), dtype=np.float64)
    return keys, aggs


def _rounds(weighted, codec, groups, instance_weighted=False):
    """Ancestor rounds over ``groups`` (None: one single-stage round),
    as ``({Rule: aggregates}, emitted)``."""
    keys, aggs = _packed(weighted, codec)
    emitted = 0
    for index, group in enumerate(groups):
        keys, aggs, count = generate_ancestors_packed(
            keys, aggs, codec, group=group,
            instance_weighted=instance_weighted and index == 0,
        )
        emitted += count
    out = {
        Rule(codec.unpack(key)): tuple(agg) for key, agg in zip(keys, aggs)
    }
    return out, emitted


class TestCubeLattice:
    def test_size_formula(self):
        rule = Rule((1, 2, 3))
        assert len(list(ancestors(rule))) == 1 << rule.num_bound == 8

    def test_root_lattice_is_singleton(self):
        root = Rule.all_wildcards(5)
        assert list(ancestors(root)) == [root]

    def test_exclude_self(self):
        rule = Rule((1, WILDCARD))
        elements = list(ancestors(rule, include_self=False))
        assert rule not in elements
        assert len(elements) == 1


class TestColumnGroups:
    def test_even_deterministic_split(self):
        groups = lattice.make_column_groups(6, 2)
        assert groups == [(0, 1, 2), (3, 4, 5)]

    def test_groups_partition_all_positions(self):
        groups = lattice.make_column_groups(7, 3, seed=11)
        flat = sorted(p for g in groups for p in g)
        assert flat == list(range(7))

    def test_seeded_split_is_deterministic(self):
        assert lattice.make_column_groups(9, 2, seed=5) == \
            lattice.make_column_groups(9, 2, seed=5)

    def test_invalid_group_counts(self):
        with pytest.raises(ConfigError):
            lattice.make_column_groups(3, 0)
        with pytest.raises(ConfigError):
            lattice.make_column_groups(3, 4)

    def test_single_group_is_everything(self):
        assert lattice.make_column_groups(4, 1) == [(0, 1, 2, 3)]


class TestAncestorsWithinGroup:
    CODEC = RowCodec([3, 3, 3])

    def _group_round(self, rule, group):
        out, _ = _rounds({rule: (1.0, 1.0, 1.0)}, self.CODEC, [group])
        return set(out)

    def test_thesis_figure_4_2_first_stage(self):
        # (Fri, SF, London) with G1 = {Day, Origin}: the generated
        # ancestors are itself, (*, SF, London), (Fri, *, London) and
        # (*, *, London) — never wildcarding Destination.
        rule = Rule((0, 1, 2))
        assert self._group_round(rule, (0, 1)) == {
            Rule((0, 1, 2)),
            Rule((WILDCARD, 1, 2)),
            Rule((0, WILDCARD, 2)),
            Rule((WILDCARD, WILDCARD, 2)),
        }

    def test_wildcards_already_present_stay(self):
        rule = Rule((WILDCARD, 1, 2))
        assert self._group_round(rule, (0, 1)) == {
            Rule((WILDCARD, 1, 2)), Rule((WILDCARD, WILDCARD, 2)),
        }

    def test_empty_group_yields_self_only(self):
        rule = Rule((1, 2, WILDCARD))
        assert self._group_round(rule, ()) == {rule}


def _random_weighted_rules(rng, num_rules, arity, cardinality):
    rules = {}
    for _ in range(num_rules):
        values = [
            int(v) if rng.random() > 0.4 else WILDCARD
            for v in rng.integers(0, cardinality, size=arity)
        ]
        rules[Rule(values)] = (
            float(rng.integers(1, 50)),
            float(rng.integers(1, 50)),
            float(rng.integers(1, 10)),
        )
    return rules


class TestAppendixATheorem:
    """Theorem 1: staged == single-stage (rules and aggregates)."""

    @pytest.mark.parametrize("oversized", [False, True])
    @given(
        seed=st.integers(0, 10_000),
        arity=st.integers(2, 6),
        num_groups=st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_staged_equals_single_stage(self, oversized, seed, arity,
                                        num_groups):
        rng = np.random.default_rng(seed)
        weighted = _random_weighted_rules(rng, 8, arity, 3)
        codec = RowCodec([2**40 if oversized else 3] * arity)
        assert codec.fits != oversized
        groups = lattice.make_column_groups(
            arity, min(num_groups, arity), seed=seed
        )
        single, _ = _rounds(weighted, codec, [None])
        staged, _ = _rounds(weighted, codec, groups)
        assert set(single) == set(staged)
        for rule in single:
            assert single[rule] == pytest.approx(staged[rule])

    def test_staged_emits_fewer_pairs_on_instance_heavy_input(self):
        # The §4.3 saving: when LCAs stand for many pair instances,
        # senior ancestors are generated from the *merged* intermediate
        # rules once, instead of once per instance.  Fully bound rules
        # with large multiplicities show the effect clearly.
        rng = np.random.default_rng(7)
        weighted = {}
        for _ in range(20):
            rule = Rule(tuple(int(v) for v in rng.integers(0, 2, size=6)))
            weighted[rule] = (1.0, 1.0, 50.0)
        codec = RowCodec([2] * 6)
        groups = lattice.make_column_groups(6, 2)
        _, single_emitted = _rounds(weighted, codec, [None],
                                    instance_weighted=True)
        _, staged_emitted = _rounds(weighted, codec, groups,
                                    instance_weighted=True)
        assert staged_emitted < single_emitted

    def test_aggregates_sum_descendant_inputs(self):
        # Two fully bound rules sharing one attribute value: the shared
        # ancestor aggregates both, the root aggregates everything.
        weighted = {
            Rule((0, 1)): (10.0, 5.0, 1.0),
            Rule((0, 2)): (20.0, 7.0, 2.0),
        }
        aggregates, _ = _rounds(weighted, RowCodec([3, 3]), [None])
        assert aggregates[Rule((0, WILDCARD))] == (30.0, 12.0, 3.0)
        assert aggregates[Rule((WILDCARD, WILDCARD))] == (30.0, 12.0, 3.0)
        assert aggregates[Rule((0, 1))] == (10.0, 5.0, 1.0)

    def test_instance_weighted_emission_counts(self):
        # One LCA standing for 5 pairs with 2 bound attributes emits
        # 5 * 4 pairs in the single-stage pipeline.
        weighted = {Rule((0, 1)): (1.0, 1.0, 5.0)}
        _, emitted = _rounds(weighted, RowCodec([3, 3]), [None],
                             instance_weighted=True)
        assert emitted == 20
