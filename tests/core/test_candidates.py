"""Tests for candidate generation, correction and selection."""

import numpy as np
import pytest

from repro.common.errors import DataError
from repro.common.rng import make_rng
from repro.core.candidates import (
    CandidateSet,
    candidate_set_from_cube,
    generate_exhaustive,
    merge_exhaustive,
    score_packed,
    select_rules,
)
from repro.core.codec import RowCodec
from repro.core.divergence import information_gain
from repro.core.lattice_packed import (
    generate_ancestors_packed,
    match_counts_packed,
    pack_rule_rows,
)
from repro.core.rule import Rule, WILDCARD
from repro.core.sampling import draw_sample_rows, lca_aggregates_packed

from .oracles import ancestors


def _candidates(table, estimates, sample, column_groups=None, codec=None):
    """LCAs of ``sample`` over ``table``, then candidates and gains.

    The miner's ancestor and gain stages in one process: one ancestor
    round per column group (§4.3), or a single round.
    """
    codec = codec or RowCodec.from_table(table)
    keys, aggs = lca_aggregates_packed(
        table.dimension_columns(), table.measure, estimates, sample, codec
    )
    rounds = [None] if column_groups is None else list(column_groups)
    emitted = 0
    for round_index, group in enumerate(rounds):
        keys, aggs, count = generate_ancestors_packed(
            keys, aggs, codec, group=group,
            instance_weighted=round_index == 0,
        )
        emitted += count
    multiplicities = match_counts_packed(
        keys, pack_rule_rows(sample, codec), codec
    )
    return score_packed(keys, aggs, multiplicities, emitted, codec)


def _rules(candidates):
    return [candidates.rule_at(i) for i in range(len(candidates))]


@pytest.fixture
def flight_candidates(flights, rng):
    sample = draw_sample_rows(flights, 6, rng)
    estimates = np.full(14, flights.measure.mean())
    return _candidates(flights, estimates, sample), sample, estimates


class TestGenerateFromLcas:
    def test_candidate_set_closed_under_ancestors(self, flights, rng):
        sample = draw_sample_rows(flights, 4, rng)
        candidates = _candidates(flights, np.ones(14), sample)
        rule_set = set(_rules(candidates))
        for rule in rule_set:
            for ancestor in ancestors(rule):
                assert ancestor in rule_set

    def test_root_is_always_a_candidate(self, flight_candidates):
        candidates, _, _ = flight_candidates
        assert Rule.all_wildcards(3) in _rules(candidates)

    def test_corrected_aggregates_match_direct_support(self, flights, rng):
        # After the multiplicity correction, a candidate's sums must be
        # the true sums over its support set (thesis §3.1.1).
        sample = draw_sample_rows(flights, 5, rng)
        estimates = rng.uniform(1, 3, size=14)
        candidates = _candidates(flights, estimates, sample)
        for i, rule in enumerate(_rules(candidates)):
            mask = rule.match_mask(flights)
            assert candidates.sums_m[i] == pytest.approx(
                float(flights.measure[mask].sum())
            )
            assert candidates.sums_mhat[i] == pytest.approx(
                float(estimates[mask].sum())
            )
            assert candidates.counts[i] == pytest.approx(float(mask.sum()))

    def test_gains_match_formula(self, flight_candidates):
        candidates, _, _ = flight_candidates
        for i in range(len(candidates)):
            assert candidates.gains[i] == pytest.approx(
                information_gain(candidates.sums_m[i], candidates.sums_mhat[i])
            )

    def test_thesis_example_candidate_count(self, flights):
        # Thesis §3.1.1: sampling t4 and t9 yields exactly 15 candidate
        # rules (versus 73 possible).
        t4 = flights.encoded_row(3)
        t9 = flights.encoded_row(8)
        sample = [t4, t9]
        candidates = _candidates(flights, np.ones(14), sample)
        assert len(candidates) == 15

    def test_column_grouped_generation_equivalent(self, flights, rng):
        sample = draw_sample_rows(flights, 5, rng)
        single = _candidates(flights, np.ones(14), sample)
        staged = _candidates(flights, np.ones(14), sample,
                             column_groups=[(0, 1), (2,)])
        single_map = dict(zip(_rules(single), single.gains))
        staged_map = dict(zip(_rules(staged), staged.gains))
        assert set(single_map) == set(staged_map)
        for rule in single_map:
            assert staged_map[rule] == pytest.approx(single_map[rule])

    def test_an_oversized_codec_scores_the_same_bytes(self, flights, rng):
        sample = draw_sample_rows(flights, 5, rng)
        estimates = rng.uniform(1, 3, size=14)
        wide = RowCodec([2**40] * 3)
        for groups in (None, [(0, 1), (2,)]):
            native = _candidates(flights, estimates, sample, groups)
            got = _candidates(flights, estimates, sample, groups, wide)
            assert got.keys.dtype == object
            assert _rules(got) == _rules(native)
            for name in ("sums_m", "sums_mhat", "counts", "gains"):
                assert getattr(got, name).tobytes() == \
                    getattr(native, name).tobytes()
            assert got.emitted_pairs == native.emitted_pairs


class TestGenerateExhaustive:
    def test_counts_are_cuboid_cells(self, flights):
        columns = flights.dimension_columns()
        estimates = np.ones(14)
        acc, emitted = generate_exhaustive(columns, flights.measure, estimates)
        assert emitted == 14 * 8
        # The root cell aggregates everything.
        root_key = (WILDCARD,) * 3
        assert acc[root_key][0] == pytest.approx(flights.measure.sum())
        assert acc[root_key][2] == 14

    def test_exhaustive_contains_every_support(self, flights):
        columns = flights.dimension_columns()
        estimates = np.ones(14)
        acc, _ = generate_exhaustive(columns, flights.measure, estimates)
        for key, (sum_m, _sum_mhat, count) in acc.items():
            mask = Rule(key).match_mask(flights)
            assert count == pytest.approx(float(mask.sum()))
            assert sum_m == pytest.approx(float(flights.measure[mask].sum()))

    def test_merge_exhaustive_equals_whole(self, flights):
        columns = flights.dimension_columns()
        estimates = np.ones(14)
        whole, _ = generate_exhaustive(columns, flights.measure, estimates)
        first, _ = generate_exhaustive(
            [c[:7] for c in columns], flights.measure[:7], estimates[:7]
        )
        second, _ = generate_exhaustive(
            [c[7:] for c in columns], flights.measure[7:], estimates[7:]
        )
        merged = merge_exhaustive([first, second])
        assert set(merged) == set(whole)
        for key in whole:
            assert merged[key] == pytest.approx(whole[key])

    def test_too_many_dimensions_rejected(self):
        columns = [np.zeros(2, dtype=np.int64)] * 21
        with pytest.raises(DataError):
            generate_exhaustive(columns, np.ones(2), np.ones(2))

    def test_cube_candidate_scores(self, flights):
        columns = flights.dimension_columns()
        estimates = np.full(14, flights.measure.mean())
        acc, emitted = generate_exhaustive(columns, flights.measure, estimates)
        candidates = candidate_set_from_cube(acc, emitted)
        best = candidates.rules[candidates.best()]
        # The single most informative rule over the flight data after
        # the root is (*, *, London) — thesis §2.4.
        london = flights.encoder("Destination").encode_existing("London")
        assert best == Rule((WILDCARD, WILDCARD, london))


class TestSelectRules:
    def _make(self, rules, gains):
        n = len(rules)
        ones = np.ones(n)
        return CandidateSet(rules, ones, ones, ones, np.asarray(gains, float), 0)

    def test_picks_highest_gain(self):
        candidates = self._make(
            [Rule((0, WILDCARD)), Rule((1, WILDCARD))], [1.0, 3.0]
        )
        picked = select_rules(candidates, [])
        assert picked == [(Rule((1, WILDCARD)), 3.0)]

    def test_skips_rules_already_selected(self):
        rule = Rule((0, WILDCARD))
        candidates = self._make([rule, Rule((1, WILDCARD))], [3.0, 1.0])
        picked = select_rules(candidates, [rule])
        assert picked[0][0] == Rule((1, WILDCARD))

    def test_zero_gain_yields_nothing(self):
        candidates = self._make([Rule((0, WILDCARD))], [0.0])
        assert select_rules(candidates, []) == []

    def test_multi_rule_requires_disjoint(self):
        # Second-best overlaps the best; third-best is disjoint
        # (the thesis §4.4 example).
        best = Rule((WILDCARD, 1, WILDCARD))       # (*, SF, *)
        second = Rule((0, 1, WILDCARD))            # (Fri, SF, *) overlaps
        third = Rule((WILDCARD, 2, WILDCARD))      # (*, London, *) disjoint
        candidates = self._make(
            [best, second, third], [10.0, 9.0, 8.0]
        )
        picked = select_rules(
            candidates, [], rules_per_iteration=2, top_fraction=1.0
        )
        assert [rule for rule, _ in picked] == [best, third]

    def test_min_gain_ratio_enforced(self):
        best = Rule((0, WILDCARD))
        weak = Rule((1, WILDCARD))
        candidates = self._make([best, weak], [10.0, 2.0])
        picked = select_rules(
            candidates, [], rules_per_iteration=2, top_fraction=1.0,
            min_gain_ratio=0.5,
        )
        assert len(picked) == 1

    def test_top_fraction_enforced(self):
        rules = [Rule((i, WILDCARD)) for i in range(100)]
        gains = [100.0 - i for i in range(100)]
        candidates = self._make(rules, gains)
        picked = select_rules(
            candidates, [], rules_per_iteration=3, top_fraction=0.01,
            min_gain_ratio=0.0,
        )
        # Only rank 0 is within the top 1% of 100 candidates.
        assert len(picked) == 1

    def test_three_rules_mutually_disjoint(self):
        rules = [
            Rule((0, WILDCARD, WILDCARD)),
            Rule((1, WILDCARD, WILDCARD)),
            Rule((WILDCARD, WILDCARD, 5)),  # overlaps both
            Rule((2, WILDCARD, WILDCARD)),
        ]
        candidates = self._make(rules, [10.0, 9.0, 8.5, 8.0])
        picked = select_rules(
            candidates, [], rules_per_iteration=3, top_fraction=1.0,
            min_gain_ratio=0.0,
        )
        assert [r for r, _ in picked] == [rules[0], rules[1], rules[3]]

    def test_invalid_rules_per_iteration(self):
        candidates = self._make([Rule((0,))], [1.0])
        with pytest.raises(DataError):
            select_rules(candidates, [], rules_per_iteration=0)
