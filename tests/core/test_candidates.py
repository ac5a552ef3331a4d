"""Tests for candidate generation, correction and selection."""

import numpy as np
import pytest

from repro.common.errors import DataError
from repro.common.rng import make_rng
from repro.core.candidates import (
    CandidateSet,
    cube_plan,
    score_aggregates,
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
from repro.core.miner import _merge_plan, mine
from repro.core.rule import Rule, WILDCARD
from repro.core.sampling import draw_sample_rows, lca_aggregates_packed

from .oracles import ancestors, cube_point, naive_cube
from .test_redundancy import _support_table


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


def _cube(table, estimates, rows=slice(None)):
    """One block's cube plan over the table's codec, and its aggregates."""
    codec = RowCodec.from_table(table)
    plan = cube_plan(
        [c[rows] for c in table.dimension_columns()], table.measure[rows],
        codec,
    )
    return plan, plan.apply(estimates[rows]), codec


class TestGenerateExhaustive:
    def test_counts_are_cuboid_cells(self, flights):
        plan, aggs, _ = _cube(flights, np.ones(14))
        assert plan.tally == 14 * 8
        # The root cell aggregates everything; it is the last cuboid.
        assert plan.keys[-1] == 0
        assert aggs[-1, 0] == pytest.approx(flights.measure.sum())
        assert aggs[-1, 2] == 14

    def test_exhaustive_contains_every_support(self, flights):
        plan, aggs, codec = _cube(flights, np.ones(14))
        cube = naive_cube(flights)
        assert plan.keys.size == sum(len(cells) for cells in cube.values())
        for key, (sum_m, _sum_mhat, count) in zip(plan.keys, aggs):
            assert (count, sum_m) == cube_point(cube, codec.unpack(key))

    def test_merged_halves_equal_the_whole(self, flights, rng):
        estimates = rng.integers(1, 9, size=14).astype(np.float64)
        whole, whole_aggs, codec = _cube(flights, estimates)
        halves = []
        for rows in (slice(0, 7), slice(7, 14)):
            plan, aggs, _ = _cube(flights, estimates, rows)
            halves.append((plan.keys, aggs, plan.tally))
        merge = _merge_plan(halves, codec.total_bits, first_seen=True)
        merged = merge.apply(
            np.concatenate([aggs[:, 1] for _, aggs, _ in halves])
        )
        assert merge.tally == whole.tally
        got, expected = np.argsort(merge.keys), np.argsort(whole.keys)
        assert merge.keys[got].tobytes() == whole.keys[expected].tobytes()
        assert merged[got].tobytes() == whole_aggs[expected].tobytes()

    def test_too_many_dimensions_rejected(self):
        columns = [np.zeros(2, dtype=np.int64)] * 21
        with pytest.raises(DataError):
            cube_plan(columns, np.ones(2), RowCodec([1] * 21))

    def test_cube_candidate_scores(self, flights):
        plan, aggs, codec = _cube(flights, np.full(14, flights.measure.mean()))
        candidates = score_aggregates(plan.keys, aggs, plan.tally, codec)
        best = candidates.rule_at(candidates.best())
        # The single most informative rule over the flight data after
        # the root is (*, *, London) — thesis §2.4.
        london = flights.encoder("Destination").encode_existing("London")
        assert best == Rule((WILDCARD, WILDCARD, london))

    @pytest.mark.parametrize("variant", ["naive", "baseline"])
    def test_gain_ties_break_by_first_seen_position(self, variant):
        # (a, x) and its parent (a, *) cover the same rows, so their
        # gains are bit-equal; (a, x)'s cuboid comes first.
        table = _support_table()
        result = mine(table, k=2, variant=variant, exhaustive=True)
        a, b = (table.encoder("A").encode_existing(v) for v in "ab")
        x, y = (table.encoder("B").encode_existing(v) for v in "xy")
        assert [m.rule for m in result.rule_set][1:] == [
            Rule((a, x)), Rule((b, y)),
        ]


class TestSelectRules:
    def _make(self, rules, gains):
        codec = RowCodec([100] * rules[0].arity)
        keys = pack_rule_rows(
            np.array([r.values for r in rules], dtype=np.int64), codec
        )
        ones = np.ones(len(rules))
        return CandidateSet(keys, codec, ones, ones, ones,
                            np.asarray(gains, float), 0)

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
