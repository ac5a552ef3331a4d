"""The canonical summation order, asserted byte for byte.

Every group-by of the mining loop sums a group's weights *in ascending
position of the kernel's input, left to right*.  The kernels group by
one plain sort of ``key << bits | position`` composites when the
position bits fit beside the key in an int64, and through ``np.unique``
otherwise; both must produce exactly the bytes of the reference
implementations in :mod:`tests.core.oracles`.

A codec wider than 63 bits keys with Python ints in ``object`` arrays
and always groups through ``np.unique``; its keys must equal the
reference's element for element (an object array's raw bytes are
pointers), its sums byte for byte.

The kernels are plan-then-apply: the grouping is planned once and a
job's later iterations only re-sum the estimates column through the
retained plan.  So each kernel runs twice here through one job slot,
over different estimates, and must match the stateless references both
times — having planned once.
"""

from contextlib import contextmanager

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import lattice_packed, sampling
from repro.core.candidates import cube_plan
from repro.core.codec import GroupPlan, RowCodec, plan_groups, position_bits
from repro.core.lattice_packed import (
    generate_ancestors_packed,
    match_counts_packed,
    pack_rule_rows,
)
from repro.core.rct import BitMatrix, unique_coverage
from repro.core.rule import WILDCARD
from repro.core.sampling import _lca_groups_packed
from repro.engine import task

from .oracles import (
    generate_ancestors_reference,
    group_packed_reference,
    lca_groups_reference,
    sample_match_counts,
)

#: Codecs on either side of the bit budget: the narrow one leaves room
#: for any position count these tests use, the wide one (62 bits) for
#: at most two positions, and the oversized one (77 bits) passes the
#: int64 budget itself.
CODECS = {
    "narrow": RowCodec([3, 4, 2, 5]),
    "wide": RowCodec([2**19, 2**19, 2**19, 2]),
    "oversized": RowCodec([2**19, 2**19, 2**19, 2**12]),
}
WIDTHS = list(CODECS)
SEEDS = st.integers(0, 2**32 - 1)


def _wild_floats(rng, n):
    """Floats spanning 24 decades: any other summation order shows."""
    return rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, size=n)


@contextmanager
def _job_slot(module, builder):
    """A real slot of a job of this process, and a spy on the plan
    builder the kernel under test goes through."""
    job = task.open_job()
    try:
        with mock.patch.object(module, builder,
                               wraps=getattr(module, builder)) as spy:
            yield task.job_slot(job, ("test", 0, 0)), spy
    finally:
        task.drop_job(job)


def _planned(keys, weights, key_bits=None):
    """``keys`` grouped by :func:`plan_groups`, each weight column
    summed through a :class:`GroupPlan` as the kernels sum it."""
    uniq, group_ids, positions = plan_groups(keys, key_bits)
    zeros = np.zeros(keys.size)
    plan = GroupPlan(uniq, group_ids, positions, zeros, zeros)
    return plan.keys, [plan._sums(w) for w in weights]


def _assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    if got.dtype == object:
        assert all(type(v) is int for v in got.flat)
        assert got.tolist() == expected.tolist()
    else:
        assert got.tobytes() == expected.tobytes()


class TestPositionBits:
    def test_budget_boundary(self):
        assert position_bits(55, 256) == 8
        assert position_bits(55, 257) is None
        assert position_bits(43, 32, 625) == 5 + 10
        assert position_bits(63, 1) == 0
        assert position_bits(63, 2) is None

    def test_unknown_width_or_nothing_to_group(self):
        assert position_bits(None, 100) is None
        assert position_bits(10, 0) is None
        assert position_bits(10, 4, 0) is None


class TestPlanGroups:
    @given(
        key_bits=st.sampled_from([1, 7, 20, 43, 55, 60, 63]),
        n=st.integers(0, 400),
        distinct=st.integers(1, 12),
        columns=st.integers(1, 3),
        seed=SEEDS,
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_unique_bincount_reference(self, key_bits, n, distinct,
                                              columns, seed):
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2**key_bits, size=distinct, dtype=np.int64)
        keys = pool[rng.integers(0, distinct, size=n)]
        weights = [_wild_floats(rng, n) for _ in range(columns)]
        uniq_ref, sums_ref = group_packed_reference(keys, weights)
        # With the key width (fast path when positions fit, fallback
        # when they do not) and without it (always the fallback).
        for kwargs in ({"key_bits": key_bits}, {}):
            uniq, sums = _planned(keys.copy(), weights, **kwargs)
            _assert_same_bytes(uniq, uniq_ref)
            assert len(sums) == columns
            for got, expected in zip(sums, sums_ref):
                _assert_same_bytes(got, expected)

    @pytest.mark.parametrize("key_bits", [5, 62])
    @pytest.mark.parametrize("keys", [
        [], [9], [9] * 300, [0] * 7, [31, 0, 31, 0, 31],
    ])
    def test_empty_single_and_all_equal_inputs(self, keys, key_bits):
        keys = np.array(keys, dtype=np.int64)
        weights = [_wild_floats(np.random.default_rng(1), keys.size)]
        uniq_ref, (sums_ref,) = group_packed_reference(keys, weights)
        uniq, (sums,) = _planned(keys, weights, key_bits=key_bits)
        _assert_same_bytes(uniq, uniq_ref)
        _assert_same_bytes(sums, sums_ref)


class TestLcaGroups:
    @pytest.mark.parametrize("width", WIDTHS)
    @given(n=st.integers(3, 60), s=st.integers(2, 6), seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_equals_tiled_reference(self, width, n, s, seed):
        codec = CODECS[width]
        assert (position_bits(codec.total_bits, s, n) is None) == (
            width != "narrow"
        )
        rng = np.random.default_rng(seed)
        # Few distinct values per column: most pairs share an LCA.
        columns = [
            rng.integers(0, min(card, 3), size=n).astype(np.int64)
            for card in codec.cardinalities
        ]
        sample = np.stack(
            [col[rng.integers(0, n, size=s)] for col in columns], axis=1
        )
        measure = _wild_floats(rng, n)
        with _job_slot(sampling, "_lca_plan") as (slot, planner):
            for _ in range(2):
                estimates = _wild_floats(rng, n)
                keys, aggs, agreements = _lca_groups_packed(
                    columns, measure, estimates, sample, codec, slot
                )
                keys_ref, aggs_ref, agreements_ref = lca_groups_reference(
                    columns, measure, estimates, sample, codec
                )
                _assert_same_bytes(keys, keys_ref)
                _assert_same_bytes(aggs, aggs_ref)
                assert agreements == agreements_ref
            assert planner.call_count == 1


class TestGenerateAncestors:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("group", [None, (0, 2), (1, 3)])
    @pytest.mark.parametrize("weighted", [False, True])
    @given(m=st.integers(3, 40), seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_equals_per_pattern_oracle(self, width, group, weighted, m,
                                       seed):
        codec = CODECS[width]
        assert (position_bits(codec.total_bits, m) is None) == (
            width != "narrow"
        )
        rng = np.random.default_rng(seed)
        rows = np.stack([
            np.where(rng.random(m) < 0.35, WILDCARD,
                     rng.integers(0, min(card, 2), size=m))
            for card in codec.cardinalities
        ], axis=1)
        keys = pack_rule_rows(rows, codec)
        aggs = np.stack([
            _wild_floats(rng, m),
            _wild_floats(rng, m),
            rng.integers(1, 50, size=m).astype(np.float64),
        ], axis=1)
        with _job_slot(lattice_packed, "_ancestor_plan") as (slot, planner):
            for _ in range(2):
                aggs[:, 1] = _wild_floats(rng, m)
                out = generate_ancestors_packed(
                    keys, aggs, codec, group=group,
                    instance_weighted=weighted, state=slot,
                )
                ref = generate_ancestors_reference(
                    keys, aggs, codec, group=group,
                    instance_weighted=weighted,
                )
                _assert_same_bytes(out[0], ref[0])
                _assert_same_bytes(out[1], ref[1])
                assert out[2] == ref[2]
                assert isinstance(out[2], int)
            assert planner.call_count == 1


class TestMatchCounts:
    @pytest.mark.parametrize("width", WIDTHS)
    @given(c=st.integers(1, 60), s=st.integers(1, 8), seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_equals_sample_match_counts(self, width, c, s, seed):
        codec = CODECS[width]
        rng = np.random.default_rng(seed)
        sample = np.stack([
            rng.integers(0, min(card, 3), size=s)
            for card in codec.cardinalities
        ], axis=1)
        candidates = np.stack([
            np.where(rng.random(c) < 0.5, WILDCARD,
                     rng.integers(0, min(card, 3), size=c))
            for card in codec.cardinalities
        ], axis=1)
        keys = pack_rule_rows(candidates, codec)
        sample_keys = pack_rule_rows(sample, codec)
        reference = sample_match_counts(candidates, sample)
        # Once in a single block, once split across several.
        for block in (1 << 16, 7):
            with mock.patch.object(lattice_packed, "_MATCH_BLOCK", block):
                counts = match_counts_packed(keys, sample_keys, codec)
            _assert_same_bytes(counts, reference)


class TestCubePlan:
    @pytest.mark.parametrize("width", WIDTHS)
    @given(n=st.integers(1, 60), seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_equals_per_cuboid_reference(self, width, n, seed):
        # Cells in (cuboid, key) order, each summing its rows in
        # ascending row order; the plan is applied twice.
        codec = CODECS[width]
        rng = np.random.default_rng(seed)
        columns = [
            rng.integers(0, min(card, 3), size=n).astype(np.int64)
            for card in codec.cardinalities
        ]
        measure = _wild_floats(rng, n)
        plan = cube_plan(columns, measure, codec)
        assert plan.tally == n << codec.arity
        for _ in range(2):
            estimates = _wild_floats(rng, n)
            key_parts, agg_parts = [], []
            for pattern in range(1 << codec.arity):
                bound = [
                    np.where(pattern >> j & 1, WILDCARD, col)
                    for j, col in enumerate(columns)
                ]
                keys, sums = group_packed_reference(
                    pack_rule_rows(np.stack(bound, axis=1), codec),
                    [measure, estimates, np.ones(n)],
                )
                key_parts.append(keys)
                agg_parts.append(np.stack(sums, axis=1))
            _assert_same_bytes(plan.keys, np.concatenate(key_parts))
            _assert_same_bytes(plan.apply(estimates),
                               np.concatenate(agg_parts))


class TestCoverageGrouping:
    @given(n=st.integers(1, 120), rules=st.integers(1, 70), seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_group_rows_equals_axis0_unique(self, n, rules, seed):
        rng = np.random.default_rng(seed)
        matrix = BitMatrix(n)
        for _ in range(rules):
            matrix.add_rule(rng.random(n) < rng.random())
        assert matrix._words.shape[1] == (1 if rules <= 64 else 2)
        keys_ref, inverse_ref = np.unique(
            matrix._words, axis=0, return_inverse=True
        )
        keys, inverse = matrix.group_rows()
        _assert_same_bytes(keys, keys_ref)
        _assert_same_bytes(inverse, inverse_ref.ravel())
        _assert_same_bytes(unique_coverage(matrix._words), keys_ref)
