"""Sample-based candidate pruning: LCA computation — thesis §3.1.1, §4.2.

The gain formula has no downward-closure property, so the cube lattice
cannot be pruned apriori-style.  SIRUM instead draws a random sample s
from D and considers only rules in the cube lattices of s — exactly the
ancestors of the least common ancestors LCA(s, D).

This module computes, per data block, the aggregated LCA table:
packed LCA keys (:class:`~repro.core.codec.RowCodec`) and their
(SUM(m), SUM(m-hat), count) over all (t, ts) pairs.  One implementation
serves both pruning variants; they differ in the *metered* operation
counts, which is what separates them on a cluster: the baseline charges
|s| * d comparisons per data tuple, the fast path (§4.2, the sample's
inverted index) d index lookups plus one write per agreement.

The grouping is **plan, then apply**.  The LCA keys, their groups, the
order pairs are summed in, ``SUM(m)``, the counts and the agreement
tally are functions of (partition columns, sample, codec);
:func:`_lca_plan` derives them once and a job keeps the plan where the
kernel runs (:func:`repro.engine.task.job_slot`).  What an iteration
recomputes — the first included — is ``SUM(m-hat)``: one gather of the
block's estimates by the plan's rows and one ``np.bincount``.  No plan
to hand (no job, an evicted or lost slot) means it is built; there is
no second, plan-free implementation in this module — the one-shot
reference lives in ``tests/core/oracles.py``.
"""

import numpy as np

from repro.common.errors import DataError
from repro.core.codec import (
    GroupPlan,
    plan_groups,
    planned,
    position_bits,
    sort_groups,
)


#: Per-pair base cost units of the s x D join: producing the joined
#: pair and materializing its LCA into the output, independent of how
#: the agreeing attributes are located.  Expressed in comparison units
#: so one pair costs PAIR_BASE_UNITS + (comparisons or lookups+writes).
#: Both pruning variants pay it; only the comparison term differs
#: (thesis §4.2 optimizes comparisons, not the join itself).
PAIR_BASE_UNITS = 8


def draw_sample_rows(table, size, rng):
    """Draw the pruning sample s, returned as encoded dimension tuples."""
    if len(table) == 0:
        raise DataError("cannot draw a sample from an empty table")
    if size <= 0:
        raise DataError("sample size must be positive")
    size = min(size, len(table))
    sample = table.sample(size, rng)
    return [sample.encoded_row(i) for i in range(len(sample))]


def _lca_plan(columns, measure, sample, codec):
    """The estimate-independent half of the LCA grouping.

    Builds, for every (tuple, sample-row) pair, the packed LCA key in
    one vectorized sweep per attribute, then groups all |s| * n keys at
    once.  Returns a :class:`~repro.core.codec.GroupPlan` whose
    ``sources`` are the pairs' block rows and whose ``tally`` counts
    agreeing (tuple, sample, attribute) triples — the fast path's
    data-dependent work.

    Pairs are summed in (sample i, row t) order.  When ``i`` and ``t``
    fit in bit fields beside the key they seed the key matrix and one
    plain sort groups the pairs (:func:`~repro.core.codec.sort_groups`);
    otherwise ``np.unique`` does, over the pairs as tiled.  Same bytes.
    ``columns`` may be a zero-argument callable returning the columns:
    only a plan build calls it, so a file-backed block whose plan is
    retained faults nothing in.
    """
    if callable(columns):
        columns = columns()
    n = measure.size
    s = sample.shape[0]
    bits = position_bits(codec.total_bits, s, n)
    shift = bits or 0
    row_bits = (n - 1).bit_length()
    if bits is None:
        packed = np.zeros((s, n), dtype=codec.key_dtype)
    else:
        packed = (np.arange(s) << row_bits)[:, None] | np.arange(n)
    agreements = 0
    for j, column in enumerate(columns):
        agree = column[None, :] == sample[:, j][:, None]
        agreements += int(np.count_nonzero(agree))
        term = (column.astype(codec.key_dtype) + 1) << (
            codec.offsets[j] + shift
        )
        packed += agree * term
    keys = packed.ravel()
    if bits is None:
        uniq, group_ids, _ = plan_groups(keys)
        rows = np.tile(np.arange(n), s)
    else:
        uniq, group_ids, positions, _ = sort_groups(keys, bits)
        rows = positions & ((1 << row_bits) - 1)
    return GroupPlan(uniq, group_ids, rows, measure, np.ones(n), agreements)


def _lca_groups_packed(columns, measure, estimates, sample, codec,
                       state=None):
    """Vectorized LCA grouping over packed keys: plan, then apply.

    Returns ``(keys, aggs, agreements)`` where ``aggs`` is an (g, 3)
    array of (sum_m, sum_mhat, count).  The plan comes from ``state``
    (a job slot) when it holds one, else :func:`_lca_plan` builds it —
    and ``state`` keeps it, so a job's later iterations redo only the
    ``SUM(m-hat)`` column.
    """
    plan = planned(state, _lca_plan, columns, measure, sample, codec)
    return plan.keys, plan.apply(estimates), plan.tally


def lca_aggregates_packed(columns, measure, estimates, sample_rows, codec,
                          index=None, tc=None, state=None):
    """LCA(s, block) over packed keys (thesis §3.1.1, §4.2).

    Parameters
    ----------
    columns:
        The block's encoded dimension columns (list of int64 arrays),
        or a zero-argument callable returning them (see
        :func:`_lca_plan`).
    measure / estimates:
        The block's transformed measure and current estimates.
    sample_rows:
        Encoded sample tuples.
    codec:
        The :class:`~repro.core.codec.RowCodec` the keys are packed
        with.
    index:
        None meters the baseline: d comparisons per (tuple, sample)
        pair, the §3.1.1 cost of O(|s| * |D| * d).  The sample's
        :class:`~repro.core.index.SampleInvertedIndex` meters the §4.2
        fast path: d index lookups per data tuple plus one operation
        per agreeing (tuple, sample, attribute) triple.  The output is
        the same either way.
    tc:
        Optional :class:`TaskContext` charged with that cost.
    state:
        A job slot keeping the plan across iterations, or None.

    Returns ``(keys, aggs)`` — distinct packed LCA keys and their
    (sum_m, sum_mhat, count) rows.
    """
    sample = np.asarray(sample_rows, dtype=np.int64)
    keys, aggs, agreements = _lca_groups_packed(
        columns, measure, estimates, sample, codec, state
    )
    if tc is not None:
        pairs = measure.size * sample.shape[0]
        tc.add_ops(pairs * PAIR_BASE_UNITS)
        if index is None:
            tc.add_ops(pairs * codec.arity)
        else:
            tc.add_ops(measure.size * codec.arity + agreements)
        tc.add_records(measure.size)
    return keys, aggs
