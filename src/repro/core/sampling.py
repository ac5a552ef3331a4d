"""Sample-based candidate pruning: LCA computation — thesis §3.1.1, §4.2.

The gain formula has no downward-closure property, so the cube lattice
cannot be pruned apriori-style.  SIRUM instead draws a random sample s
from D and considers only rules in the cube lattices of s — exactly the
ancestors of the least common ancestors LCA(s, D).

This module computes, per data block, the aggregated LCA table:
a mapping  lca -> (SUM(m), SUM(m-hat), count)  over all (t, ts) pairs.
Two implementations exist with identical output:

- :func:`lca_aggregates_baseline` — compares every attribute of every
  (t, ts) pair (d comparisons per LCA);
- :func:`lca_aggregates_fast` — the §4.2 optimization: initialize LCAs
  to all-wildcards and use the sample's inverted index to touch only
  agreeing positions.

Both are vectorized via the packed-row codec (grouping by int64 key);
they differ in the *metered* operation counts, which is what separates
them on a cluster: the baseline charges |s| * d comparisons per data
tuple, the fast path d index lookups plus one write per agreement.

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
    RowCodec,
    group_rows_fallback,
    plan_groups,
    planned,
    position_bits,
    sort_groups,
)
from repro.core.rule import WILDCARD


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
        packed = np.zeros((s, n), dtype=np.int64)
    else:
        packed = (np.arange(s) << row_bits)[:, None] | np.arange(n)
    agreements = 0
    for j, column in enumerate(columns):
        agree = column[None, :] == sample[:, j][:, None]
        agreements += int(np.count_nonzero(agree))
        term = (column.astype(np.int64) + 1) << (codec.offsets[j] + shift)
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


def _lca_groups(columns, measure, estimates, sample, codec):
    """Shared LCA grouping; returns (acc dict, agreements)."""
    n = measure.size
    d = len(columns)
    s = sample.shape[0]
    if codec is not None and codec.fits:
        uniq, aggs, agreements = _lca_groups_packed(
            columns, measure, estimates, sample, codec
        )
        rows = codec.unpack_batch(uniq)
        sum_m, sum_mhat, counts = aggs[:, 0], aggs[:, 1], aggs[:, 2]
    else:
        agreements = 0
        stacked = []
        for i in range(s):
            lca = np.empty((n, d), dtype=np.int64)
            for j in range(d):
                agree = columns[j] == sample[i, j]
                agreements += int(agree.sum())
                lca[:, j] = np.where(agree, columns[j], WILDCARD)
            stacked.append(lca)
        rows_all = np.vstack(stacked)
        weights = [
            np.tile(measure, s),
            np.tile(estimates, s),
            np.ones(n * s, dtype=np.float64),
        ]
        rows, (sum_m, sum_mhat, counts) = group_rows_fallback(rows_all, weights)
    acc = {}
    for row, sm, smh, c in zip(rows, sum_m, sum_mhat, counts):
        acc[tuple(int(v) for v in row)] = [float(sm), float(smh), float(c)]
    return acc, agreements


def lca_aggregates_packed(columns, measure, estimates, sample_rows, codec,
                          index=None, tc=None, state=None):
    """Packed-key LCA aggregation (the miner's hot path).

    Returns ``(keys, aggs)`` — distinct packed LCA keys and their
    (sum_m, sum_mhat, count) rows.  Metering matches
    :func:`lca_aggregates_baseline` when ``index`` is None and
    :func:`lca_aggregates_fast` when the inverted index is supplied.
    ``state`` and a callable ``columns`` are :func:`_lca_plan`'s.
    """
    if not codec.fits:
        raise DataError("packed LCA aggregation requires a fitting codec")
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


def lca_aggregates_baseline(columns, measure, estimates, sample_rows,
                            tc=None, codec=None):
    """LCA(s, block) metered as attribute-by-attribute comparisons.

    Parameters
    ----------
    columns:
        The block's encoded dimension columns (list of int64 arrays).
    measure / estimates:
        The block's transformed measure and current estimates.
    sample_rows:
        Encoded sample tuples.
    tc:
        Optional :class:`TaskContext`; charged d comparisons per
        (tuple, sample) pair — the §3.1.1 cost of O(|s| * |D| * d).
    codec:
        Optional :class:`RowCodec` enabling packed grouping; built
        locally from the columns when omitted.

    Returns a dict: lca tuple -> [sum_m, sum_mhat, count].
    """
    codec = codec or _local_codec(columns)
    sample = np.asarray(sample_rows, dtype=np.int64)
    acc, _ = _lca_groups(columns, measure, estimates, sample, codec)
    if tc is not None:
        pairs = measure.size * sample.shape[0]
        tc.add_ops(pairs * PAIR_BASE_UNITS)
        tc.add_ops(pairs * len(columns))
        tc.add_records(measure.size)
    return acc


def lca_aggregates_fast(columns, measure, estimates, index, sample_rows,
                        tc=None, codec=None):
    """LCA(s, block) via the sample's inverted index (thesis §4.2).

    Produces exactly the same aggregates as the baseline but is metered
    at d index lookups per data tuple plus one operation per agreeing
    (tuple, sample, attribute) triple — fewer than |s| * d comparisons
    per tuple whenever values usually differ.  ``index`` is the
    :class:`~repro.core.index.SampleInvertedIndex` that locates the
    agreements.
    """
    if index is None:
        raise DataError("fast pruning requires the sample inverted index")
    codec = codec or _local_codec(columns)
    sample = np.asarray(sample_rows, dtype=np.int64)
    acc, agreements = _lca_groups(columns, measure, estimates, sample, codec)
    if tc is not None:
        pairs = measure.size * sample.shape[0]
        tc.add_ops(pairs * PAIR_BASE_UNITS)
        tc.add_ops(measure.size * len(columns) + agreements)
        tc.add_records(measure.size)
    return acc


def _local_codec(columns):
    """Codec inferred from the block's value ranges (tests convenience)."""
    cards = [int(col.max()) + 1 if col.size else 1 for col in columns]
    codec = RowCodec(cards)
    return codec if codec.fits else None


def merge_lca_aggregates(dicts):
    """Reduce-side merge of per-block LCA aggregate dicts."""
    merged = {}
    for acc in dicts:
        for key, agg in acc.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = list(agg)
            else:
                existing[0] += agg[0]
                existing[1] += agg[1]
                existing[2] += agg[2]
    return merged


def sample_match_counts(candidate_rows, sample_rows):
    """Number of sample tuples matched by each candidate rule.

    Used for the §3.1.1 correction: a data tuple contributed its
    aggregates to candidate r once per matching sample tuple, so r's
    aggregates must be divided by this count.  Vectorized over
    candidates in blocks.
    """
    sample = np.asarray(sample_rows, dtype=np.int64)
    counts = np.empty(len(candidate_rows), dtype=np.int64)
    block = 4096
    rules = np.asarray(candidate_rows, dtype=np.int64)
    for start in range(0, len(candidate_rows), block):
        chunk = rules[start:start + block]
        # match[c, s] = all_j (chunk[c, j] == * or chunk[c, j] == sample[s, j])
        wild = chunk[:, None, :] == WILDCARD
        equal = chunk[:, None, :] == sample[None, :, :]
        match = np.all(wild | equal, axis=2)
        counts[start:start + chunk.shape[0]] = match.sum(axis=1)
    return counts
