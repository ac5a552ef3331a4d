"""Test-only reference kernels: the pre-composite-sort implementations.

These are the ``np.unique`` + ``np.bincount`` group-bys and the
per-pattern ancestor loop the mining kernels used before grouping
became one plain key sort.  They define the bytes the fast kernels must
reproduce (``tests/core/test_canonical_order.py``); nothing under
``src/`` imports them.
"""

import numpy as np


def group_packed_reference(keys, weight_columns):
    """Sum each weight column per distinct key, in input order."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.ravel()
    sums = [
        np.bincount(inverse, weights=w, minlength=uniq.size)
        for w in weight_columns
    ]
    return uniq, sums


def lca_groups_reference(columns, measure, estimates, sample, codec):
    """LCA(s, block) aggregates over tiled weights, pairs in (i, t) order."""
    n = measure.size
    s = sample.shape[0]
    agreements = 0
    packed = np.zeros((s, n), dtype=np.int64)
    for j in range(len(columns)):
        agree = columns[j][None, :] == sample[:, j][:, None]
        agreements += int(agree.sum())
        term = (columns[j].astype(np.int64) + 1) << codec.offsets[j]
        packed += np.where(agree, term[None, :], 0)
    weights = [
        np.tile(measure, s),
        np.tile(estimates, s),
        np.ones(n * s, dtype=np.float64),
    ]
    uniq, sums = group_packed_reference(packed.ravel(), weights)
    return uniq, np.stack(sums, axis=1), agreements


def generate_ancestors_reference(keys, aggs, codec, group=None,
                                 instance_weighted=False):
    """One ancestor round, pattern group by pattern group.

    Emits every ancestor of every key in (pattern, input position,
    wildcard subset) order and groups the lot, which fixes the order
    each ancestor's aggregates are summed in.
    """
    masks = [
        ((1 << width) - 1) << offset
        for width, offset in zip(codec.widths, codec.offsets)
    ]
    positions = list(range(codec.arity)) if group is None else list(group)
    patterns = np.zeros(keys.size, dtype=np.int64)
    for i, j in enumerate(positions):
        patterns |= ((keys & masks[j]) != 0).astype(np.int64) << i

    out_key_parts = []
    out_agg_parts = []
    emitted = 0
    for pattern in np.unique(patterns):
        sel = patterns == pattern
        group_keys = keys[sel]
        group_aggs = aggs[sel]
        bound = [
            positions[i]
            for i in range(len(positions))
            if (int(pattern) >> i) & 1
        ]
        subsets = 1 << len(bound)
        if instance_weighted:
            emitted += int(group_aggs[:, 2].sum()) * subsets
        else:
            emitted += group_keys.size * subsets
        subset_ids = np.arange(subsets, dtype=np.int64)
        clear_masks = np.zeros(subsets, dtype=np.int64)
        for bit, j in enumerate(bound):
            clear_masks |= np.where(
                (subset_ids >> bit) & 1 == 1, np.int64(masks[j]), np.int64(0)
            )
        expanded = group_keys[:, None] & ~clear_masks[None, :]
        out_key_parts.append(expanded.ravel())
        out_agg_parts.append(np.repeat(group_aggs, subsets, axis=0))

    all_keys = np.concatenate(out_key_parts)
    all_aggs = np.concatenate(out_agg_parts)
    uniq, sums = group_packed_reference(
        all_keys, [all_aggs[:, 0], all_aggs[:, 1], all_aggs[:, 2]]
    )
    return uniq, np.stack(sums, axis=1), emitted
