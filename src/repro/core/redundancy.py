"""Redundant-candidate elimination — thesis §7 (future work).

The thesis's conclusion sketches an optimization the authors were
investigating: *"if a rule has the same support set as one of its
descendants, it is unnecessary to evaluate it because its gain is the
same as its descendant's."*  Two rules in ancestor/descendant relation
have equal gain whenever they cover exactly the same tuples, and then
only one of them needs to be kept — we keep the **ancestor** (the more
general, more interpretable pattern) and drop the descendant.

Support-set equality between a rule and its parent is detected from the
aggregates the pipeline already computed: a descendant covers a subset
of each parent's support, so equal ``count`` (and, as a numeric
tie-break, equal ``sum_m``) implies the same support set.  Candidates
are packed keys in the codec's ``key_dtype``; a parent is the key with
one more field cleared.
"""

import numpy as np


def redundant_mask_packed(keys, counts, sums_m, codec):
    """Boolean mask of redundant packed candidates.

    A candidate is redundant iff some *parent* (one more wildcard) is
    also a candidate with the same count and measure sum — the parent
    then has an identical support set and identical gain.
    """
    keys = np.asarray(keys, dtype=codec.key_dtype)
    counts = np.asarray(counts)
    sums_m = np.asarray(sums_m)
    stats = {
        int(k): (float(c), float(s))
        for k, c, s in zip(keys, counts, sums_m)
    }
    masks = [
        ((1 << width) - 1) << offset
        for width, offset in zip(codec.widths, codec.offsets)
    ]
    redundant = np.zeros(keys.size, dtype=bool)
    for i, key in enumerate(keys):
        key = int(key)
        own = stats[key]
        for mask in masks:
            if key & mask == 0:
                continue  # already a wildcard at this position
            parent = key & ~mask
            parent_stats = stats.get(parent)
            if parent_stats is not None and _close(parent_stats, own):
                redundant[i] = True
                break
    return redundant


def _close(a, b):
    return a[0] == b[0] and abs(a[1] - b[1]) <= 1e-9 * (1.0 + abs(a[1]))


def filter_candidate_set(candidates):
    """Return a copy of ``candidates`` without redundant descendants.

    The surviving set contains, for every group of support-identical
    ancestor/descendant rules, the most general members; gains are
    unchanged for the survivors, so the selected rules' quality is
    unaffected (only duplicate-support specializations disappear).
    """
    from repro.core.candidates import CandidateSet

    keep = ~redundant_mask_packed(
        candidates.keys, candidates.counts, candidates.sums_m,
        candidates.codec,
    )
    return CandidateSet(
        candidates.keys[keep],
        candidates.codec,
        candidates.sums_m[keep],
        candidates.sums_mhat[keep],
        candidates.counts[keep],
        candidates.gains[keep],
        candidates.emitted_pairs,
    )
