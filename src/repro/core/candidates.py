"""Candidate rule generation and gain computation.

Candidates are packed rule keys (:class:`~repro.core.codec.RowCodec`)
in two generation modes, with the scoring step they share:

- sample-pruned (default, thesis §3.1.1): ancestors of LCA(s, D) over
  packed keys with the multiplicity correction, ancestor generation
  either single-stage or column-grouped (§4.3) — the miner's stages
  over :mod:`repro.core.lattice_packed`;
- exhaustive (§3.1, used by the cube-exploration experiments where
  pruning is disabled): the full data cube of each partition, one
  :class:`~repro.core.codec.GroupPlan` built cuboid by cuboid
  (:func:`cube_plan`) and kept by the job, so iterations 2..k only
  re-sum ``SUM(m-hat)``;
- scoring: Eq. 2.2 gain per candidate (:func:`score_aggregates`).
"""

import numpy as np

from repro.common.errors import DataError
from repro.core.codec import GroupPlan, index_dtype, plan_groups
from repro.core.rule import Rule


class CandidateSet:
    """Scored candidate rules from one mining iteration.

    Candidates are packed keys plus the codec that packed them, which
    avoids materializing millions of Rule objects on high-dimensional
    workloads; :meth:`rule_at` decodes on demand.  Position is part of
    the output: :meth:`order_by_gain` and :meth:`best` break gain ties
    by it.
    """

    def __init__(self, keys, codec, sums_m, sums_mhat, counts, gains,
                 emitted_pairs):
        self.keys = keys
        self.codec = codec
        self.sums_m = sums_m
        self.sums_mhat = sums_mhat
        self.counts = counts
        self.gains = gains
        #: Mapper-emitted (rule, aggregate) pairs during ancestor
        #: generation — the quantity of thesis Figure 5.8.
        self.emitted_pairs = emitted_pairs

    def __len__(self):
        return int(self.keys.size)

    def rule_at(self, index):
        """The candidate rule at ``index``, decoded."""
        return Rule(self.codec.unpack(int(self.keys[index])))

    def order_by_gain(self):
        """Candidate indices sorted by descending gain."""
        return np.argsort(-self.gains, kind="stable")

    def best(self):
        if len(self) == 0:
            raise DataError("no candidate rules were generated")
        return int(np.argmax(self.gains))


def score_packed(keys, aggs, multiplicities, emitted, codec):
    """Multiplicity correction (§3.1.1) and Eq. 2.2 gains.

    A data tuple contributed its aggregates to candidate ``keys[i]``
    once per sample tuple the candidate matches, so the raw ``aggs``
    are divided by ``multiplicities[i]``; every candidate generated
    from LCAs matches at least one sample tuple by construction.
    """
    if np.any(multiplicities == 0):
        raise DataError(
            "candidate failed the sample-multiplicity invariant"
        )
    return score_aggregates(
        keys, aggs / multiplicities[:, None], emitted, codec
    )


def score_aggregates(keys, aggs, emitted, codec):
    """Eq. 2.2 gains of ``keys`` whose (sum_m, sum_mhat, count) rows
    ``aggs`` are their true aggregates over D."""
    return CandidateSet(
        keys, codec, aggs[:, 0], aggs[:, 1], aggs[:, 2],
        _gains(aggs[:, 0], aggs[:, 1]), emitted,
    )


def cube_plan(columns, measure, codec):
    """The estimate-independent half of a block's full data cube.

    Every one of the 2^d cuboids of the block — for each wildcard
    pattern, the block grouped by the bound attributes — as one
    :class:`~repro.core.codec.GroupPlan` over ``codec``'s keys: the
    simple MapReduce data-cube algorithm of [25] that Naive SIRUM uses
    (§3.1) and the mode the cube-exploration evaluation runs in
    (§5.6.2).  A cell's key has zeros exactly at its cuboid's wildcard
    fields, so no cell is in two cuboids.  Cells are in (cuboid, key)
    order, the all-bound cuboid first and the root last; each sums its
    rows in ascending row order.  The tally is the emission count,
    n * 2^d.

    The cube is grouped one cuboid at a time, so no more than one
    cuboid's keys exist at once beside the plan.
    """
    n = measure.size
    d = len(columns)
    if d > 20:
        raise DataError(
            "exhaustive generation over %d dimensions would enumerate "
            "2^%d cuboids; use sample-based pruning" % (d, d)
        )
    cells = n << d
    terms = [
        (columns[j].astype(codec.key_dtype) + 1) << codec.offsets[j]
        for j in range(d)
    ]
    keys = []
    group_ids = np.empty(cells, dtype=index_dtype(cells))
    sources = np.empty(cells, dtype=index_dtype(n))
    groups = 0
    for pattern in range(1 << d):
        cuboid = np.zeros(n, dtype=codec.key_dtype)
        for j in range(d):
            if not pattern & (1 << j):
                cuboid += terms[j]
        uniq, ids, positions = plan_groups(cuboid, codec.total_bits)
        span = slice(pattern * n, (pattern + 1) * n)
        group_ids[span] = ids + groups
        sources[span] = np.arange(n) if positions is None else positions
        keys.append(uniq)
        groups += uniq.size
    return GroupPlan(
        np.concatenate(keys), group_ids, sources, measure, np.ones(n), cells
    )


def _gains(sums_m, sums_mhat):
    """Vectorized Eq. 2.2 gains; semantics of
    :func:`~repro.core.divergence.information_gain`."""
    sums_m = np.asarray(sums_m, dtype=np.float64)
    sums_mhat = np.asarray(sums_mhat, dtype=np.float64)
    gains = np.zeros(sums_m.size, dtype=np.float64)
    positive = sums_m > 0
    if np.any(sums_mhat[positive] <= 0):
        raise DataError(
            "estimate totals must be positive wherever measure totals are"
        )
    gains[positive] = sums_m[positive] * np.log(
        sums_m[positive] / sums_mhat[positive]
    )
    return gains


def select_rules(candidates, existing_rules, rules_per_iteration=1,
                 top_fraction=0.01, min_gain_ratio=0.5):
    """Pick the rules to add this iteration (thesis §4.4).

    The most informative rule is always taken.  With
    ``rules_per_iteration`` > 1, further rules are taken from the top of
    the gain ordering provided each is (a) pairwise disjoint from every
    rule already picked this iteration, (b) has gain at least
    ``min_gain_ratio`` times the top gain, and (c) ranks within the top
    ``top_fraction`` of candidates.

    Rules already in the rule set have gain 0 and are skipped.
    """
    if rules_per_iteration < 1:
        raise DataError("rules_per_iteration must be at least 1")
    existing = set(existing_rules)
    order = candidates.order_by_gain()
    cutoff_rank = max(1, int(len(order) * top_fraction))
    picked = []
    top_gain = None
    for rank, idx in enumerate(order):
        rule = candidates.rule_at(idx)
        gain = float(candidates.gains[idx])
        if rule in existing:
            continue
        if gain <= 0.0:
            break
        if not picked:
            picked.append((rule, gain))
            top_gain = gain
            if rules_per_iteration == 1:
                break
            continue
        if rank >= cutoff_rank:
            break
        if gain < min_gain_ratio * top_gain:
            break
        if all(rule.is_disjoint(prev) for prev, _ in picked):
            picked.append((rule, gain))
            if len(picked) >= rules_per_iteration:
                break
    return picked
