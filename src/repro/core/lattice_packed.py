"""Vectorized ancestor generation over packed rule keys.

Rules are packed keys (:class:`~repro.core.codec.RowCodec`), grouped by
their bound-attribute *pattern*; wildcarding a subset of bound
attributes is one vectorized bitwise-AND over the whole pattern group.
This is what makes d = 18 workloads (SUSY, thesis §5.4) tractable in
pure Python — the work is still exponential in the number of bound
attributes, but it runs at numpy speed.  Keys are ``codec.key_dtype``:
``int64`` for a codec that fits 63 bits, Python ints in an ``object``
array past it, through the same code.

A round is **plan, then apply**: which ancestors a chunk's keys expand
to, which source feeds which ancestor in which order, the emission
count and two of the three aggregate columns do not depend on the
estimates, so :func:`_ancestor_plan` derives them once per (job, round,
chunk) — the job keeps the plan where the kernel runs
(:func:`repro.engine.task.job_slot`) — and every iteration sums only
the ``SUM(m-hat)`` column through it.  :func:`match_counts_packed`
keeps its counts whole the same way.  A missing plan is built; there
is no plan-free implementation here.

``tests/core/test_lattice_packed.py`` checks exact equivalence against
the object-based reference lattice, and
``tests/core/test_canonical_order.py`` byte equality with the one-shot
references; both references live in ``tests/core/oracles.py``.
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


#: Candidates per broadcast compare in :func:`match_counts_packed`
#: (bounds the candidates x |s| temporaries).
_MATCH_BLOCK = 1 << 16


def _field_masks(codec):
    return [
        ((1 << width) - 1) << offset
        for width, offset in zip(codec.widths, codec.offsets)
    ]


def _ancestor_plan(keys, aggs, codec, group, instance_weighted):
    """The estimate-independent half of one ancestor round.

    Which ancestors ``keys`` expand to, which source feeds which
    ancestor in which order, and the emission count depend on the keys
    and the count column alone; the plan's ``sources`` index the
    *input* arrays, so :meth:`~repro.core.codec.GroupPlan.apply` takes
    the input's ``SUM(m-hat)`` column as it arrives.
    """
    masks = _field_masks(codec)
    positions = list(range(codec.arity)) if group is None else list(group)

    # Pattern id: bit i set iff positions[i] is bound in the key.
    patterns = np.zeros(keys.size, dtype=np.int64)
    num_bound = np.zeros(keys.size, dtype=np.int64)
    for i, j in enumerate(positions):
        bound = (keys & masks[j]) != 0
        patterns |= bound.astype(np.int64) << i
        num_bound += bound
    weights = aggs[:, 2].astype(np.int64) if instance_weighted else 1
    emitted = int((weights << num_bound).sum())

    # A source's rank is its place in (pattern, input position) order;
    # every ancestor key sums its sources' aggregates in rank order.
    by_rank = np.argsort(patterns, kind="stable")
    out_keys = keys[by_rank]
    ranks = np.arange(keys.size, dtype=np.int64)
    # One doubling pass per position: every key so far that binds the
    # position also yields its copy with the position wildcarded.
    for j in positions:
        bound = (out_keys & masks[j]) != 0
        out_keys = np.concatenate([out_keys, out_keys[bound] & ~masks[j]])
        ranks = np.concatenate([ranks, ranks[bound]])

    bits = position_bits(codec.total_bits, keys.size)
    if bits is None:
        order = np.argsort(ranks, kind="stable")
        ranks = ranks[order]
        uniq, group_ids, _ = plan_groups(out_keys[order])
    else:
        uniq, group_ids, ranks, _ = sort_groups(
            (out_keys << bits) | ranks, bits
        )
    return GroupPlan(
        uniq, group_ids, by_rank[ranks], aggs[:, 0], aggs[:, 2], emitted
    )


def generate_ancestors_packed(keys, aggs, codec, group=None,
                              instance_weighted=False, state=None):
    """One ancestor-generation round over packed keys: plan, then apply.

    Parameters
    ----------
    keys:
        Array of distinct packed rule keys in ``codec.key_dtype``
        (wildcard = zero field, as produced by
        :class:`~repro.core.codec.RowCodec`).
    aggs:
        (n, 3) float array of (sum_m, sum_mhat, count) per key.
    codec:
        The :class:`RowCodec` the keys were packed with.
    group:
        Restrict new wildcards to these attribute positions (a §4.3
        column group); None allows every position (single-stage round).
    instance_weighted:
        Count emissions per pair instance (weight = count column), as
        the first round of the real pipeline does; otherwise one
        emission per input rule per generated ancestor.
    state:
        A job slot holding this round's plan for these keys, or None;
        with the plan retained only the ``sum_mhat`` column is summed.

    Returns
    -------
    (out_keys, out_aggs, emitted):
        Distinct ancestor keys, their merged aggregates, and the
        emission count under the requested weighting.
    """
    keys = np.asarray(keys, dtype=codec.key_dtype)
    aggs = np.asarray(aggs, dtype=np.float64)
    if aggs.shape != (keys.size, 3):
        raise DataError("aggs must be (len(keys), 3)")
    if keys.size == 0:
        return keys, aggs, 0
    plan = planned(
        state, _ancestor_plan, keys, aggs, codec, group, instance_weighted
    )
    return plan.keys, plan.apply(aggs[:, 1]), plan.tally


def pack_rule_rows(rows, codec):
    """Pack an (n, d) matrix of codes/WILDCARD rows into keys."""
    rows = np.asarray(rows, dtype=np.int64)
    keys = np.zeros(rows.shape[0], dtype=codec.key_dtype)
    for j in range(codec.arity):
        bound = rows[:, j] != -1
        term = (rows[:, j].astype(codec.key_dtype) + 1) << codec.offsets[j]
        keys += np.where(bound, term, 0)
    return keys


def _match_counts(keys, sample_keys, codec):
    keys = np.asarray(keys, dtype=codec.key_dtype)
    bound_masks = np.zeros(keys.size, dtype=codec.key_dtype)
    for mask in _field_masks(codec):
        # A Python int past int64 would overflow ``np.where``.
        mask = np.array(mask, dtype=codec.key_dtype)
        bound_masks |= np.where((keys & mask) != 0, mask, 0)
    counts = np.empty(keys.size, dtype=np.int64)
    for start in range(0, keys.size, _MATCH_BLOCK):
        block = slice(start, start + _MATCH_BLOCK)
        match = (
            sample_keys[None, :] & bound_masks[block, None]
        ) == keys[block, None]
        counts[block] = np.count_nonzero(match, axis=1)
    counts.setflags(write=False)
    return counts


def match_counts_packed(keys, sample_keys, codec, state=None):
    """Sample-match counts for packed candidate keys (§3.1.1 correction).

    Candidate ``c`` matches sample tuple ``t`` iff ``t``
    restricted to the fields ``c`` binds equals ``c``.  ``sample_keys``
    are the packed sample tuples (no wildcards).  The counts move with
    neither estimates nor iteration, so ``state`` (a job slot) keeps
    them whole; they come back read-only.
    """
    return planned(state, _match_counts, keys, sample_keys, codec)
