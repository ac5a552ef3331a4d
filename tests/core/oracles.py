"""Test-only reference implementations of the mining kernels and loop.

Four kinds, and nothing under ``src/`` imports any of them:

- one-shot packed references: the ``np.unique`` + ``np.bincount``
  group-bys and the per-pattern ancestor loop the kernels used before
  grouping became one plain key sort.  They define the *bytes* the
  kernels must reproduce (``tests/core/test_canonical_order.py``), for
  ``int64`` and Python-int (``object``) keys alike;
- object references over :class:`~repro.core.rule.Rule` tuples and
  dicts: the cube lattice with its §4.3 column-grouped stages, the
  quadratic LCA table, the tuple sample-match count and the rule-list
  redundancy mask.  They define *which* candidates and aggregates the
  kernels must produce;
- the naive data cube, one group-by per cuboid, which the SQL engine's
  ``GROUP BY CUBE`` and the mined rules' aggregates are checked against
  (``tests/integration/test_cross_subsystem.py``);
- the centralized greedy loop of El Gebaly et al. [16], which Naive
  SIRUM ports to a cluster.  It runs the packed kernels in one process
  and defines *which rules*, in which order, ``mine(variant="naive")``
  must pick.
"""

import numpy as np

from repro.common.rng import make_rng
from repro.core.candidates import score_packed
from repro.core.codec import RowCodec
from repro.core.lattice_packed import (
    generate_ancestors_packed,
    match_counts_packed,
    pack_rule_rows,
)
from repro.core.rule import Rule, WILDCARD
from repro.core.sampling import draw_sample_rows, lca_aggregates_packed
from repro.core.scaling import iterative_scale


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
    packed = np.zeros((s, n), dtype=codec.key_dtype)
    for j in range(len(columns)):
        agree = columns[j][None, :] == sample[:, j][:, None]
        agreements += int(agree.sum())
        term = (columns[j].astype(codec.key_dtype) + 1) << codec.offsets[j]
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
        clear_masks = np.zeros(subsets, dtype=codec.key_dtype)
        for bit, j in enumerate(bound):
            clear_masks |= np.where(
                (subset_ids >> bit) & 1 == 1,
                np.array(masks[j], dtype=codec.key_dtype), 0,
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


# ----------------------------------------------------------------------
# Object references: Rule tuples and dicts
# ----------------------------------------------------------------------


def ancestors(rule, include_self=True):
    """Every ancestor of ``rule`` (2^num_bound rules, thesis §2.5).

    Ancestors replace subsets of the bound positions by wildcards; the
    rule is its own ancestor and the root is always included.
    """
    bound = rule.bound_positions()
    for mask in range(0 if include_self else 1, 1 << len(bound)):
        values = list(rule.values)
        for bit, pos in enumerate(bound):
            if mask & (1 << bit):
                values[pos] = WILDCARD
        yield Rule(values)


def parents(rule):
    """Immediate proper ancestors of ``rule`` (one more wildcard each)."""
    for pos in rule.bound_positions():
        values = list(rule.values)
        values[pos] = WILDCARD
        yield Rule(values)


def ancestors_within_group(rule, group):
    """Ancestors of ``rule`` whose new wildcards lie only in ``group``.

    Yields ``rule`` itself (empty subset) plus every rule obtained by
    wildcarding a non-empty subset of the rule's bound positions inside
    ``group`` — the per-stage mapper of thesis §4.3.
    """
    bound_in_group = [p for p in group if rule.values[p] != WILDCARD]
    for mask in range(1 << len(bound_in_group)):
        values = list(rule.values)
        for bit, pos in enumerate(bound_in_group):
            if mask & (1 << bit):
                values[pos] = WILDCARD
        yield Rule(values)


def generate_ancestors_single_stage(weighted_rules, multiplicities=None):
    """Every rule of the union of the cube lattices, aggregates merged.

    ``weighted_rules`` maps :class:`Rule` to an aggregate tuple;
    ``multiplicities`` (rule -> pair instances, default 1) weights the
    emission count as the first round of the pipeline does.  Returns
    ``(aggregates, emitted)``.
    """
    return generate_ancestors_staged(
        weighted_rules, [None], multiplicities
    )


def generate_ancestors_staged(weighted_rules, groups, multiplicities=None):
    """Column-grouped multi-stage ancestor generation (thesis §4.3).

    Stage ``i`` wildcards subsets of group ``i`` (None: any position)
    over stage ``i - 1``'s merged output; only the first stage's
    emissions are ``multiplicities``-weighted.  Returns the same
    ``(aggregates, emitted)`` pair as
    :func:`generate_ancestors_single_stage`.
    """
    current = dict(weighted_rules)
    emitted = 0
    for index, group in enumerate(groups):
        next_stage = {}
        for rule, agg in current.items():
            weight = 1
            if index == 0 and multiplicities is not None:
                weight = int(multiplicities.get(rule, 1))
            if group is None:
                lifted = list(ancestors(rule))
            else:
                lifted = list(ancestors_within_group(rule, group))
            for ancestor in lifted:
                existing = next_stage.get(ancestor)
                next_stage[ancestor] = tuple(agg) if existing is None else \
                    tuple(a + b for a, b in zip(existing, agg))
            emitted += weight * len(lifted)
        current = next_stage
    return current, emitted


def lca_table_reference(columns, measure, estimates, sample_rows):
    """Quadratic-time LCA table: explicit LCA per (tuple, sample) pair.

    Maps each LCA's value tuple to ``[sum_m, sum_mhat, count]``.
    """
    n = measure.size
    acc = {}
    for srow in sample_rows:
        for i in range(n):
            trow = tuple(int(col[i]) for col in columns)
            key = Rule.lca(trow, srow).values
            entry = acc.setdefault(key, [0.0, 0.0, 0.0])
            entry[0] += measure[i]
            entry[1] += estimates[i]
            entry[2] += 1.0
    return acc


def redundant_mask_rules(rules, counts, sums_m):
    """Which of ``rules`` have a parent with the same count and measure
    sum (:func:`repro.core.redundancy.redundant_mask_packed`)."""
    stats = {
        rule: (float(c), float(s))
        for rule, c, s in zip(rules, counts, sums_m)
    }
    redundant = np.zeros(len(rules), dtype=bool)
    for i, rule in enumerate(rules):
        own = stats[rule]
        for parent in parents(rule):
            other = stats.get(parent)
            if other is not None and other[0] == own[0] and \
                    abs(other[1] - own[1]) <= 1e-9 * (1.0 + abs(other[1])):
                redundant[i] = True
                break
    return redundant


def sample_match_counts(candidate_rows, sample_rows):
    """Number of sample tuples each candidate value tuple matches.

    The §3.1.1 correction's divisor, tuple against tuple.
    """
    sample = np.asarray(sample_rows, dtype=np.int64)
    rules = np.asarray(candidate_rows, dtype=np.int64)
    wild = rules[:, None, :] == WILDCARD
    equal = rules[:, None, :] == sample[None, :, :]
    return np.all(wild | equal, axis=2).sum(axis=1).astype(np.int64)


# ----------------------------------------------------------------------
# Cube reference: one group-by per cuboid
# ----------------------------------------------------------------------


def naive_cube(table):
    """Every cuboid of ``table``'s data cube as ``{mask: {key: (count, sum)}}``.

    Bit ``j`` of ``mask`` set means dimension ``j`` is grouped; ``key``
    holds the grouped dimensions' codes in position order, so the
    apex is ``cube[0][()]`` (thesis §2.5).  Each cuboid is its own
    pass over the rows, sharing no work with any other.
    """
    columns = table.dimension_columns()
    measure = table.measure
    arity = len(columns)
    cube = {}
    for mask in range(1 << arity):
        positions = [j for j in range(arity) if mask >> j & 1]
        groups = {}
        for i in range(len(table)):
            key = tuple(int(columns[j][i]) for j in positions)
            count, total = groups.get(key, (0, 0.0))
            groups[key] = (count + 1, total + float(measure[i]))
        cube[mask] = groups
    return cube


def cube_point(cube, values):
    """``(count, sum)`` of the group a rule's value tuple names."""
    mask = 0
    for j, value in enumerate(values):
        if value != WILDCARD:
            mask |= 1 << j
    key = tuple(value for value in values if value != WILDCARD)
    return cube[mask][key]


# ----------------------------------------------------------------------
# Loop reference: centralized El Gebaly et al. [16]
# ----------------------------------------------------------------------


def centralized_naive_rules(table, k, sample_size, seed, epsilon=0.01):
    """The rule list [16]'s one-rule-per-step greedy loop mines.

    Sample once; then per step: LCAs of the sample over the table,
    single-stage ancestors, the §3.1.1 multiplicity correction, the
    highest-gain new rule, and iterative scaling over coverage masks
    carried on from the previous multipliers.
    """
    measure = np.asarray(table.measure, dtype=np.float64)
    sample_rows = draw_sample_rows(table, sample_size, make_rng(seed))
    codec = RowCodec.from_table(table)
    sample_keys = pack_rule_rows(sample_rows, codec)
    columns = table.dimension_columns()

    rules = [Rule.all_wildcards(table.schema.arity)]
    masks = [np.ones(len(table), dtype=bool)]
    scaled = iterative_scale(masks, measure, epsilon=epsilon)
    while len(rules) - 1 < k:
        keys, aggs = lca_aggregates_packed(
            columns, measure, scaled.estimates, sample_rows, codec
        )
        keys, aggs, emitted = generate_ancestors_packed(
            keys, aggs, codec, instance_weighted=True
        )
        candidates = score_packed(
            keys, aggs, match_counts_packed(keys, sample_keys, codec),
            emitted, codec,
        )
        picked = None
        for idx in candidates.order_by_gain():
            if candidates.gains[idx] <= 0:
                break
            rule = candidates.rule_at(idx)
            if rule not in rules:
                picked = rule
                break
        if picked is None:
            break
        rules.append(picked)
        masks.append(picked.match_mask(table))
        scaled = iterative_scale(
            masks, measure, lambdas=np.append(scaled.lambdas, 1.0),
            estimates=scaled.estimates, epsilon=epsilon,
        )
    return rules
