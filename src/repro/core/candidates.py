"""Candidate rule generation and gain computation.

Two generation modes and the scoring step they share:

- sample-pruned (default, thesis §3.1.1): ancestors of LCA(s, D) over
  packed keys with the multiplicity correction, ancestor generation
  either single-stage or column-grouped (§4.3) — the miner's stages
  over :mod:`repro.core.lattice_packed`;
- exhaustive (§3.1, used by the cube-exploration experiments where
  pruning is disabled): the full data cube of D, computed per cuboid;
- scoring: Eq. 2.2 gain per candidate (:func:`score_packed`).
"""

import numpy as np

from repro.common.errors import DataError
from repro.core.codec import RowCodec, group_packed
from repro.core.rule import Rule


class CandidateSet:
    """Scored candidate rules from one mining iteration.

    Candidates are held either as explicit :class:`Rule` objects
    (``rules``, the exhaustive cube) or as packed keys plus a codec
    (``keys`` + ``codec``, sample pruning); the packed form avoids
    materializing millions of Rule objects on high-dimensional
    workloads.  :meth:`rule_at` decodes on demand either way.
    """

    def __init__(self, rules, sums_m, sums_mhat, counts, gains,
                 emitted_pairs, keys=None, codec=None):
        if rules is None and (keys is None or codec is None):
            raise DataError("provide rules, or keys plus a codec")
        self.rules = rules
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
        if self.rules is not None:
            return len(self.rules)
        return int(self.keys.size)

    def rule_at(self, index):
        """The candidate rule at ``index``, decoded if packed."""
        if self.rules is not None:
            return self.rules[index]
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
    corrected = aggs / multiplicities[:, None]
    gains = _gains(corrected[:, 0], corrected[:, 1])
    return CandidateSet(
        None,
        corrected[:, 0],
        corrected[:, 1],
        corrected[:, 2],
        gains,
        emitted,
        keys=keys,
        codec=codec,
    )


def generate_exhaustive(columns, measure, estimates, tc=None):
    """Full-cube candidate generation over a data block (no pruning).

    Computes every cuboid of the block: for each of the 2^d wildcard
    patterns, groups the block by the bound attributes and aggregates
    (SUM(m), SUM(m-hat), COUNT).  This is the simple MapReduce data-cube
    algorithm of [25] that Naive SIRUM uses (§3.1) and the mode the
    cube-exploration evaluation runs in (§5.6.2).

    Returns (aggregates dict, emitted pair count).
    """
    n = measure.size
    d = len(columns)
    if d > 20:
        raise DataError(
            "exhaustive generation over %d dimensions would enumerate "
            "2^%d cuboids; use sample-based pruning" % (d, d)
        )
    aggregates = {}
    emitted = n * (1 << d)
    weights = [measure, estimates, np.ones(n, dtype=np.float64)]
    codec = RowCodec([int(col.max()) + 1 if col.size else 1 for col in columns])
    terms = [
        (columns[j].astype(codec.key_dtype) + 1) << codec.offsets[j]
        for j in range(d)
    ]
    for pattern in range(1 << d):
        keys = np.zeros(n, dtype=codec.key_dtype)
        for j in range(d):
            if not pattern & (1 << j):
                keys += terms[j]
        uniq, (sums_m, sums_mhat, counts) = group_packed(
            keys, weights, key_bits=codec.total_bits
        )
        rows = codec.unpack_batch(uniq)
        for row, sm, smh, c in zip(rows, sums_m, sums_mhat, counts):
            key = tuple(int(v) for v in row)
            existing = aggregates.get(key)
            if existing is None:
                aggregates[key] = [sm, smh, c]
            else:
                existing[0] += sm
                existing[1] += smh
                existing[2] += c
    if tc is not None:
        # Each tuple emits 2^d cuboid cells; hash-add per emission.
        tc.add_ops(emitted * 2)
        tc.add_records(n)
    return aggregates, emitted


def merge_exhaustive(dicts):
    """Reduce-side merge of per-block exhaustive cube aggregates."""
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


def candidate_set_from_cube(cube_aggregates, emitted):
    """Score a merged exhaustive cube into a :class:`CandidateSet`."""
    rules = [Rule(key) for key in cube_aggregates]
    raw = np.asarray(
        [cube_aggregates[r.values] for r in rules], dtype=np.float64
    )
    if raw.size == 0:
        raise DataError("exhaustive generation produced no candidates")
    gains = _gains(raw[:, 0], raw[:, 1])
    return CandidateSet(rules, raw[:, 0], raw[:, 1], raw[:, 2], gains, emitted)


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
