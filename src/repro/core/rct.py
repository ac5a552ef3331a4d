"""Rule Coverage Table — thesis §4.1, Algorithm 3.

Tuples matching exactly the same subset of rules share the same
estimate (the product of those rules' multipliers).  The RCT groups
tuples by their rule-coverage *bit array* and keeps, per group:
count, SUM(t[m]) and SUM(t[m-hat]).  Iterative scaling then runs over
the RCT's handful of rows instead of over D, so D is accessed only
twice in total: once to build/refresh the RCT and once to write the
converged estimates back.

Bit arrays are stored as a dense (n x words) uint64 matrix so adding a
rule and grouping stay vectorized for rule sets of any size (the thesis
caps |R| at ~50 for interpretability; multi-rule *-variants can exceed
64, hence multiple words).
"""

import numpy as np

from repro.common.errors import ConvergenceError, DataError
from repro.core.scaling import DEFAULT_EPSILON, DEFAULT_MAX_ITERATIONS

_WORD_BITS = 64


class BitMatrix:
    """Per-tuple rule-coverage bit arrays (rows = tuples)."""

    def __init__(self, num_rows):
        self.num_rows = num_rows
        self.num_rules = 0
        self._words = np.zeros((num_rows, 1), dtype=np.uint64)

    def add_rule(self, mask):
        """Append rule bit ``num_rules`` set for tuples where ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.size != self.num_rows:
            raise DataError("mask length mismatch")
        word, bit = divmod(self.num_rules, _WORD_BITS)
        if word >= self._words.shape[1]:
            self._words = np.hstack(
                [self._words, np.zeros((self.num_rows, 1), dtype=np.uint64)]
            )
        self._words[mask, word] |= np.uint64(1 << bit)
        self.num_rules += 1

    def covers(self, keys, rule_index):
        """Boolean array: does each key (word tuple row) cover the rule?"""
        word, bit = divmod(rule_index, _WORD_BITS)
        return (keys[:, word] & np.uint64(1 << bit)) != 0

    def group_rows(self):
        """Unique coverage patterns and each tuple's pattern index.

        Returns ``(keys, inverse)`` where ``keys`` is a (g x words)
        array of distinct bit patterns and ``inverse`` maps each tuple
        to its row in ``keys``.
        """
        keys, inverse = unique_coverage(self._words, return_inverse=True)
        return keys, inverse.ravel()


def unique_coverage(words, return_inverse=False):
    """Distinct coverage-word rows, as ``np.unique(axis=0)`` returns them.

    A one-word matrix (up to 64 rules: the usual case) sorts as the
    1-D array it is, several times faster than ``axis=0``'s row view.
    """
    if words.shape[1] > 1:
        return np.unique(words, axis=0, return_inverse=return_inverse)
    if not return_inverse:
        return np.unique(words[:, 0])[:, None]
    keys, inverse = np.unique(words[:, 0], return_inverse=True)
    return keys[:, None], inverse


class RuleCoverageTable:
    """The grouped table: one row per distinct coverage pattern."""

    def __init__(self, keys, counts, sum_m, sum_mhat, inverse):
        self.keys = keys
        self.counts = counts.astype(np.float64)
        self.sum_m = sum_m
        self.sum_mhat = sum_mhat
        self._inverse = inverse

    @classmethod
    def build(cls, bit_matrix, measure, estimates):
        """Group D by coverage pattern (Algorithm 3 line 6)."""
        measure = np.asarray(measure, dtype=np.float64)
        estimates = np.asarray(estimates, dtype=np.float64)
        if measure.size != bit_matrix.num_rows:
            raise DataError("measure length mismatch")
        if estimates.size != bit_matrix.num_rows:
            raise DataError("estimates length mismatch")
        keys, inverse = bit_matrix.group_rows()
        g = keys.shape[0]
        counts = np.bincount(inverse, minlength=g)
        sum_m = np.bincount(inverse, weights=measure, minlength=g)
        sum_mhat = np.bincount(inverse, weights=estimates, minlength=g)
        return cls(keys, counts, sum_m, sum_mhat, inverse)

    @property
    def num_groups(self):
        return self.keys.shape[0]

    def coverage_mask(self, bit_matrix, rule_index):
        """Rows of the RCT covering rule ``rule_index``."""
        return bit_matrix.covers(self.keys, rule_index)

    def tuple_estimates(self, group_estimate_means):
        """Expand per-group mean estimates back to per-tuple estimates."""
        return group_estimate_means[self._inverse]

    def estimated_bytes(self):
        """Size of the RCT if broadcast (thesis notes it is tiny)."""
        return int(
            self.keys.nbytes
            + self.counts.nbytes
            + self.sum_m.nbytes
            + self.sum_mhat.nbytes
        )


class RctScalingResult:
    """Outcome of RCT-based iterative scaling."""

    def __init__(self, lambdas, estimates, iterations, rct):
        self.lambdas = lambdas
        self.estimates = estimates
        self.iterations = iterations
        self.rct = rct
        #: The RCT needs exactly two passes over D regardless of the
        #: number of scaling iterations (build + write-back).
        self.data_passes = 2


def iterative_scale_rct(
    bit_matrix,
    measure,
    estimates,
    lambdas,
    epsilon=DEFAULT_EPSILON,
    max_iterations=DEFAULT_MAX_ITERATIONS,
):
    """Run Algorithm 3: iterative scaling against the RCT.

    Parameters mirror :func:`repro.core.scaling.iterative_scale` but the
    per-loop work is proportional to the number of distinct coverage
    patterns, not |D|.  Returns an :class:`RctScalingResult` whose
    ``estimates`` equal the per-tuple fixpoint of Algorithm 1 (both
    converge to the same maximum-entropy solution; tests check this).
    """
    measure = np.asarray(measure, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    lam = np.asarray(lambdas, dtype=np.float64).copy()
    num_rules = bit_matrix.num_rules
    if lam.size != num_rules:
        raise DataError("one multiplier per rule is required")
    if epsilon <= 0:
        raise DataError("epsilon must be positive")

    rct = RuleCoverageTable.build(bit_matrix, measure, estimates)
    cover = np.stack(
        [rct.coverage_mask(bit_matrix, i) for i in range(num_rules)]
    )
    counts_per_rule = cover @ rct.counts
    if np.any(counts_per_rule == 0):
        raise DataError("every rule must cover at least one tuple")
    targets_per_rule = cover @ rct.sum_m
    target_means = targets_per_rule / counts_per_rule

    sum_mhat = rct.sum_mhat.copy()
    iterations = 0
    while True:
        if iterations >= max_iterations:
            raise ConvergenceError(
                "RCT scaling did not converge in %d iterations" % max_iterations
            )
        iterations += 1
        estimate_means = (cover @ sum_mhat) / counts_per_rule
        diffs = np.empty(num_rules)
        for i in range(num_rules):
            if target_means[i] != 0.0:
                diffs[i] = abs(target_means[i] - estimate_means[i]) / abs(
                    target_means[i]
                )
            else:
                diffs[i] = abs(estimate_means[i])
        next_rule = int(np.argmax(diffs))
        if diffs[next_rule] <= epsilon:
            break
        factor = target_means[next_rule] / estimate_means[next_rule]
        lam[next_rule] *= factor
        sum_mhat[cover[next_rule]] *= factor

    # Write the converged estimates back to the tuples: every tuple in a
    # group shares the group's mean estimate (Algorithm 3 lines 23-25).
    group_means = sum_mhat / rct.counts
    final_estimates = rct.tuple_estimates(group_means)
    rct.sum_mhat = sum_mhat
    return RctScalingResult(lam, final_estimates, iterations, rct)
