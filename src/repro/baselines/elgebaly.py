"""El Gebaly et al. [16]: informative explanations over binary measures.

The thesis's §2.4 problem statement comes from this work: given a
binary measure, greedily build the smallest rule list whose maximum-
entropy estimate drives the KL-divergence below a threshold.  SIRUM's
Naive variant is the straightforward distributed port of this
technique; this module provides the *centralized* original for
correctness cross-checks and the binary (Bernoulli) KL-divergence the
paper uses.
"""

import numpy as np

from repro.common.errors import DataError
from repro.common.rng import make_rng
from repro.core.candidates import generate_from_lcas
from repro.core.codec import RowCodec
from repro.core.divergence import kl_divergence
from repro.core.lattice_packed import pack_rule_rows
from repro.core.rule import Rule
from repro.core.sampling import draw_sample_rows, lca_aggregates_packed
from repro.core.scaling import iterative_scale


def binary_kl_divergence(measure, estimates):
    """Per-tuple Bernoulli KL summed over the dataset.

    [16] treats each tuple's binary measure as a Bernoulli variable
    with estimated success probability clip(m-hat); the divergence is
    sum_t  m log(m / m-hat) + (1 - m) log((1 - m) / (1 - m-hat)),
    with 0 log 0 = 0.
    """
    m = np.asarray(measure, dtype=np.float64)
    q = np.asarray(estimates, dtype=np.float64)
    if m.shape != q.shape:
        raise DataError("length mismatch")
    if not np.all(np.isin(np.unique(m), (0.0, 1.0))):
        raise DataError("binary KL requires a 0/1 measure")
    q = np.clip(q, 1e-12, 1.0 - 1e-12)
    ones = m == 1.0
    total = -np.log(q[ones]).sum()
    total += -np.log(1.0 - q[~ones]).sum()
    return float(total)


class ElGebalyMiner:
    """Centralized greedy miner for binary measures (one rule per step).

    Mirrors SIRUM's Naive algorithm without any distribution: sample-
    based candidate pruning, Eq. 2.2 gain ranking, Algorithm 1 iterative
    scaling carried out directly over the dataset arrays.

    Parameters
    ----------
    k: number of rules beyond the all-wildcards rule.
    sample_size: candidate-pruning sample size |s|.
    epsilon: scaling convergence threshold.
    kl_threshold: optional early stop once the (standard) KL-divergence
        falls below this value — the Problem 1 formulation.
    """

    def __init__(self, k=10, sample_size=64, epsilon=0.01, kl_threshold=None,
                 seed=0):
        self.k = k
        self.sample_size = sample_size
        self.epsilon = epsilon
        self.kl_threshold = kl_threshold
        self.seed = seed

    def mine(self, table):
        measure = np.asarray(table.measure, dtype=np.float64)
        if not np.all(np.isin(np.unique(measure), (0.0, 1.0))):
            raise DataError("ElGebalyMiner requires a binary measure")
        if measure.sum() == 0:
            raise DataError("the measure has no positive tuples to explain")
        rng = make_rng(self.seed)
        sample_rows = draw_sample_rows(table, self.sample_size, rng)
        codec = RowCodec.from_table(table)
        sample_keys = pack_rule_rows(sample_rows, codec)
        columns = table.dimension_columns()

        rules = [Rule.all_wildcards(table.schema.arity)]
        masks = [np.ones(len(table), dtype=bool)]
        scaled = iterative_scale(masks, measure, epsilon=self.epsilon)
        estimates = scaled.estimates
        lambdas = scaled.lambdas
        kl_trace = [kl_divergence(measure, estimates)]

        while len(rules) - 1 < self.k:
            if self.kl_threshold is not None and kl_trace[-1] <= self.kl_threshold:
                break
            keys, aggs = lca_aggregates_packed(
                columns, measure, estimates, sample_rows, codec
            )
            candidates = generate_from_lcas(keys, aggs, sample_keys, codec)
            picked = None
            for idx in candidates.order_by_gain():
                rule = candidates.rule_at(idx)
                if candidates.gains[idx] <= 0:
                    break
                if rule not in set(rules):
                    picked = rule
                    break
            if picked is None:
                break
            rules.append(picked)
            masks.append(picked.match_mask(table))
            lambdas = np.concatenate([lambdas, [1.0]])
            scaled = iterative_scale(
                masks, measure, lambdas=lambdas, estimates=estimates,
                epsilon=self.epsilon,
            )
            estimates = scaled.estimates
            lambdas = scaled.lambdas
            kl_trace.append(kl_divergence(measure, estimates))
        return ElGebalyResult(rules, lambdas, estimates, kl_trace, measure)


class ElGebalyResult:
    """Rules, multipliers, estimates and both divergence flavours."""

    def __init__(self, rules, lambdas, estimates, kl_trace, measure):
        self.rules = rules
        self.lambdas = lambdas
        self.estimates = estimates
        self.kl_trace = kl_trace
        self._measure = measure

    @property
    def final_kl(self):
        return self.kl_trace[-1]

    @property
    def final_binary_kl(self):
        return binary_kl_divergence(self._measure, np.clip(self.estimates, 0, 1))
