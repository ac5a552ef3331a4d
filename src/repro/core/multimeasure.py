"""Multi-measure informative rule mining — thesis §7 (future work).

The thesis's conclusion proposes studying "the correlation among
multiple measure attributes as a function of the dimension attributes".
This module implements that extension: one shared rule list is mined to
be jointly informative about *several* measure columns.

Formulation: each measure m_i gets its own maximum-entropy estimate
(its own multipliers over the shared rules, its own preconditioning
transform), and a candidate rule's joint gain is the sum of its Eq. 2.2
gains per measure, each normalized by the measure's total so that
differently-scaled measures contribute comparably:

    joint_gain(r) = sum_i gain_i(r) / sum(m_i)

A rule that is informative for *any* of the measures (or moderately
informative for several) therefore wins over rules that only help one
slightly — exactly the "where do these measures co-vary with the
dimensions" question the thesis poses.

This is a centralized reference implementation over coverage masks (the
distributed optimizations of Chapter 4 apply orthogonally and are kept
out for clarity).
"""

import numpy as np

from repro.common.errors import ConfigError, DataError
from repro.common.rng import make_rng
from repro.core.candidates import generate_from_lcas
from repro.core.codec import RowCodec
from repro.core.divergence import kl_divergence
from repro.core.lattice_packed import pack_rule_rows
from repro.core.measure import MeasureTransform
from repro.core.rule import Rule
from repro.core.sampling import draw_sample_rows, lca_aggregates_packed
from repro.core.scaling import iterative_scale


class MeasureState:
    """Per-measure mining state: transform, multipliers, estimates."""

    def __init__(self, name, raw):
        self.name = name
        self.transform = MeasureTransform.fit(raw)
        self.measure = self.transform.transformed
        self.total = float(self.measure.sum())
        if self.total <= 0:
            raise DataError("measure %r has a non-positive total" % name)
        self.lambdas = None
        self.estimates = np.ones(self.measure.size)

    def rescale(self, masks, epsilon, max_iterations):
        result = iterative_scale(
            masks,
            self.measure,
            lambdas=self.lambdas,
            estimates=self.estimates,
            epsilon=epsilon,
            max_iterations=max_iterations,
        )
        self.lambdas = result.lambdas
        self.estimates = result.estimates
        return result.iterations

    def kl(self):
        return kl_divergence(self.measure, self.estimates)


class MultiMeasureResult:
    """Shared rules plus per-measure estimates and divergence traces."""

    def __init__(self, rules, states, kl_traces):
        self.rules = rules
        self._states = {state.name: state for state in states}
        self.kl_traces = kl_traces

    @property
    def measure_names(self):
        return list(self._states)

    def estimates(self, name):
        """Per-tuple estimates of measure ``name``, original units."""
        state = self._states[name]
        return state.transform.inverse(state.estimates)

    def final_kl(self, name):
        return self.kl_traces[name][-1]

    def information_gain(self, name):
        trace = self.kl_traces[name]
        return trace[0] - trace[-1]


class MultiMeasureSirum:
    """Greedy miner for a rule list shared across several measures.

    Parameters mirror the single-measure miner where applicable.
    """

    def __init__(self, k=10, sample_size=64, epsilon=0.01,
                 max_scaling_iterations=10_000, seed=0):
        if k < 1:
            raise ConfigError("k must be at least 1")
        if sample_size < 1:
            raise ConfigError("sample_size must be at least 1")
        self.k = k
        self.sample_size = sample_size
        self.epsilon = epsilon
        self.max_scaling_iterations = max_scaling_iterations
        self.seed = seed

    def mine(self, table, extra_measures=None):
        """Mine a shared rule list for the table's measure plus extras.

        Parameters
        ----------
        table:
            The input table; its measure column is always included.
        extra_measures:
            Mapping of name -> numeric array (len(table)) of additional
            measure columns.
        """
        extra_measures = dict(extra_measures or {})
        states = [MeasureState(table.schema.measure, table.measure)]
        for name, raw in extra_measures.items():
            raw = np.asarray(raw, dtype=np.float64)
            if raw.size != len(table):
                raise DataError(
                    "measure %r has %d values for %d rows"
                    % (name, raw.size, len(table))
                )
            states.append(MeasureState(name, raw))
        if len({s.name for s in states}) != len(states):
            raise DataError("measure names must be unique")

        rng = make_rng(self.seed)
        sample_rows = draw_sample_rows(table, self.sample_size, rng)
        codec = RowCodec.from_table(table)
        columns = table.dimension_columns()

        rules = [Rule.all_wildcards(table.schema.arity)]
        masks = [np.ones(len(table), dtype=bool)]
        kl_traces = {s.name: [] for s in states}
        self._rescale_all(states, masks)
        for state in states:
            kl_traces[state.name].append(state.kl())

        while len(rules) - 1 < self.k:
            picked = self._best_candidate(
                states, columns, sample_rows, codec, rules
            )
            if picked is None:
                break
            rules.append(picked)
            masks.append(picked.match_mask(table))
            self._rescale_all(states, masks)
            for state in states:
                kl_traces[state.name].append(state.kl())
        return MultiMeasureResult(rules, states, kl_traces)

    def _rescale_all(self, states, masks):
        for state in states:
            if state.lambdas is not None and state.lambdas.size < len(masks):
                state.lambdas = np.concatenate(
                    [state.lambdas,
                     np.ones(len(masks) - state.lambdas.size)]
                )
            state.rescale(masks, self.epsilon, self.max_scaling_iterations)

    def _best_candidate(self, states, columns, sample_rows, codec, rules):
        """Rank candidates, keyed by packed key, by total-normalized
        joint gain."""
        sample_keys = pack_rule_rows(sample_rows, codec)
        joint = {}
        for state in states:
            keys, aggs = lca_aggregates_packed(
                columns, state.measure, state.estimates, sample_rows, codec
            )
            candidates = generate_from_lcas(keys, aggs, sample_keys, codec)
            for key, gain in zip(candidates.keys.tolist(), candidates.gains):
                joint[key] = joint.get(key, 0.0) + max(gain, 0.0) / state.total
        existing = {codec.pack_values(rule.values) for rule in rules}
        best_key = None
        best_gain = 0.0
        for key, gain in joint.items():
            if key in existing:
                continue
            if gain > best_gain:
                best_key = key
                best_gain = gain
        return None if best_key is None else Rule(codec.unpack(best_key))
