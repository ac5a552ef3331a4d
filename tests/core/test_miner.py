"""Tests for the SIRUM mining driver and its variants."""

import numpy as np
import pytest

from repro.common.errors import DataError
from repro.core.config import SirumConfig, variant_config
from repro.core.divergence import kl_divergence
from repro.core.miner import Sirum, make_default_cluster, mine
from repro.core.rule import Rule, WILDCARD
from repro.data.generators import SyntheticSpec, generate

from .oracles import centralized_naive_rules


class TestWorkedExample:
    """The miner reproduces thesis Tables 1.1/1.2 end to end."""

    def test_flight_rules_match_table_1_2(self, flights):
        # With the full table as the pruning sample the search is
        # effectively exhaustive; rules 2-4 of Table 1.2 come out in
        # the thesis's order.
        result = mine(
            flights, k=3, variant="baseline", sample_size=14, seed=1
        )
        decoded = [mr.decode(flights) for mr in result.rule_set]
        assert decoded[0] == ("*", "*", "*")
        assert decoded[1] == ("*", "*", "London")
        assert set(decoded[2:]) == {("Fri", "*", "*"), ("Sat", "*", "*")}

    def test_k_rules_follow_the_root(self, flights):
        result = mine(flights, k=2, variant="baseline", sample_size=14)
        assert len(result.rule_set) == 3
        assert result.rule_set[0].rule.is_root()

    def test_rule_aggregates_match_table_1_2(self, flights):
        result = mine(
            flights, k=3, variant="baseline", sample_size=14, seed=1
        )
        root = result.rule_set[0]
        assert root.count == 14
        assert root.avg_measure == pytest.approx(145 / 14)
        london = result.find_rule((WILDCARD, WILDCARD,
                                   flights.encoder("Destination")
                                   .encode_existing("London")))
        assert london is not None
        assert london.count == 4
        assert london.avg_measure == pytest.approx(15.25)

    def test_kl_trace_is_monotone_decreasing(self, flights):
        result = mine(
            flights, k=3, variant="baseline", sample_size=14, seed=1
        )
        diffs = np.diff(result.kl_trace)
        assert np.all(diffs <= 1e-9)

    def test_information_gain_positive(self, flights):
        result = mine(flights, k=2, variant="baseline", sample_size=14)
        assert result.information_gain > 0


class TestVariantEquivalence:
    """All variants mine the same-quality rule sets (§4 optimizations
    are performance-only, except multi-rule which may differ)."""

    @pytest.mark.parametrize("variant", ["naive", "rct", "fastpruning",
                                         "fastancestor"])
    def test_single_rule_variants_match_baseline(self, small_gdelt, variant):
        base = mine(small_gdelt, k=4, variant="baseline",
                    sample_size=32, seed=5)
        other = mine(small_gdelt, k=4, variant=variant,
                     sample_size=32, seed=5)
        assert [m.rule for m in base.rule_set] == \
            [m.rule for m in other.rule_set]
        assert other.final_kl == pytest.approx(base.final_kl, rel=1e-6)

    def test_rct_estimates_match_baseline(self, small_gdelt):
        base = mine(small_gdelt, k=3, variant="baseline",
                    sample_size=16, seed=5)
        rct = mine(small_gdelt, k=3, variant="rct",
                   sample_size=16, seed=5)
        np.testing.assert_allclose(
            rct.estimates, base.estimates, rtol=0.02
        )

    def test_multirule_reaches_comparable_kl(self, small_gdelt):
        base = mine(small_gdelt, k=6, variant="baseline",
                    sample_size=32, seed=5)
        multi = mine(small_gdelt, k=6, variant="multirule",
                     sample_size=32, seed=5)
        # Multi-rule may pick slightly different rules; quality stays
        # in the same ballpark (thesis §4.4/§5.5 discussion).
        assert multi.final_kl <= base.kl_trace[0]
        assert multi.final_kl <= base.final_kl * 1.8 + 1e-9


#: Binary-measure tables for the [16] comparison: (row count,
#: cardinalities, planted rules, generator seed).
BINARY_TABLES = {
    "600x3": (600, [5, 4, 6], 3, 11),
    "400x4": (400, [3, 4, 3, 5], 2, 12),
    "800x2": (800, [8, 6], 2, 13),
}


def _binary_table(num_rows, cardinalities, num_planted_rules, seed):
    spec = SyntheticSpec(
        num_rows=num_rows,
        cardinalities=cardinalities,
        skew=0.6,
        num_planted_rules=num_planted_rules,
        planted_arity=2,
        measure_kind="binary",
        base_measure=0.25,
        effect_scale=3.0,
    )
    table, _ = generate(spec, seed=seed)
    return table


class TestNaiveMatchesCentralized:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", sorted(BINARY_TABLES))
    def test_matches_naive_sirum_rules(self, shape, seed):
        # Naive SIRUM is the distributed port of El Gebaly et al. [16]:
        # the same greedy choices on the same sample pick the same
        # rule list as the centralized loop.
        table = _binary_table(*BINARY_TABLES[shape])
        distributed = mine(table, k=3, variant="naive", sample_size=32,
                           seed=seed)
        assert [m.rule for m in distributed.rule_set] == \
            centralized_naive_rules(table, k=3, sample_size=32, seed=seed)

    def test_matches_on_a_longer_rule_list(self):
        table = _binary_table(*BINARY_TABLES["600x3"])
        distributed = mine(table, k=5, variant="naive", sample_size=32,
                           seed=0)
        assert [m.rule for m in distributed.rule_set] == \
            centralized_naive_rules(table, k=5, sample_size=32, seed=0)


class TestNaiveVariant:
    """Naive SIRUM on a binary measure, the setting of [16]."""

    def test_mines_k_rules_with_decreasing_kl(self):
        table = _binary_table(*BINARY_TABLES["600x3"])
        result = mine(table, k=4, variant="naive", sample_size=32, seed=1)
        assert len(result.rule_set) <= 5
        assert result.rule_set[0].rule.is_root()
        assert np.all(np.diff(result.kl_trace) <= 1e-9)

    def test_target_kl_extends_the_rule_list(self):
        table = _binary_table(*BINARY_TABLES["600x3"])
        full = mine(table, k=4, variant="naive", sample_size=32, seed=1)
        extended = mine(table, k=2, variant="naive", sample_size=32,
                        seed=1, target_kl=full.final_kl, max_rules=8)
        assert len(extended.rule_set) > 3
        assert extended.final_kl <= full.final_kl * 1.001
        assert [m.rule for m in extended.rule_set][:3] == \
            [m.rule for m in full.rule_set][:3]

    def test_information_gain_positive_on_binary_measure(self):
        table = _binary_table(*BINARY_TABLES["600x3"])
        result = mine(table, k=2, variant="naive", sample_size=16, seed=0)
        assert result.information_gain > 0


class TestMultiRule:
    def test_selects_disjoint_rules_within_iteration(self, small_gdelt):
        result = mine(small_gdelt, k=6, variant="multirule",
                      sample_size=32, seed=5, top_fraction=0.05)
        by_iteration = {}
        for mined in result.rule_set:
            by_iteration.setdefault(mined.iteration, []).append(mined.rule)
        for iteration, rules in by_iteration.items():
            if iteration == 0 or len(rules) < 2:
                continue
            for i, a in enumerate(rules):
                for b in rules[i + 1:]:
                    assert a.is_disjoint(b)

    def test_multirule_uses_fewer_iterations(self, small_gdelt):
        single = mine(small_gdelt, k=6, variant="baseline",
                      sample_size=32, seed=5)
        multi = mine(small_gdelt, k=6, variant="multirule",
                     sample_size=32, seed=5)
        single_iters = max(m.iteration for m in single.rule_set)
        multi_iters = max(m.iteration for m in multi.rule_set)
        assert multi_iters < single_iters


class TestTargetKl:
    def test_star_variant_keeps_adding_until_target(self, small_gdelt):
        base = mine(small_gdelt, k=6, variant="baseline",
                    sample_size=32, seed=5)
        star = mine(
            small_gdelt, k=6, variant="multirule", sample_size=32, seed=5,
            target_kl=base.final_kl, max_rules=30,
        )
        assert star.final_kl <= base.final_kl * 1.001

    def test_max_rules_caps_star_variant(self, small_gdelt):
        result = mine(
            small_gdelt, k=2, variant="baseline", sample_size=16, seed=5,
            target_kl=0.0, max_rules=4,
        )
        assert len(result.rule_set) - 1 <= 4


class TestSampleDataMode:
    def test_sirum_on_sample_data_evaluates_on_full(self, small_gdelt):
        full = mine(small_gdelt, k=3, variant="baseline",
                    sample_size=16, seed=5)
        sampled = mine(small_gdelt, k=3, variant="baseline",
                       sample_size=16, seed=5, sample_data_fraction=0.5)
        # Estimates are reported for the full table either way.
        assert sampled.estimates.shape == full.estimates.shape
        assert sampled.information_gain > 0
        # Mining a sample costs less simulated time.
        assert sampled.simulated_seconds < full.simulated_seconds

    def test_sampled_info_gain_close_to_full(self, small_gdelt):
        full = mine(small_gdelt, k=3, variant="baseline",
                    sample_size=16, seed=5)
        sampled = mine(small_gdelt, k=3, variant="baseline",
                       sample_size=16, seed=5, sample_data_fraction=0.6)
        assert sampled.information_gain >= 0.4 * full.information_gain


class TestPriorRules:
    def test_prior_rules_join_the_rule_set(self, flights):
        london = flights.encoder("Destination").encode_existing("London")
        prior = [Rule((WILDCARD, WILDCARD, london))]
        result = mine(flights, k=2, variant="baseline", sample_size=14,
                      seed=1, prior_rules=prior)
        assert result.rule_set[1].rule == prior[0]
        assert result.rule_set[1].iteration == 0

    def test_prior_rules_not_reselected(self, flights):
        london = flights.encoder("Destination").encode_existing("London")
        prior = [Rule((WILDCARD, WILDCARD, london))]
        result = mine(flights, k=2, variant="baseline", sample_size=14,
                      seed=1, prior_rules=prior)
        rules = [m.rule for m in result.rule_set]
        assert len(set(rules)) == len(rules)

    def test_prior_rule_covering_no_tuple_is_rejected(self, flights):
        with pytest.raises(DataError, match="cover at least one tuple"):
            mine(flights, k=1, variant="baseline", sample_size=14,
                 seed=1, prior_rules=[Rule((6, 6, 6))])

    @pytest.mark.parametrize("destination", ["London", "Frankfurt"])
    def test_estimates_satisfy_prior_rule_constraints(self, flights,
                                                      destination):
        # Prior rules are constraints of the maximum-entropy estimate
        # like mined ones: the estimates over each covered set average
        # to the measure's average there (thesis §5.6.2).
        code = flights.encoder("Destination").encode_existing(destination)
        prior = [Rule((WILDCARD, WILDCARD, code))]
        result = mine(flights, k=2, variant="baseline", sample_size=14,
                      seed=1, prior_rules=prior)
        epsilon = result.config.epsilon
        for mined in result.rule_set:
            mask = mined.rule.match_mask(flights)
            target = flights.measure[mask].mean()
            estimate = result.estimates[mask].mean()
            assert abs(target - estimate) <= epsilon * 3 * abs(target)


class TestSuppliedSample:
    """A caller-supplied pruning sample replaces the drawn one."""

    @pytest.mark.parametrize("variant", ["baseline", "optimized"])
    @pytest.mark.parametrize("row", [0, 5, 8])
    def test_rules_are_ancestors_of_the_sample(self, flights, variant, row):
        # Candidates are ancestors of LCA(s, D), so with s one tuple
        # every mined rule generalizes that tuple.
        sample = [flights.encoded_row(row)]
        result = Sirum(variant_config(variant, k=3, seed=0)).mine(
            flights, sample_rows=sample
        )
        assert len(result.rule_set) > 1
        for mined in result.rule_set:
            assert mined.rule.is_ancestor_of(Rule(sample[0]))

    def test_whole_table_sample_matches_drawn_whole_table(self, flights):
        rows = [flights.encoded_row(i) for i in range(len(flights))]
        supplied = Sirum(variant_config("baseline", k=3, seed=1)).mine(
            flights, sample_rows=rows
        )
        drawn = mine(flights, k=3, variant="baseline", sample_size=14,
                     seed=1)
        assert ([m.rule for m in supplied.rule_set]
                == [m.rule for m in drawn.rule_set])
        assert supplied.kl_trace == pytest.approx(drawn.kl_trace)


class TestExhaustiveMode:
    def test_exhaustive_picks_global_best(self, flights):
        result = mine(flights, k=1, variant="baseline", exhaustive=True)
        london = flights.encoder("Destination").encode_existing("London")
        assert result.rule_set[1].rule == Rule((WILDCARD, WILDCARD, london))


class TestCubeExplorationBaseline:
    """Sarawagi [29] as Figure 5.15 runs it: no candidate pruning, and
    every multiplier reset whenever a rule is added."""

    def _explore(self, table, k, **overrides):
        return mine(table, k=k, variant="baseline", exhaustive=True,
                    reset_lambdas=True, **overrides)

    def test_explores_with_prior_rules(self, flights):
        london = flights.encoder("Destination").encode_existing("London")
        prior = [Rule((WILDCARD, WILDCARD, london))]
        result = self._explore(flights, k=2, prior_rules=prior)
        rules = [m.rule for m in result.rule_set]
        assert prior[0] in rules
        assert len(rules) >= 3
        assert len(set(rules)) == len(rules)

    def test_reset_scaling_costs_more_iterations(self, flights):
        # Resetting repeats all prior scaling work for every new rule.
        reset = self._explore(flights, k=3)
        carried = mine(flights, k=3, variant="baseline", exhaustive=True)
        assert reset.scaling_iterations > carried.scaling_iterations

    def test_reset_reaches_the_same_kl(self, flights):
        reset = self._explore(flights, k=3)
        carried = mine(flights, k=3, variant="baseline", exhaustive=True)
        assert reset.final_kl == pytest.approx(carried.final_kl, rel=0.05)

    def test_kl_trace_decreases(self, flights):
        result = self._explore(flights, k=3)
        assert np.all(np.diff(result.kl_trace) <= 1e-9)

    def test_bad_prior_rule_rejected(self, flights):
        with pytest.raises(DataError, match="cover at least one tuple"):
            self._explore(flights, k=1, prior_rules=[Rule((6, 6, 6))])


def _driven_table(seed=7):
    """A numeric table whose measure is lifted by 25 where attr 1 is 0."""
    spec = SyntheticSpec(
        num_rows=1500,
        cardinalities=[5, 5, 5],
        skew=0.2,
        num_planted_rules=0,
        planted_arity=1,
        noise_scale=0.3,
        base_measure=10.0,
    )
    table, _ = generate(spec, seed=seed)
    measure = table.measure.copy()
    measure[table.dimension_columns()[1] == 0] += 25.0
    return table.with_measure(measure)


class TestNumericMeasure:
    def test_rules_bind_the_measure_driver(self):
        table = _driven_table()
        result = mine(table, k=2, variant="baseline", sample_size=32,
                      seed=2)
        assert any(m.rule.values[1] == 0 for m in result.rule_set[1:])

    def test_estimates_in_original_units(self):
        table = _driven_table()
        result = mine(table, k=2, variant="baseline", sample_size=32,
                      seed=2)
        assert result.estimates.mean() == \
            pytest.approx(table.measure.mean(), rel=0.05)

    def test_information_gain_positive(self):
        table = _driven_table()
        result = mine(table, k=2, variant="baseline", sample_size=32,
                      seed=2)
        assert result.information_gain > 0


class TestMetrics:
    def test_phases_are_populated(self, small_gdelt, cluster):
        result = mine(small_gdelt, k=2, variant="baseline",
                      sample_size=16, seed=5, cluster=cluster)
        for phase in ("load", "candidate_pruning", "ancestor_generation",
                      "gain", "iterative_scaling"):
            assert result.phase_seconds(phase) > 0, phase

    def test_deterministic_given_seed(self, small_gdelt):
        a = mine(small_gdelt, k=3, variant="optimized", sample_size=16, seed=9)
        b = mine(small_gdelt, k=3, variant="optimized", sample_size=16, seed=9)
        assert [m.rule for m in a.rule_set] == [m.rule for m in b.rule_set]
        assert a.simulated_seconds == pytest.approx(b.simulated_seconds)

    def test_reset_lambdas_is_slower_but_equivalent(self, small_gdelt):
        base = mine(small_gdelt, k=3, variant="baseline",
                    sample_size=16, seed=5)
        reset = mine(small_gdelt, k=3, variant="baseline",
                     sample_size=16, seed=5, reset_lambdas=True)
        assert reset.scaling_iterations > base.scaling_iterations
        assert reset.final_kl == pytest.approx(base.final_kl, rel=0.05)


class TestScalingBehaviour:
    def test_estimates_satisfy_rule_constraints(self, small_income):
        result = mine(small_income, k=4, variant="rct",
                      sample_size=32, seed=2)
        epsilon = result.config.epsilon
        for mined in result.rule_set:
            mask = mined.rule.match_mask(small_income)
            target = small_income.measure[mask].mean()
            estimate = result.estimates[mask].mean()
            if target != 0:
                assert abs(target - estimate) / abs(target) <= epsilon * 3
