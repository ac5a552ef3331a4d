"""Tests for the application layer (cube exploration, cleaning)."""

import numpy as np
import pytest

from repro.apps import (
    diagnose_dirty_records,
    explore_cube,
    group_by_rules,
    lowest_cardinality_dimensions,
)
from repro.common.errors import ConfigError, DataError
from repro.core.rule import Rule, WILDCARD
from repro.data.generators import SyntheticSpec, generate
from repro.data.schema import Schema
from repro.data.table import Table


class TestCubeExploration:
    def test_lowest_cardinality_dimensions(self, flights):
        # Day has 7 values, Origin 7, Destination 7 in the flight data;
        # synthesize a clearer case.
        spec = SyntheticSpec(
            num_rows=200, cardinalities=[2, 9, 4], num_planted_rules=1
        )
        table, _ = generate(spec, seed=0)
        dims = lowest_cardinality_dimensions(table, 2)
        assert dims == ["A0", "A2"]

    def test_too_many_dimensions_requested(self, flights):
        with pytest.raises(ConfigError):
            lowest_cardinality_dimensions(flights, 10)

    def test_group_by_rules_one_per_active_value(self, flights):
        rules = group_by_rules(flights, "Destination")
        assert len(rules) == flights.domain_size("Destination")
        for rule in rules:
            assert rule.num_bound == 1

    def test_explore_cube_excludes_prior_knowledge(self):
        spec = SyntheticSpec(
            num_rows=400, cardinalities=[3, 4, 5],
            num_planted_rules=3, effect_scale=20.0,
        )
        table, _ = generate(spec, seed=1)
        result = explore_cube(table, k=3, prior_dimensions=["A0"])
        prior = set(group_by_rules(table, "A0"))
        mined = [m for m in result.rule_set if m.iteration > 0]
        assert len(mined) >= 1
        for mined_rule in mined:
            assert mined_rule.rule not in prior

    def test_explore_cube_defaults_to_two_lowest_cardinality(self):
        spec = SyntheticSpec(
            num_rows=300, cardinalities=[2, 8, 3],
            num_planted_rules=2, effect_scale=15.0,
        )
        table, _ = generate(spec, seed=2)
        result = explore_cube(table, k=2)
        prior_rules = [m for m in result.rule_set if m.iteration == 0]
        # Root + the groups of the two smallest dimensions (2 + 3).
        assert len(prior_rules) == 1 + 2 + 3

    @pytest.mark.parametrize("dimension", ["Day", "Origin", "Destination"])
    def test_group_by_rules_partition_the_rows(self, flights, dimension):
        # The cells of one group-by are disjoint and cover every row.
        covered = np.zeros(len(flights), dtype=np.int64)
        for rule in group_by_rules(flights, dimension):
            covered += rule.match_mask(flights)
        assert (covered == 1).all()

    def test_explored_estimates_satisfy_prior_cells(self):
        # The analyst's group-by cells are constraints the estimate
        # keeps while new rules are added.
        spec = SyntheticSpec(
            num_rows=300, cardinalities=[2, 8, 3],
            num_planted_rules=2, effect_scale=15.0,
        )
        table, _ = generate(spec, seed=2)
        result = explore_cube(table, k=2)
        epsilon = result.config.epsilon
        for mined in result.rule_set:
            if mined.iteration != 0:
                continue
            mask = mined.rule.match_mask(table)
            target = table.measure[mask].mean()
            estimate = result.estimates[mask].mean()
            assert abs(target - estimate) <= epsilon * 3 * abs(target)


class TestCleaning:
    def _dirty_table(self):
        spec = SyntheticSpec(
            num_rows=1500,
            cardinalities=[6, 5, 4],
            skew=0.5,
            num_planted_rules=2,
            planted_arity=2,
            measure_kind="binary",
            base_measure=0.1,
            effect_scale=4.0,
            measure_name="IsDirty",
        )
        return generate(spec, seed=7)

    def test_finds_dirty_concentrations(self):
        table, _ = self._dirty_table()
        result, findings = diagnose_dirty_records(
            table, k=3, variant="baseline", sample_size=32
        )
        assert findings
        overall = table.measure_mean()
        # Findings are ordered by dirty-rate deviation.
        deviations = [abs(f.avg_measure - overall) for f in findings]
        assert deviations == sorted(deviations, reverse=True)

    def test_rejects_non_binary_measure(self, flights):
        with pytest.raises(DataError):
            diagnose_dirty_records(flights, k=2)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0])
    def test_rejects_any_non_binary_value(self, bad):
        schema = Schema(["source"], "is_dirty")
        rows = [("a", 0.0), ("b", 1.0), ("c", bad)]
        with pytest.raises(DataError, match="0/1 dirtiness"):
            diagnose_dirty_records(Table.from_rows(schema, rows), k=1)

    def test_findings_exclude_the_root_and_empty_rules(self):
        table, _ = self._dirty_table()
        result, findings = diagnose_dirty_records(
            table, k=3, variant="baseline", sample_size=32
        )
        assert result.rule_set[0].rule.is_root()
        assert all(not f.rule.is_root() and f.count > 0 for f in findings)
        assert len(findings) == len(result.rule_set) - 1

    def test_finding_rates_are_the_covered_dirty_rates(self):
        table, _ = self._dirty_table()
        _result, findings = diagnose_dirty_records(
            table, k=3, variant="baseline", sample_size=32
        )
        for finding in findings:
            mask = finding.rule.match_mask(table)
            assert finding.count == int(mask.sum())
            assert finding.avg_measure == pytest.approx(
                table.measure[mask].mean()
            )

    def test_finds_a_systematic_error(self):
        # Every dirty record comes from one feed and entry type; the
        # informative rules name that source (thesis §1, Table 1.5).
        rng = np.random.default_rng(0)
        rows = [("feed2", "auto", rng.choice(["a", "b", "c"]), 1.0)
                for _ in range(20)]
        rows += [(rng.choice(["feed1", "feed3"]),
                  rng.choice(["auto", "manual"]),
                  rng.choice(["a", "b", "c"]), 0.0)
                 for _ in range(60)]
        schema = Schema(["source", "entry_type", "category"], "is_dirty")
        table = Table.from_rows(schema, rows)
        _result, findings = diagnose_dirty_records(table, k=3)
        decoded = [finding.decode(table) for finding in findings]
        assert any("feed2" in values or "auto" in values
                   for values in decoded)
