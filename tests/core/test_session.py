"""Tests for the mining session (partitioned state)."""

import numpy as np
import pytest

from repro.common.errors import EngineError
from repro.core.miner import make_default_cluster
from repro.core.rule import Rule, WILDCARD
from repro.core.session import MiningSession
from repro.data.schema import Schema
from repro.data.table import Table


class TestPartitioning:
    def test_partitions_cover_table(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=4)
        rows = sum(p.num_rows for p in session.partitions)
        assert rows == 14
        assert session.num_partitions == 4

    def test_partition_count_capped_by_rows(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=100)
        assert session.num_partitions == 14

    def test_default_partitions_use_cluster_shape(self, flights, cluster):
        session = MiningSession(cluster, flights)
        expected = min(
            14,
            cluster.spec.num_executors * cluster.spec.cores_per_executor,
        )
        assert session.num_partitions == expected

    def test_empty_table_rejected(self, cluster):
        table = Table.from_rows(Schema(["a"], "m"), [])
        with pytest.raises(EngineError):
            MiningSession(cluster, table)

    def test_partition_columns_are_views(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=2)
        part = session.partitions[1]
        np.testing.assert_array_equal(
            part.columns[0],
            flights.dimension_column("Day")[part.start:part.stop],
        )


class TestStages:
    def test_run_over_data_collects_outputs(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=3)

        def kernel(tc, part):
            return part.num_rows

        stage = session.run_over_data(kernel)
        assert sum(stage.outputs) == 14

    def test_first_pass_charges_disk_then_cached(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=2)

        def kernel(tc, part):
            return part.num_rows

        first = session.run_over_data(kernel)
        second = session.run_over_data(kernel)
        assert sum(tc.disk_bytes for tc in first.tasks) > 0
        assert sum(tc.disk_bytes for tc in second.tasks) == 0

    def test_shuffle_data_charges_partition_bytes(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=2)
        session.run_over_data(lambda tc, p: None, shuffle_data=True)
        assert cluster.metrics.counter("shuffle_bytes") > 0

    def test_phase_attribution(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=2)
        session.run_over_data(
            lambda tc, p: tc.add_records(p.num_rows), phase="myphase"
        )
        assert cluster.metrics.phase("myphase") > 0


class TestRuleCoverage:
    def test_add_rule_extends_masks_and_bits(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=2)
        london = flights.encoder("Destination").encode_existing("London")
        session.add_rule_coverage(Rule.all_wildcards(3))
        session.add_rule_coverage(Rule((WILDCARD, WILDCARD, london)))
        assert len(session.masks) == 2
        assert session.bit_matrix.num_rules == 2
        assert session.masks[1].sum() == 4

    def test_charge_phase_meters_matching(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=2)
        session.add_rule_coverage(
            Rule.all_wildcards(3), charge_phase="iterative_scaling"
        )
        assert cluster.metrics.phase("iterative_scaling") > 0


class TestMeasureState:
    def test_transform_applied(self, cluster):
        table = Table.from_rows(
            Schema(["a"], "m"), [("x", -5.0), ("y", 5.0)]
        )
        session = MiningSession(cluster, table, num_partitions=1)
        assert np.all(session.measure >= 0)

    def test_estimates_start_at_one(self, flights, cluster):
        session = MiningSession(cluster, flights, num_partitions=1)
        np.testing.assert_array_equal(session.estimates, np.ones(14))


def _estimates_of_partition(tc, part, estimates):
    return float(estimates[part.start:part.stop].sum())


class TestProcessModeState:
    """With process children the session keeps plain arrays; a stage
    that binds them carries them as bytes in its batch."""

    def test_arrays_are_plain_and_blocks_are_views(self, flights):
        from repro.data.table import TableBlock

        with make_default_cluster(parallelism=2,
                                  executor="process") as cluster:
            session = MiningSession(cluster, flights, num_partitions=2)
            assert session.shared
            assert type(session.measure) is np.ndarray
            assert type(session.estimates) is np.ndarray
            assert all(isinstance(p, TableBlock)
                       for p in session.partitions)
            session.close()
            session.close()  # idempotent

    def test_children_see_in_place_estimate_updates(self, flights):
        from functools import partial

        with make_default_cluster(parallelism=2,
                                  executor="process") as cluster:
            session = MiningSession(cluster, flights, num_partitions=2)
            kernel = partial(_estimates_of_partition,
                             estimates=session.estimates)
            first = session.run_over_data(kernel).outputs
            session.estimates *= 3.0  # as iterative scaling does
            second = session.run_over_data(kernel).outputs
            session.close()
            assert cluster.fallback_stages == 0
        assert sum(first) == 14.0
        assert sum(second) == 42.0
        assert [3.0 * x for x in first] == second
