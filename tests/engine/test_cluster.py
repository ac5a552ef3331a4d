"""Tests for the cluster context: stages, scheduling, broadcast, cache."""

import pytest

from repro.common.errors import EngineError
from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel


def make_cluster(**kwargs):
    spec_kwargs = {
        "num_executors": kwargs.pop("num_executors", 2),
        "cores_per_executor": kwargs.pop("cores_per_executor", 2),
        "executor_memory_bytes": kwargs.pop("executor_memory_bytes", 1 << 20),
        "straggler_sigma": kwargs.pop("straggler_sigma", 0.0),
    }
    cost = kwargs.pop("cost", None) or CostModel(
        op_seconds=1e-6,
        record_seconds=1e-4,
        task_launch_seconds=0.0,
        stage_overhead_seconds=0.0,
        shuffle_byte_seconds=1e-6,
        broadcast_byte_seconds=1e-6,
        disk_byte_seconds=1e-6,
    )
    return ClusterContext(ClusterSpec(**spec_kwargs), cost)


class TestRunStage:
    def test_outputs_preserve_partition_order(self):
        cluster = make_cluster()

        def kernel(tc, part):
            return part * 2

        result = cluster.run_stage(kernel, [1, 2, 3])
        assert result.outputs == [2, 4, 6]

    def test_empty_stage_is_free(self):
        cluster = make_cluster()
        result = cluster.run_stage(lambda tc, p: p, [])
        assert result.outputs == []
        assert cluster.metrics.simulated_seconds == 0.0

    def test_charges_are_recorded(self):
        cluster = make_cluster()

        def kernel(tc, part):
            tc.add_records(100)
            return None

        cluster.run_stage(kernel, [0])
        assert cluster.metrics.simulated_seconds == pytest.approx(100 * 1e-4)

    def test_shuffle_output_charged_when_requested(self):
        cluster = make_cluster()

        def kernel(tc, part):
            tc.add_output_bytes(1000)
            return None

        before = cluster.metrics.simulated_seconds
        cluster.run_stage(kernel, [0], shuffle_output=True)
        with_shuffle = cluster.metrics.simulated_seconds - before
        cluster.run_stage(kernel, [0], shuffle_output=False)
        without = cluster.metrics.simulated_seconds - before - with_shuffle
        assert with_shuffle > without
        assert cluster.metrics.counter("shuffle_bytes") == 1000

    def test_parallelism_shortens_makespan(self):
        serial = make_cluster(num_executors=1, cores_per_executor=1)
        parallel = make_cluster(num_executors=4, cores_per_executor=2)

        def kernel(tc, part):
            tc.add_records(1000)
            return None

        serial.run_stage(kernel, range(8))
        parallel.run_stage(kernel, range(8))
        assert parallel.metrics.simulated_seconds == pytest.approx(
            serial.metrics.simulated_seconds / 8
        )

    def test_stragglers_stretch_the_stage(self):
        fast = make_cluster(num_executors=4, straggler_sigma=0.0)
        slow = make_cluster(num_executors=4, straggler_sigma=0.5)

        def kernel(tc, part):
            tc.add_records(1000)
            return None

        fast.run_stage(kernel, range(16))
        slow.run_stage(kernel, range(16))
        assert slow.metrics.simulated_seconds > fast.metrics.simulated_seconds

    def test_task_counter(self):
        cluster = make_cluster()
        cluster.run_stage(lambda tc, p: p, range(5))
        assert cluster.metrics.counter("tasks") == 5
        assert cluster.metrics.counter("stages") == 1


class TestBroadcast:
    def test_value_accessible(self):
        cluster = make_cluster()
        handle = cluster.broadcast({"a": 1}, size_bytes=100)
        assert handle.value == {"a": 1}

    def test_cost_scales_with_receivers(self):
        two = make_cluster(num_executors=2)
        eight = make_cluster(num_executors=8)
        two.broadcast(None, 1000)
        eight.broadcast(None, 1000)
        assert eight.metrics.simulated_seconds == pytest.approx(
            7 * two.metrics.simulated_seconds
        )

    def test_single_executor_broadcast_free(self):
        cluster = make_cluster(num_executors=1)
        cluster.broadcast(None, 10_000)
        assert cluster.metrics.simulated_seconds == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(EngineError):
            make_cluster().broadcast(None, -1)


class TestCachedAccess:
    def test_miss_then_hit(self):
        cluster = make_cluster()

        def kernel(tc, part):
            tc.request_cache_access("p0", 500)
            return None

        first = cluster.run_stage(kernel, [0])
        second = cluster.run_stage(kernel, [0])
        # Accesses are deferred (in every execution mode) and replayed
        # by the driver, so the charge lands on the task context after
        # the kernel returns: a miss on the first stage, a hit next.
        assert [tc.disk_bytes for tc in first.tasks] == [500]
        assert [tc.disk_bytes for tc in second.tasks] == [0]

    def test_phase_attribution_through_stages(self):
        cluster = make_cluster()
        with cluster.phase("loading"):
            cluster.run_stage(lambda tc, p: tc.add_records(10), [0])
        assert cluster.metrics.phase("loading") > 0

    def test_reset_metrics_starts_fresh(self):
        cluster = make_cluster()
        cluster.run_stage(lambda tc, p: tc.add_records(10), [0])
        old = cluster.reset_metrics()
        assert old.simulated_seconds > 0
        assert cluster.metrics.simulated_seconds == 0.0


class _StubGrant:
    """Duck-typed budget grant (the cluster never imports the service)."""

    def __init__(self, granted):
        self.granted = granted
        self.releases = 0

    def release(self):
        self.releases += 1


class TestParallelismPrecedence:
    """Explicit argument > budget grant > serial default; the
    environment is not consulted."""

    def test_explicit_argument_beats_grant_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "8")
        cluster = ClusterContext(
            parallelism=5, budget_grant=_StubGrant(granted=2)
        )
        assert cluster.parallelism == 5
        cluster.close()

    def test_grant_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "8")
        cluster = ClusterContext(budget_grant=_StubGrant(granted=3))
        assert cluster.parallelism == 3
        cluster.close()

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "6")
        assert ClusterContext().parallelism == 1

    def test_close_releases_grant_once(self):
        grant = _StubGrant(granted=2)
        cluster = ClusterContext(budget_grant=grant)
        cluster.run_stage(lambda tc, p: p, range(4))
        cluster.close()
        cluster.close()
        assert grant.releases == 1

    def test_grant_released_even_with_explicit_override(self):
        # An explicit argument wins the degree, but the allocation is
        # still held and must still be returned on close.
        grant = _StubGrant(granted=2)
        with ClusterContext(parallelism=1, budget_grant=grant):
            pass
        assert grant.releases == 1
