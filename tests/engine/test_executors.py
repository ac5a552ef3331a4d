"""Executor conformance: one contract, every execution mode.

``ClusterContext.run_stage`` asks a single executor object for
``[(output, charges)]`` in partition order (``repro.engine.executors``).
Whatever runs the tasks — the driver thread, a thread or process pool,
per-slot pinned workers, remote shard workers — must be unobservable in
outputs, charges, failure semantics and cleanup.  Each test here runs
once per entry of ``tests.conftest.EXECUTION_MODES``.
"""

import threading
import time

import pytest

from repro.engine.cluster import ClusterContext
from tests.conftest import live_workers


def _charging_kernel(tc, part):
    """Finishes in *reverse* partition order; charges are per-partition."""
    time.sleep(0.002 * (5 - part))
    tc.add_records(10 * (part + 1))
    tc.request_cache_access(("seen", part), 100 * (part + 1))
    return part * 10


def _two_failures_kernel(tc, part):
    """Partitions 2 and 3 both fail; 3 fails first in wall time."""
    tc.request_cache_access(("doomed", part), 1000)
    if part == 2:
        time.sleep(0.05)
        raise ValueError("boom in partition 2")
    if part == 3:
        raise ValueError("boom in partition 3")
    tc.add_records(7)
    return part


def _closure_output_kernel(tc, part):
    """Picklable kernel whose *output* is not."""
    tc.add_records(1)
    return lambda part=part: part


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle _UnpicklableError")


def _unpicklable_failure_kernel(tc, part):
    if part == 1:
        raise _UnpicklableError("kernel failed on partition 1")
    return part


def _state(cluster):
    cache = cluster.cache
    return (cluster.metrics.snapshot(), cache.hits, cache.misses,
            cache.evictions, cache.cached_bytes)


class TestExecutorContract:
    def test_records_come_back_in_partition_order(self, execution_modes):
        cluster = execution_modes.cluster()
        result = cluster.run_stage(_charging_kernel, range(4))
        assert result.outputs == [0, 10, 20, 30]
        assert [tc.records for tc in result.tasks] == [10, 20, 30, 40]
        # Deferred cache accesses were replayed against the right task.
        assert [tc.disk_bytes for tc in result.tasks] == [100, 200, 300, 400]
        assert cluster.fallback_stages == 0

    def test_lowest_index_failure_propagates(self, execution_modes):
        cluster = execution_modes.cluster()
        with pytest.raises(ValueError, match="boom in partition 2"):
            cluster.run_stage(_two_failures_kernel, range(4))

    def test_aborted_stage_leaves_metrics_and_cache_untouched(
            self, execution_modes):
        cluster = execution_modes.cluster()
        cluster.run_stage(_charging_kernel, range(4))
        before = _state(cluster)
        with pytest.raises(ValueError):
            cluster.run_stage(_two_failures_kernel, range(4))
        assert _state(cluster) == before
        # The cluster stays usable, and the next stage sees the cache
        # exactly as the last *completed* stage left it (all hits).
        again = cluster.run_stage(_charging_kernel, range(4))
        assert [tc.disk_bytes for tc in again.tasks] == [0, 0, 0, 0]

    def test_unpicklable_kernel_falls_back_once(self, execution_modes):
        cluster = execution_modes.cluster()
        ran_in = set()

        def kernel(tc, part):  # a closure: cannot cross any boundary
            ran_in.add(threading.get_ident())
            tc.add_records(1)
            return part * 3

        result = cluster.run_stage(kernel, range(4))
        assert result.outputs == [0, 3, 6, 9]
        assert [tc.records for tc in result.tasks] == [1, 1, 1, 1]
        assert ran_in  # the closure really ran in this process
        assert cluster.fallback_stages == (1 if execution_modes.ships else 0)

    def test_unpicklable_output_falls_back_once(self, execution_modes):
        cluster = execution_modes.cluster()
        result = cluster.run_stage(_closure_output_kernel, range(4))
        assert [fn() for fn in result.outputs] == [0, 1, 2, 3]
        assert cluster.metrics.counter("tasks") == 4  # charged once
        assert cluster.fallback_stages == (1 if execution_modes.ships else 0)

    def test_unpicklable_exception_falls_back_once(self, execution_modes):
        # The thread rerun surfaces the kernel's own exception instead
        # of the transport's pickling error.
        cluster = execution_modes.cluster()
        before = _state(cluster)
        with pytest.raises(_UnpicklableError, match="partition 1"):
            cluster.run_stage(_unpicklable_failure_kernel, range(4))
        assert _state(cluster) == before
        assert cluster.fallback_stages == (1 if execution_modes.ships else 0)

    def test_close_is_idempotent_and_leaves_no_worker(self, execution_modes):
        before = live_workers()
        cluster = execution_modes.cluster()
        cluster.run_stage(_charging_kernel, range(4))
        cluster.run_stage(lambda tc, p: p, range(4))  # maybe a fallback
        cluster.close()
        cluster.close()
        assert live_workers() <= before
        # Closed is not dead: the next stage starts fresh workers.
        assert cluster.run_stage(_charging_kernel, range(4)).outputs == [
            0, 10, 20, 30,
        ]
        cluster.close()
        assert live_workers() <= before


class _RecordingGrant:
    """Budget-grant stand-in that notes who was alive at release."""

    def __init__(self, granted):
        self.granted = granted
        self.released = threading.Event()
        self.live_at_release = None

    def release(self):
        self.live_at_release = live_workers()
        self.released.set()


def _slow_kernel(tc, part):
    time.sleep(0.05)
    return part


class TestGrantOutlivesWorkers:
    """A budget grant is released only after the workers it paid for
    have joined — on ``close`` and when a cluster is simply dropped."""

    def test_close_joins_before_release(self):
        before = live_workers()
        grant = _RecordingGrant(granted=3)
        cluster = ClusterContext(budget_grant=grant, executor="thread")
        cluster.run_stage(_slow_kernel, range(3))
        assert live_workers() - before
        cluster.close()
        assert grant.released.is_set()
        assert grant.live_at_release <= before

    def test_leaked_cluster_joins_before_release(self):
        before = live_workers()
        grant = _RecordingGrant(granted=3)
        cluster = ClusterContext(budget_grant=grant, executor="thread")
        cluster.run_stage(_slow_kernel, range(3))
        assert live_workers() - before
        del cluster  # never closed: __del__ must drain, then release
        assert grant.released.wait(timeout=10.0)
        assert grant.live_at_release <= before
