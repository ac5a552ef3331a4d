"""Executor conformance: one contract, every execution mode.

``ClusterContext.run_stage`` asks a single executor object for
``[(output, charges)]`` in partition order (``repro.engine.executors``).
Whatever runs the tasks — the driver thread, a thread or process pool,
remote shard workers — must be unobservable in outputs, charges,
failure semantics and cleanup.  The contract tests run once per entry
of ``tests.conftest.EXECUTION_MODES``; the process executor's batching
(one message per worker per stage) and its survival of a dead child
are pinned after them.
"""

import functools
import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cluster import ClusterContext
from repro.engine.executors import ProcessPool
from tests.conftest import child_pids, live_workers


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


class _Unpicklable:
    """A task output that cannot cross a process boundary."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Unpicklable) and other.value == self.value

    def __reduce__(self):
        raise TypeError("cannot pickle _Unpicklable")


def _scripted_kernel(failing, unpicklable, slow, tc, part):
    """Fails on ``failing``, returns an unpicklable on ``unpicklable``,
    dawdles on ``slow``; charges are per-partition."""
    tc.add_records(part + 1)
    tc.request_cache_access(("scripted", part), 10 * (part + 1))
    if part in slow:
        time.sleep(0.05)
    if part in failing:
        raise ValueError("boom in partition %d" % part)
    if part == unpicklable:
        return _Unpicklable(part)
    return part * 3


def _outcome(cluster, kernel, n):
    """What a caller of ``run_stage`` can observe, as one value."""
    try:
        result = cluster.run_stage(kernel, range(n))
    except ValueError as exc:
        return "raised", str(exc), _state(cluster)
    return ("returned", result.outputs,
            [(tc.records, tc.disk_bytes) for tc in result.tasks],
            _state(cluster))


class _LendingGrant:
    """Duck-typed local budget grant: a degree and a lent process pool."""

    def __init__(self, granted, process_pool):
        self.granted = granted
        self.process_pool = process_pool

    def release(self):
        pass


class TestProcessBatches:
    """A process stage is ``min(width, partitions)`` contiguous batches;
    none of that may show."""

    def test_any_script_matches_the_serial_executor(self):
        pool = ProcessPool(6)  # one set of children for every example

        @settings(max_examples=60, deadline=None)
        @given(
            n=st.integers(1, 40), width=st.integers(1, 6),
            failing=st.sets(st.integers(0, 39), max_size=3),
            unpicklable=st.none() | st.integers(0, 39),
        )
        def check(n, width, failing, unpicklable):
            kernel = functools.partial(
                _scripted_kernel, frozenset(failing), unpicklable, ()
            )
            with ClusterContext(parallelism=1) as serial:
                expected = _outcome(serial, kernel, n)
            grant = _LendingGrant(width, pool)
            with ClusterContext(executor="process",
                                budget_grant=grant) as cluster:
                assert _outcome(cluster, kernel, n) == expected
                if unpicklable is None or unpicklable >= n:
                    assert cluster.fallback_stages == 0  # as serial
                elif not failing and cluster.uses_processes and n > 1:
                    assert cluster.fallback_stages == 1
                else:
                    assert cluster.fallback_stages <= 1

        try:
            check()
        finally:
            pool.shutdown()

    def test_failures_in_two_batches_surface_the_lower_index(self):
        # Width 2 over 8 partitions: batches [0..3] and [4..7].  The
        # failure in the second batch happens first in wall time.
        kernel = functools.partial(
            _scripted_kernel, frozenset({1, 5}), None, (1,)
        )
        with ClusterContext(parallelism=2, executor="process") as cluster:
            with pytest.raises(ValueError, match="boom in partition 1"):
                cluster.run_stage(kernel, range(8))
            assert cluster.fallback_stages == 0

    def test_fewer_partitions_than_workers(self):
        kernel = functools.partial(_scripted_kernel, frozenset(), None, ())
        with ClusterContext(parallelism=6, executor="process") as cluster:
            result = cluster.run_stage(kernel, range(3))
            assert result.outputs == [0, 3, 6]
            assert [tc.records for tc in result.tasks] == [1, 2, 3]
            assert cluster.fallback_stages == 0


def _suicidal_kernel(driver_pid, tc, part):
    """Kills whatever *child* runs partition 1; harmless on the driver,
    so the thread rerun survives."""
    if part == 1 and os.getpid() != driver_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    tc.add_records(1)
    return part * 2


def _pid_kernel(tc, part):
    return os.getpid()


def _long_kernel(tc, part):
    time.sleep(0.5)
    return part


class TestDeadPoolChild:
    """A child that dies costs the stage a rerun on threads and is
    replaced alone — not the cluster its process pool, not a sibling
    its pid, not another cluster its stage."""

    def test_stage_reruns_and_the_next_one_is_on_processes_again(self):
        before = child_pids()
        with ClusterContext(parallelism=2, executor="process") as cluster:
            kernel = functools.partial(_suicidal_kernel, os.getpid())
            result = cluster.run_stage(kernel, range(4))
            assert result.outputs == [0, 2, 4, 6]
            assert [tc.records for tc in result.tasks] == [1, 1, 1, 1]
            assert cluster.fallback_stages == 1
            ran_in = set(cluster.run_stage(_pid_kernel, range(4)).outputs)
            assert os.getpid() not in ran_in
            assert ran_in <= child_pids() - before
            assert cluster.fallback_stages == 1
        assert child_pids() <= before

    def test_child_killed_while_idle(self):
        with ClusterContext(parallelism=2, executor="process") as cluster:
            first = set(cluster.run_stage(_pid_kernel, range(4)).outputs)
            os.kill(min(first), signal.SIGKILL)
            time.sleep(0.2)  # let the pool notice with nothing in flight
            assert cluster.run_stage(_charging_kernel, range(4)).outputs == [
                0, 10, 20, 30,
            ]
            assert cluster.fallback_stages == 1
            second = set(cluster.run_stage(_pid_kernel, range(4)).outputs)
            assert os.getpid() not in second and len(second) == 2
            # The survivor kept its pid; only the dead one is new.
            assert second & first == first - {min(first)}
            assert cluster.fallback_stages == 1

    def test_a_death_costs_only_its_own_stage(self):
        # Four children, two stages of width 2 in flight at once: one
        # dawdles on its two children while the other kills one of its
        # own.  Only the victim's stage reruns on threads.
        pool = ProcessPool(4)
        try:
            grant = _LendingGrant(2, pool)
            victim, bystander = (
                ClusterContext(executor="process", budget_grant=grant)
                for _ in range(2)
            )
            in_flight = threading.Event()
            outputs = {}

            def dawdle():
                in_flight.set()
                outputs["bystander"] = bystander.run_stage(
                    _long_kernel, range(4)).outputs

            thread = threading.Thread(target=dawdle)
            thread.start()
            assert in_flight.wait(timeout=10.0)
            time.sleep(0.3)  # the bystander's batches are running
            kernel = functools.partial(_suicidal_kernel, os.getpid())
            outputs["victim"] = victim.run_stage(kernel, range(4)).outputs
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert outputs == {"victim": [0, 2, 4, 6],
                               "bystander": [0, 1, 2, 3]}
            assert (victim.fallback_stages, bystander.fallback_stages) == (
                1, 0)
            assert pool.restarts == 0  # replaced at the next stage
            for cluster in (victim, bystander):
                assert os.getpid() not in set(
                    cluster.run_stage(_pid_kernel, range(4)).outputs
                )
                cluster.close()
            assert pool.restarts == 1
        finally:
            pool.shutdown()
        pool.shutdown()  # idempotent
