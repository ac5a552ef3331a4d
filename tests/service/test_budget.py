"""Tests for engine-worker budget admission (:mod:`repro.service.budget`).

Two layers: unit tests of :class:`EngineBudget`'s allocation mechanics
(clamping, degrade floor, FIFO blocking, re-expansion, timeout,
idempotent release), then service-level tests that the budget actually
governs concurrent mining jobs — the aggregate number of *live* engine
workers never exceeds ``max_engine_workers`` (counted by an
instrumented cluster), abort paths release their slots, and results
stay bit-identical when the budget forces serial execution.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import BudgetExhaustedError, ServiceError
from repro.core.miner import mine
from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel
from repro.service import EngineBudget, RuleMiningService, ServiceConfig
from repro.service.budget import default_max_engine_workers


class TestEngineBudgetUnit:
    def test_grant_clamps_to_free_slots(self):
        budget = EngineBudget(max_engine_workers=4)
        first = budget.acquire(3)
        assert (first.requested, first.granted) == (3, 3)
        assert not first.degraded
        second = budget.acquire(4)
        # One slot left: degrade to serial instead of blocking.
        assert (second.requested, second.granted) == (4, 1)
        assert second.degraded
        assert budget.in_use == 4 and budget.available == 0
        first.release()
        second.release()
        assert budget.in_use == 0

    @given(
        st.integers(1, 6), st.integers(0, 3),
        st.lists(st.tuples(st.booleans(), st.integers(0, 8)), max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_acquire_release_sequences_keep_the_books(self, cap, num_remote,
                                                      steps):
        """Any interleaving of ``acquire(requested)`` and ``release``,
        with and without spill capacity: the local count and the remote
        addresses always add up, and everything comes back."""
        remote = ["h%d:1" % i for i in range(num_remote)]
        budget = EngineBudget(max_engine_workers=cap, remote_workers=remote)
        live = []
        for acquire, n in steps:
            if acquire:
                try:
                    live.append(budget.acquire(n + 1, timeout=0))
                except BudgetExhaustedError:
                    # Nothing free on either side, and nothing held.
                    assert budget.available == 0
                    assert budget.stats()["remote_available"] == 0
            elif live:
                grant = live.pop(n % len(live))
                assert grant.release() is True
                before = budget.stats()
                assert grant.release() is False  # returns nothing twice
                assert budget.stats() == before
            stats = budget.stats()
            local = [g for g in live if not g.spilled]
            spilled = [g for g in live if g.spilled]
            assert budget.in_use + budget.available == cap
            assert budget.in_use == sum(g.granted for g in local)
            assert stats["peak_in_use"] <= cap
            held = [a for g in spilled for a in g.remote_addresses]
            assert len(held) == len(set(held))  # pairwise disjoint
            assert set(held) <= set(remote)
            assert all(len(g.remote_addresses) == g.granted
                       for g in spilled)
            assert stats["remote_in_use"] == len(held)
            assert stats["remote_available"] == num_remote - len(held)
        for grant in live:
            assert grant.release() is True
        stats = budget.stats()
        assert (stats["in_use"], stats["available"]) == (0, cap)
        assert stats["remote_available"] == num_remote
        assert stats["releases"] == stats["grants"]
        assert stats["waiting"] == 0

    def test_request_capped_by_capacity(self):
        budget = EngineBudget(max_engine_workers=2)
        grant = budget.acquire(8)
        # The request is recorded as asked; the grant cannot exceed
        # what exists, and the mismatch reads as degradation.
        assert (grant.requested, grant.granted) == (8, 2)
        assert grant.degraded

    def test_exhausted_budget_blocks_then_reexpands(self, deadline):
        budget = EngineBudget(max_engine_workers=4)
        holder = budget.acquire(4)
        got = []
        waiter = threading.Thread(
            target=lambda: got.append(budget.acquire(4)), daemon=True
        )
        waiter.start()
        while budget.waiting == 0:
            deadline.remaining()
        assert not got  # blocked: zero slots free
        holder.release()
        waiter.join(deadline.remaining())
        # The queued request re-expanded to its full degree against
        # the replenished pool, not the 0 slots it saw while waiting.
        assert got and got[0].granted == 4
        got[0].release()
        assert budget.in_use == 0

    def test_timeout_raises_and_holds_nothing(self):
        budget = EngineBudget(max_engine_workers=1)
        holder = budget.acquire(1)
        with pytest.raises(BudgetExhaustedError):
            budget.acquire(1, timeout=0.02)
        assert budget.waiting == 0
        assert budget.stats()["timeouts"] == 1
        holder.release()
        # The pool is intact: the next request is granted immediately.
        assert budget.acquire(1, timeout=0.02).granted == 1

    def test_release_is_idempotent(self):
        budget = EngineBudget(max_engine_workers=2)
        grant = budget.acquire(2)
        assert grant.release() is True
        assert grant.release() is False
        assert budget.in_use == 0
        assert budget.stats()["releases"] == 1

    def test_grant_context_manager_releases(self):
        budget = EngineBudget(max_engine_workers=2)
        with budget.acquire(2) as grant:
            assert budget.in_use == 2
        assert grant.released and budget.in_use == 0

    def test_validation(self):
        with pytest.raises(ServiceError):
            EngineBudget(max_engine_workers=0)
        with pytest.raises(ServiceError):
            EngineBudget(max_engine_workers=4).acquire(0)

    def test_default_capacity_is_host_width(self):
        assert EngineBudget().max_engine_workers == (
            default_max_engine_workers()
        )

    def test_stats_counters(self):
        budget = EngineBudget(max_engine_workers=4)
        a = budget.acquire(3)
        b = budget.acquire(2)
        stats = budget.stats()
        assert stats["grants"] == 2
        assert stats["degraded_grants"] == 1
        assert stats["peak_in_use"] == 4
        a.release()
        b.release()
        assert budget.stats()["releases"] == 2


class _WorkerGauge:
    """Counts engine kernels running concurrently, across all jobs."""

    def __init__(self):
        self._lock = threading.Lock()
        self.live = 0
        self.peak = 0

    def enter(self):
        with self._lock:
            self.live += 1
            self.peak = max(self.peak, self.live)

    def exit(self):
        with self._lock:
            self.live -= 1


class _InstrumentedCluster(ClusterContext):
    """A cluster whose kernels report into a shared live-worker gauge."""

    def __init__(self, gauge, **kwargs):
        super().__init__(**kwargs)
        self._gauge = gauge

    def run_stage(self, kernel, partitions, name="stage",
                  shuffle_output=False, on_driver=False):
        gauge = self._gauge

        def counting(tc, part):
            gauge.enter()
            try:
                return kernel(tc, part)
            finally:
                gauge.exit()

        return super().run_stage(
            counting, partitions, name=name, shuffle_output=shuffle_output,
            on_driver=on_driver,
        )


def _instrumented_factory(gauge, parallelism):
    spec = ClusterSpec(num_executors=2, cores_per_executor=2,
                       executor_memory_bytes=32 * 1024**2, seed=7)

    def factory(budget_grant=None):
        return _InstrumentedCluster(
            gauge, spec=spec, cost_model=CostModel(),
            parallelism=None if budget_grant is not None else parallelism,
            executor="thread", budget_grant=budget_grant,
        )

    return factory


MAX_WORKERS = 4
CONCURRENT_JOBS = 8


class TestServiceBudgetAdmission:
    def test_aggregate_live_workers_never_exceed_budget(self, flights):
        gauge = _WorkerGauge()
        service = RuleMiningService(
            ServiceConfig(
                num_workers=CONCURRENT_JOBS,
                engine_parallelism=4,
                max_engine_workers=MAX_WORKERS,
            ),
            make_cluster=_instrumented_factory(gauge, parallelism=4),
        )
        try:
            service.register_dataset("flights", flights)
            handles = [
                service.submit_mine("flights", k=3, sample_size=16, seed=s)
                for s in range(CONCURRENT_JOBS)  # distinct: no coalescing
            ]
            results = [h.result(60.0) for h in handles]
        finally:
            service.close()
        assert len(results) == CONCURRENT_JOBS
        # The instrumented gauge saw every kernel in every job: the
        # aggregate live degree stayed within the machine-wide budget.
        assert 0 < gauge.peak <= MAX_WORKERS
        stats = service.budget_stats()
        assert stats["peak_in_use"] <= MAX_WORKERS
        assert stats["grants"] == CONCURRENT_JOBS
        assert stats["in_use"] == 0 and stats["waiting"] == 0
        assert stats["releases"] == CONCURRENT_JOBS

    def test_job_metrics_record_granted_vs_requested(self, flights):
        with RuleMiningService(ServiceConfig(
            num_workers=1, engine_parallelism=4, max_engine_workers=1,
        )) as service:
            service.register_dataset("flights", flights)
            handle = service.submit_mine("flights", k=2, sample_size=16,
                                         seed=0)
            handle.result(60.0)
            metrics = handle.metrics()
            assert metrics.requested_parallelism == 4
            assert metrics.granted_parallelism == 1
            assert metrics.budget_wait_seconds >= 0.0
            snapshot = metrics.snapshot()
            assert snapshot["granted_parallelism"] == 1
            stats = service.stats()
            assert stats["budget"]["degraded_grants"] == 1
            assert "budget_wait" in stats["phase_seconds"]

    def test_sql_jobs_bypass_budget(self, flights):
        with RuleMiningService(ServiceConfig(
            num_workers=2, max_engine_workers=1,
        )) as service:
            service.register_dataset("flights", flights)
            handle = service.submit_query(
                "SELECT COUNT(*) AS n FROM flights"
            )
            assert handle.result(30.0).scalar() == len(flights)
            metrics = handle.metrics()
            assert metrics.granted_parallelism is None
            assert service.budget_stats()["grants"] == 0

    def test_failed_job_releases_slots(self, flights):
        exploded = []

        class ExplodingCluster(ClusterContext):
            def run_stage(self, kernel, partitions, **kwargs):
                if not exploded:
                    exploded.append(True)
                    raise RuntimeError("stage blew up")
                return super().run_stage(kernel, partitions, **kwargs)

        def factory(budget_grant=None):
            return ExplodingCluster(budget_grant=budget_grant)

        with RuleMiningService(ServiceConfig(
            num_workers=2, engine_parallelism=2, max_engine_workers=2,
        ), make_cluster=factory) as service:
            service.register_dataset("flights", flights)
            handle = service.submit_mine("flights", k=2, sample_size=16,
                                         seed=0)
            with pytest.raises(RuntimeError):
                handle.result(30.0)
            stats = service.budget_stats()
            assert stats["grants"] == 1
            assert stats["releases"] == 1
            assert stats["in_use"] == 0
            # The budget is intact: the next job runs normally.
            result = service.mine("flights", k=2, sample_size=16, seed=1,
                                  timeout=60.0)
            assert len(result.rule_set) > 0

    def test_aborted_stage_releases_slots(self):
        budget = EngineBudget(max_engine_workers=4)
        grant = budget.acquire(2)
        cluster = ClusterContext(budget_grant=grant)

        def failing_kernel(tc, part):
            raise RuntimeError("kernel abort")

        try:
            with pytest.raises(RuntimeError):
                cluster.run_stage(failing_kernel, range(4))
        finally:
            cluster.close()
        assert budget.in_use == 0
        assert budget.stats()["releases"] == 1

    def test_budget_forced_serial_is_bit_identical(self, flights):
        from repro.bench import mining_results_identical

        kwargs = dict(k=3, variant="optimized", sample_size=16, seed=0)
        reference = mine(flights, parallelism=1, **kwargs)
        with RuleMiningService(ServiceConfig(
            num_workers=2, engine_parallelism=4, max_engine_workers=1,
        )) as service:
            service.register_dataset("flights", flights)
            degraded = service.mine("flights", timeout=60.0, **kwargs)
        # Rules, lambdas, estimates, KL trace and every simulated
        # metric: the budget-degraded run is indistinguishable from
        # serial in everything but wall-clock.
        assert mining_results_identical(reference, degraded)

    def test_custom_factory_must_accept_grant_under_budget(self):
        with pytest.raises(ServiceError):
            RuleMiningService(
                ServiceConfig(num_workers=1),
                make_cluster=lambda: ClusterContext(),
            )

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_engine_workers=0)
        with pytest.raises(ServiceError):
            ServiceConfig(budget_wait_seconds=0)

    def test_budget_wait_timeout_surfaces_to_caller(self, deadline):
        budget_holder = threading.Event()
        release_holder = threading.Event()

        def blocking_factory(budget_grant=None):
            # First job: hold the only slot until the test says go.
            budget_holder.set()
            release_holder.wait(30.0)
            return ClusterContext(budget_grant=budget_grant)

        with RuleMiningService(ServiceConfig(
            num_workers=2, max_engine_workers=1,
            budget_wait_seconds=0.05,
        ), make_cluster=blocking_factory) as service:
            from repro.data.generators import flight_table

            service.register_dataset("flights", flight_table())
            first = service.submit_mine("flights", k=2, sample_size=16,
                                        seed=0)
            assert budget_holder.wait(deadline.remaining())
            second = service.submit_mine("flights", k=2, sample_size=16,
                                         seed=1)
            with pytest.raises(BudgetExhaustedError):
                second.result(deadline.remaining())
            release_holder.set()
            first.result(deadline.remaining())
        assert service.budget_stats()["in_use"] == 0


class TestRemoteSpill:
    """Budget grants spanning hosts: spill onto shard workers."""

    def test_local_capacity_is_preferred(self):
        budget = EngineBudget(max_engine_workers=2,
                              remote_workers=["h1:1", "h2:2"])
        grant = budget.acquire(2)
        assert not grant.spilled
        assert grant.remote_addresses == ()
        assert budget.stats()["remote_in_use"] == 0
        grant.release()

    def test_exhausted_local_pool_spills_to_remote(self):
        budget = EngineBudget(max_engine_workers=2,
                              remote_workers=["h1:1", "h2:2", "h3:3"])
        local = budget.acquire(2)
        spilled = budget.acquire(2)
        assert spilled.spilled
        assert spilled.granted == 2
        assert spilled.remote_addresses == ("h1:1", "h2:2")
        stats = budget.stats()
        assert stats["remote_workers"] == 3
        assert stats["remote_in_use"] == 2
        assert stats["remote_available"] == 1
        assert stats["spilled_grants"] == 1
        spilled.release()
        assert budget.stats()["remote_in_use"] == 0
        # Released workers come back in configured order: the next
        # spill gets the same ones, whose block caches are warm.
        again = budget.acquire(3)
        assert again.remote_addresses == ("h1:1", "h2:2", "h3:3")
        again.release()
        local.release()

    def test_spilled_grant_clamps_to_free_remote_workers(self):
        budget = EngineBudget(max_engine_workers=1,
                              remote_workers=["h1:1"])
        local = budget.acquire(1)
        spilled = budget.acquire(4)
        assert spilled.spilled
        assert spilled.granted == 1
        assert spilled.degraded
        local.release()
        spilled.release()

    def test_no_remote_workers_means_blocking_as_before(self):
        budget = EngineBudget(max_engine_workers=1)
        hold = budget.acquire(1)
        with pytest.raises(BudgetExhaustedError):
            budget.acquire(1, timeout=0.05)
        hold.release()

    def test_spilled_job_runs_remote_and_matches_local(self, flights):
        # With the whole local pool held, a submitted job *must* spill
        # onto the shard worker — and produce bit-identical results.
        from repro.net.worker import ShardWorker

        reference = mine(flights, k=3, sample_size=16, seed=0,
                         variant="optimized", parallelism=1)
        with ShardWorker() as worker:
            config = ServiceConfig(
                num_workers=2, engine_parallelism=1,
                max_engine_workers=1,
                shard_workers=[worker.address],
            )
            service = RuleMiningService(config)
            try:
                service.register_dataset("flights", flights)
                hold = service._budget.acquire(1)
                try:
                    result = service.mine(
                        "flights", k=3, sample_size=16, seed=0,
                        variant="optimized",
                    )
                finally:
                    hold.release()
                stats = service.stats()
                worker_stages = worker.stats()["stages"]
            finally:
                service.close()
        assert [tuple(m.rule.values) for m in reference.rule_set] == [
            tuple(m.rule.values) for m in result.rule_set
        ]
        assert reference.kl_trace == result.kl_trace
        budget = stats["budget"]
        assert budget["remote_workers"] == 1
        assert budget["spilled_grants"] == 1
        assert worker_stages > 0


class TestPlatformJobsRunWhereTheGrantSays:
    """A ``platform=`` sim changes the cost regime, not where stages
    run: the grant and the configured executor decide that, through the
    same mapping a plain job uses."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``(cluster, kwargs)`` ``make_platform_cluster`` built."""
        import repro.platforms.base as base

        clusters = []
        real = base.make_platform_cluster

        def recording(name, **kwargs):
            cluster = real(name, **kwargs)
            clusters.append((cluster, kwargs))
            return cluster

        monkeypatch.setattr(base, "make_platform_cluster", recording)
        return clusters

    def test_spilled_platform_job_runs_on_its_remote_workers(
            self, flights, built):
        from repro.net.worker import ShardWorker

        kwargs = dict(k=3, sample_size=16, variant="optimized",
                      platform="spark", timeout=60.0)
        with ShardWorker() as worker:
            with RuleMiningService(ServiceConfig(
                num_workers=2, engine_parallelism=2, max_engine_workers=1,
                shard_workers=[worker.address],
            )) as service:
                service.register_dataset("flights", flights)
                local = service.mine("flights", seed=0, **kwargs)
                # Another job holds the whole local pool: the next one
                # must spill.
                hold = service._budget.acquire(1)
                try:
                    spilled = service.mine("flights", seed=1, **kwargs)
                finally:
                    hold.release()
                stats = service.stats()["budget"]
                worker_stages = worker.stats()["stages"]
        (first, _), (second, second_kwargs) = built
        assert (first.executor, first.workers) == ("thread", [])
        grant = second_kwargs["budget_grant"]
        assert grant.spilled and stats["spilled_grants"] == 1
        assert second.executor == "remote"
        assert second.workers == list(grant.remote_addresses)
        assert second.workers == [worker.address]
        assert worker_stages > 0
        assert stats["remote_in_use"] == 0 and stats["in_use"] == 0
        assert len(local.rule_set) > 0 and len(spilled.rule_set) > 0

    def test_remote_service_runs_platform_jobs_on_its_fleet(
            self, flights, built):
        import numpy as np

        from repro.net.worker import ShardWorker

        kwargs = dict(k=3, sample_size=16, seed=0, variant="optimized",
                      timeout=60.0)
        with ShardWorker() as worker:
            with RuleMiningService(ServiceConfig(
                num_workers=1, engine_executor="remote",
                shard_workers=[worker.address],
            )) as service:
                service.register_dataset("flights", flights)
                plain = service.mine("flights", **kwargs)
                metered = service.mine("flights", platform="spark",
                                       **kwargs)
        (cluster, _), = built
        assert cluster.executor == "remote"
        assert cluster.workers == [worker.address]
        # Same rules, lambdas, estimates and KL trace; the simulated
        # seconds differ — that is what a platform sim is for.
        assert [tuple(m.rule.values) for m in plain.rule_set] == [
            tuple(m.rule.values) for m in metered.rule_set
        ]
        assert np.array_equal(plain.lambdas, metered.lambdas)
        assert np.array_equal(plain.estimates, metered.estimates)
        assert plain.kl_trace == metered.kl_trace
