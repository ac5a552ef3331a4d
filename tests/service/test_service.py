"""Tests for the RuleMiningService façade.

Concurrency invariants under test: concurrent submits return exactly
the results serial execution returns, duplicate in-flight requests
coalesce onto one execution, cached results invalidate when a dataset
is re-registered, and overload surfaces as typed errors.
"""

import threading

import pytest

from repro.bench.harness import (
    build_service_workload,
    run_serial_reference,
    run_service_workload,
    service_results_match,
)
from repro.common.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from repro.core.miner import mine
from repro.service import (
    Job,
    RuleMiningService,
    ServiceConfig,
    mining_fingerprint,
    sql_fingerprint,
)


@pytest.fixture
def service(flights):
    svc = RuleMiningService(ServiceConfig(num_workers=4))
    svc.register_dataset("flights", flights)
    yield svc
    svc.close()


def block_all_workers(svc, deadline):
    """Occupy every worker so subsequent submissions stay queued."""
    release = threading.Event()
    gates = []
    for _ in range(svc.config.num_workers):
        gate = threading.Event()

        def blocker(gate=gate):
            gate.set()
            release.wait(30.0)

        svc._scheduler.submit(Job(blocker, label="blocker"))
        gates.append(gate)
    for gate in gates:
        assert gate.wait(deadline.remaining())
    return release


class TestBasics:
    def test_mine_matches_direct_miner(self, service, flights, deadline):
        direct = mine(flights, k=2, variant="optimized", sample_size=8,
                      seed=1)
        served = service.mine(
            "flights", timeout=deadline.remaining(), k=2,
            variant="optimized", sample_size=8, seed=1,
        )
        assert service_results_match([direct], [served])

    def test_query_matches_direct_engine(self, service, flights, deadline):
        sql = ("SELECT Destination, COUNT(*) AS c FROM flights "
               "GROUP BY Destination ORDER BY c DESC")
        from repro.sql import SqlEngine

        engine = SqlEngine()
        engine.register_table("flights", flights)
        assert service.query(
            sql, timeout=deadline.remaining()
        ).rows == engine.query(sql).rows

    def test_sql_architecture_miner(self, service, flights, deadline):
        from repro.platforms.sql_sirum import SqlSirum

        direct = SqlSirum(k=2).mine(flights)
        served = service.mine(
            "flights", timeout=deadline.remaining(), k=2, engine="sql",
        )
        assert [tuple(m.rule.values) for m in served.rule_set] == [
            tuple(m.rule.values) for m in direct.rule_set
        ]

    def test_platform_metered_mining(self, service, deadline):
        # Platform sims change metered cost, never the mined rules.
        spark = service.mine(
            "flights", timeout=deadline.remaining(), k=2,
            variant="baseline", sample_size=8,
        )
        postgres = service.mine(
            "flights", timeout=deadline.remaining(), k=2,
            variant="baseline", sample_size=8, platform="postgres",
        )
        assert [tuple(m.rule.values) for m in postgres.rule_set] == [
            tuple(m.rule.values) for m in spark.rule_set
        ]
        # Distinct fingerprints: the platform run was not a cache hit.
        assert postgres.metrics["simulated_seconds"] != \
            spark.metrics["simulated_seconds"]

    def test_unknown_dataset_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown dataset"):
            service.submit_mine("nope")

    def test_unknown_engine_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown mining engine"):
            service.submit_mine("flights", engine="quantum")


class TestConcurrentEqualsSerial:
    def test_eight_clients_bit_identical_to_serial(self, flights, deadline):
        requests = build_service_workload(
            "flights", list(flights.schema.dimensions),
            flights.schema.measure, num_requests=24, k=2, sample_size=8,
            seed=0,
        )
        serial = run_serial_reference(flights, "flights", requests)
        with RuleMiningService(ServiceConfig(num_workers=4)) as svc:
            svc.register_dataset("flights", flights)
            concurrent = run_service_workload(
                svc, "flights", requests, num_clients=8,
                timeout=deadline.remaining(),
            )
            stats = svc.stats()
        assert service_results_match(serial["results"],
                                     concurrent["results"])
        # The repeated script must not re-execute every request.
        assert stats["jobs"]["completed"] < len(requests)
        assert stats["cache"]["hits"] + stats["coalesce_hits"] > 0


class TestCoalescing:
    def test_duplicate_inflight_requests_share_one_execution(
            self, service, deadline):
        release = block_all_workers(service, deadline)
        try:
            first = service.submit_mine("flights", k=2, sample_size=8)
            second = service.submit_mine("flights", k=2, sample_size=8)
            third = service.submit_query("SELECT COUNT(*) FROM flights")
            fourth = service.submit_query(
                "select   count( * )\nfrom flights"  # canonicalizes equal
            )
            assert not first.coalesced
            assert second.coalesced
            assert not third.coalesced
            assert fourth.coalesced
        finally:
            release.set()
        assert service_results_match(
            [first.result(deadline.remaining())],
            [second.result(deadline.remaining())],
        )
        assert third.result(deadline.remaining()).rows == fourth.result(
            deadline.remaining()
        ).rows
        stats = service.stats()
        assert stats["coalesce_hits"] == 2
        # One mining + one SQL execution for four submissions.
        assert stats["jobs"]["completed"] == 2

    def test_completed_requests_hit_the_cache_not_coalescing(
            self, service, deadline):
        first = service.submit_mine("flights", k=2, sample_size=8)
        first.result(deadline.remaining())
        second = service.submit_mine("flights", k=2, sample_size=8)
        assert second.cache_hit
        assert second.metrics().cache_hit
        assert second.result(deadline.remaining()) is first.result(
            deadline.remaining()
        )

    def test_different_configs_do_not_coalesce(self, service, deadline):
        release = block_all_workers(service, deadline)
        try:
            a = service.submit_mine("flights", k=2, sample_size=8)
            b = service.submit_mine("flights", k=3, sample_size=8)
            assert not b.coalesced
        finally:
            release.set()
        a.result(deadline.remaining())
        b.result(deadline.remaining())


class TestVersionInvalidation:
    def test_reregistration_invalidates_cached_results(
            self, flights, deadline):
        from repro.data.generators import SyntheticSpec, generate

        other, _ = generate(SyntheticSpec(
            num_rows=120, cardinalities=[3, 4], measure_kind="numeric",
        ), seed=5)
        with RuleMiningService(ServiceConfig(num_workers=2)) as svc:
            svc.register_dataset("d", flights)
            before = svc.mine("d", timeout=deadline.remaining(), k=2,
                              sample_size=8)
            svc.register_dataset("d", other)
            after = svc.mine("d", timeout=deadline.remaining(), k=2,
                             sample_size=8)
            stats = svc.stats()
        # The second mine must re-execute against the new table, not
        # serve the old version's cached result.
        assert not service_results_match([before], [after])
        assert stats["jobs"]["completed"] == 2
        assert stats["cache"]["hits"] == 0

    def test_sql_results_invalidate_on_any_registration(
            self, flights, deadline):
        with RuleMiningService(ServiceConfig(num_workers=2)) as svc:
            svc.register_dataset("flights", flights)
            sql = "SELECT COUNT(*) AS c FROM flights"
            svc.query(sql, timeout=deadline.remaining())
            svc.register_dataset("flights", flights.slice(0, 10))
            count = svc.query(sql, timeout=deadline.remaining()).scalar()
            assert count == 10

    def test_inflight_result_from_old_version_is_not_cached(
            self, flights, deadline):
        with RuleMiningService(ServiceConfig(num_workers=1)) as svc:
            svc.register_dataset("d", flights)
            release = block_all_workers(svc, deadline)
            try:
                stale = svc.submit_mine("d", k=2, sample_size=8)
                svc.register_dataset("d", flights.slice(0, 12))
            finally:
                release.set()
            stale.result(deadline.remaining())  # computed from old table
            fresh = svc.submit_mine("d", k=2, sample_size=8)
            assert not fresh.cache_hit  # the stale result was not filed
            fresh.result(deadline.remaining())


class TestOverloadAndLifecycle:
    def test_queue_overflow_raises_typed_error(self, flights, deadline):
        svc = RuleMiningService(ServiceConfig(
            num_workers=1, max_queue_depth=1,
        ))
        try:
            svc.register_dataset("flights", flights)
            release = block_all_workers(svc, deadline)
            try:
                svc.submit_mine("flights", k=2, sample_size=8)
                with pytest.raises(QueueFullError):
                    svc.submit_mine("flights", k=3, sample_size=8)
                assert svc.stats()["queue"]["rejections"] == 1
            finally:
                release.set()
        finally:
            svc.close()

    def test_queued_job_past_deadline_fails_typed(self, flights, deadline):
        import time

        svc = RuleMiningService(ServiceConfig(num_workers=1))
        try:
            svc.register_dataset("flights", flights)
            release = block_all_workers(svc, deadline)
            try:
                doomed = svc.submit_mine(
                    "flights", k=2, sample_size=8, deadline_seconds=0.01,
                )
                time.sleep(0.05)
            finally:
                release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(deadline.remaining())
            assert svc.stats()["jobs"]["failed"] == 1
        finally:
            svc.close()

    def test_closed_service_rejects_submissions(self, flights):
        svc = RuleMiningService(ServiceConfig(num_workers=1))
        svc.register_dataset("flights", flights)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit_mine("flights")

    def test_failed_jobs_are_not_cached(self, service, deadline):
        bad = "SELECT nope FROM flights"
        from repro.sql.errors import SqlAnalysisError

        with pytest.raises(SqlAnalysisError):
            service.query(bad, timeout=deadline.remaining())
        with pytest.raises(SqlAnalysisError):
            service.query(bad, timeout=deadline.remaining())
        stats = service.stats()
        assert stats["jobs"]["failed"] == 2
        assert stats["cache"]["hits"] == 0


class TestFingerprints:
    def test_sql_fingerprint_canonicalizes_spelling(self):
        assert sql_fingerprint(
            "select a,  b from t where x=1"
        ) == sql_fingerprint("SELECT a, b FROM t WHERE x = 1")

    def test_sql_fingerprint_distinguishes_semantics(self):
        assert sql_fingerprint("SELECT a FROM t") != sql_fingerprint(
            "SELECT b FROM t"
        )

    def test_mining_fingerprint_resolves_variant_presets(self):
        assert mining_fingerprint(
            variant="rct", k=3
        ) == mining_fingerprint(variant="baseline", use_rct=True, k=3)

    def test_mining_fingerprint_distinguishes_k(self):
        assert mining_fingerprint(k=3) != mining_fingerprint(k=4)


class TestStats:
    def test_stats_shape(self, service, deadline):
        service.mine("flights", timeout=deadline.remaining(), k=2,
                     sample_size=8)
        stats = service.stats()
        assert stats["jobs"]["submitted"] == 1
        assert stats["jobs"]["completed"] == 1
        assert stats["queue"]["workers"] == 4
        assert stats["phase_seconds"]["execute"] > 0.0
        assert "queue_wait" in stats["phase_seconds"]
        assert stats["datasets"] == {"flights": 1}
        assert stats["cache"]["max_size"] == 256
        # No registered dataset is file-backed, so no pool to report —
        # but the process-local attachment-cache counters always are.
        assert stats["buffer_pool"]["attached"] is False
        attachments = stats["buffer_pool"]["attachments"]
        for field in ("handle_hits", "handle_misses"):
            assert attachments[field] >= 0
        placement = stats["placement"]
        assert placement["shards"] >= 1
        assert placement["rebalances"] == 0
        assert 0.0 <= placement["affinity_hit_rate"] <= 1.0
        assert placement["placed_stages"] == 0  # local pools route nothing


class TestRemoteExecution:
    """engine_executor='remote': jobs run on shard workers."""

    def test_remote_jobs_match_serial_and_fold_placement(self, flights):
        from repro.net.worker import ShardWorker

        reference = mine(flights, k=3, sample_size=16, seed=0,
                         variant="optimized", parallelism=1)
        with ShardWorker() as worker:
            svc = RuleMiningService(ServiceConfig(
                num_workers=2, engine_executor="remote",
                shard_workers=[worker.address],
            ))
            try:
                svc.register_dataset("flights", flights)
                result = svc.mine("flights", k=3, sample_size=16,
                                  seed=0, variant="optimized")
                stats = svc.stats()
                worker_stages = worker.stats()["stages"]
            finally:
                svc.close()
        assert [tuple(m.rule.values) for m in reference.rule_set] == [
            tuple(m.rule.values) for m in result.rule_set
        ]
        assert reference.kl_trace == result.kl_trace
        assert worker_stages > 0
        placement = stats["placement"]
        assert placement["placed_stages"] > 0
        assert placement["worker_failures"] == 0

    def test_worker_death_is_visible_in_service_stats(self, flights):
        from repro.net.worker import ShardWorker

        reference = mine(flights, k=3, sample_size=16, seed=0,
                         variant="optimized", parallelism=1)
        w1 = ShardWorker().start()
        w2 = ShardWorker().start()
        try:
            svc = RuleMiningService(ServiceConfig(
                num_workers=2, engine_executor="remote",
                shard_workers=[w1.address, w2.address],
            ))
            try:
                svc.register_dataset("flights", flights)
                # Warm both workers, then kill one: the next job must
                # recover via re-placement with unchanged results.
                first = svc.mine("flights", k=3, sample_size=16,
                                 seed=0, variant="optimized")
                w2.stop()
                second = svc.mine("flights", k=3, sample_size=16,
                                  seed=1, variant="optimized")
                stats = svc.stats()
            finally:
                svc.close()
        finally:
            w1.stop()
            w2.stop()
        assert [tuple(m.rule.values) for m in reference.rule_set] == [
            tuple(m.rule.values) for m in first.rule_set
        ]
        ref2 = mine(flights, k=3, sample_size=16, seed=1,
                    variant="optimized", parallelism=1)
        assert [tuple(m.rule.values) for m in ref2.rule_set] == [
            tuple(m.rule.values) for m in second.rule_set
        ]
        placement = stats["placement"]
        assert placement["worker_failures"] >= 1
        assert placement["rebalances"] >= 1

    def test_remote_executor_requires_shard_workers(self):
        with pytest.raises(ServiceError, match="shard_workers"):
            ServiceConfig(engine_executor="remote")
