"""Parallel stage execution: bit-compatibility, determinism, speedup.

The engine's ``parallelism`` and ``executor`` knobs change only
*wall-clock* behaviour: outputs, counters, cache hit/miss sequences
and simulated seconds must be identical to a serial run, and kernel
failures must abort a stage identically in serial, thread and process
modes.  These tests pin that contract at the stage level, through a
full mining run, and through the service — plus the pool-lifecycle
guarantee that no worker threads or processes outlive a job.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.common.errors import EngineError
from repro.core.config import variant_config
from repro.core.miner import Sirum, make_default_cluster, mine
from repro.data.generators import SyntheticSpec, generate, income_table
from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel
from tests.conftest import (
    EXECUTION_MODES,
    ExecutionMode,
    child_pids,
    kill_child_before_stage,
    live_workers,
    mining_bytes,
    shm_entries,
    stage_threads,
)


def make_cluster(parallelism=1, executor=None, **kwargs):
    spec = ClusterSpec(
        num_executors=kwargs.pop("num_executors", 2),
        cores_per_executor=kwargs.pop("cores_per_executor", 2),
        executor_memory_bytes=kwargs.pop("executor_memory_bytes", 1 << 20),
        storage_fraction=kwargs.pop("storage_fraction", 0.6),
        straggler_sigma=0.0,
    )
    cost = CostModel(
        op_seconds=1e-6,
        record_seconds=1e-4,
        task_launch_seconds=0.0,
        stage_overhead_seconds=0.0,
        shuffle_byte_seconds=1e-6,
        broadcast_byte_seconds=1e-6,
        disk_byte_seconds=1e-6,
    )
    return ClusterContext(spec, cost, parallelism=parallelism,
                          executor=executor)


def _double_kernel(tc, part):
    """Module-level (picklable) kernel for process-mode stage tests."""
    tc.add_records(1)
    return part * 2


def _lambda_factory_kernel(tc, part):
    """Picklable kernel whose *output* is not picklable."""
    tc.add_records(1)
    return lambda part=part: part


def _call_each_kernel(tc, part):
    """Picklable kernel over partitions of callables."""
    tc.add_records(len(part))
    return [fn() for fn in part]


def _boom_kernel(tc, part):
    """Module-level kernel failing on partition 2 in every mode."""
    if part == 2:
        raise ValueError("boom in partition 2")
    tc.add_records(10)
    return part


def synthetic_table(num_rows=2500, seed=11):
    spec = SyntheticSpec(
        num_rows=num_rows,
        cardinalities=[6, 5, 4, 3],
        skew=0.3,
        num_planted_rules=3,
        planted_arity=2,
        effect_scale=20.0,
        noise_scale=1.0,
        base_measure=50.0,
    )
    table, _ = generate(spec, seed=seed)
    return table


class TestParallelismKnob:
    def test_default_is_serial(self, monkeypatch):
        # Whatever the environment says: it is not consulted.
        monkeypatch.setenv("REPRO_PARALLELISM", "4")
        assert make_cluster(parallelism=None).parallelism == 1

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(EngineError):
            make_cluster(parallelism=0)

    def test_close_is_idempotent(self):
        cluster = make_cluster(parallelism=3)
        cluster.run_stage(lambda tc, p: p, range(6))
        cluster.close()
        cluster.close()

    def test_context_manager_closes_pool(self):
        before = live_workers()
        with make_cluster(parallelism=3) as cluster:
            result = cluster.run_stage(lambda tc, p: p * 2, range(6))
            assert live_workers() - before  # the pool really existed
        assert result.outputs == [0, 2, 4, 6, 8, 10]
        assert live_workers() <= before


class TestParallelStage:
    def test_outputs_preserve_partition_order(self):
        cluster = make_cluster(parallelism=4)

        def kernel(tc, part):
            time.sleep(0.001 * (7 - part))  # later partitions finish first
            return part * 10

        result = cluster.run_stage(kernel, range(8))
        assert result.outputs == [p * 10 for p in range(8)]

    def test_kernels_actually_run_concurrently(self):
        cluster = make_cluster(parallelism=4)
        barrier = threading.Barrier(4, timeout=10.0)

        def kernel(tc, part):
            # Deadlocks unless 4 kernels are in flight simultaneously.
            barrier.wait()
            return part

        result = cluster.run_stage(kernel, range(4))
        assert result.outputs == [0, 1, 2, 3]

    def test_kernel_exception_propagates(self):
        cluster = make_cluster(parallelism=4)

        def kernel(tc, part):
            if part == 2:
                raise ValueError("boom in partition 2")
            return part

        with pytest.raises(ValueError, match="boom in partition 2"):
            cluster.run_stage(kernel, range(4))

    def test_metrics_identical_to_serial(self):
        def workload(cluster):
            def kernel(tc, part):
                tc.add_records(50 * (part + 1))
                tc.add_ops(10 * part)
                tc.add_output_bytes(100)
                return part

            cluster.run_stage(kernel, range(8), shuffle_output=True)
            cluster.run_stage(kernel, range(8))
            return cluster.metrics.snapshot()

        assert workload(make_cluster(parallelism=1)) == workload(
            make_cluster(parallelism=4)
        )

    def test_cache_sequence_identical_to_serial(self):
        # A storage pool that only fits some partitions: the hit/miss
        # and eviction sequence is LRU-order-sensitive, so it only
        # matches serial if parallel mode replays accesses in
        # partition order.
        def workload(cluster):
            def kernel(tc, part):
                tc.request_cache_access(("data", part), 200_000)
                tc.add_records(10)
                return part

            for _ in range(3):
                cluster.run_stage(kernel, range(12))
            return (
                cluster.metrics.snapshot(),
                cluster.cache.hits,
                cluster.cache.misses,
                cluster.cache.evictions,
            )

        serial = workload(make_cluster(parallelism=1,
                                       executor_memory_bytes=1 << 20))
        parallel = workload(make_cluster(parallelism=4,
                                         executor_memory_bytes=1 << 20))
        assert serial == parallel
        # The tiny pool must actually have evicted for this to bite.
        assert serial[3] > 0

    def test_deferred_charges_land_on_the_right_task(self):
        cluster = make_cluster(parallelism=4)

        def kernel(tc, part):
            tc.request_cache_access(("p", part), 100 * (part + 1))
            return part

        result = cluster.run_stage(kernel, range(4))
        assert [tc.disk_bytes for tc in result.tasks] == [100, 200, 300, 400]


class TestExecutorKnob:
    def test_default_is_thread(self, monkeypatch):
        # Whatever the environment says: it is not consulted.
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert make_cluster(executor=None).executor == "thread"

    def test_invalid_executor_rejected(self):
        with pytest.raises(EngineError):
            make_cluster(executor="fibers")

    def test_uses_processes_requires_parallelism(self):
        assert make_cluster(parallelism=4,
                            executor="process").uses_processes
        assert not make_cluster(parallelism=1,
                                executor="process").uses_processes
        assert not make_cluster(parallelism=4,
                                executor="thread").uses_processes


class TestProcessStage:
    def test_outputs_preserve_partition_order(self):
        with make_cluster(parallelism=4, executor="process") as cluster:
            result = cluster.run_stage(_double_kernel, range(8))
        assert result.outputs == [p * 2 for p in range(8)]

    def test_charges_travel_back_from_workers(self):
        with make_cluster(parallelism=4, executor="process") as cluster:
            result = cluster.run_stage(_double_kernel, range(8))
            assert [tc.records for tc in result.tasks] == [1] * 8
            assert cluster.metrics.counter("tasks") == 8

    def test_metrics_identical_to_serial_and_thread(self):
        snapshots = {}
        for name in EXECUTION_MODES:
            with ExecutionMode(name) as mode:
                cluster = mode.cluster()
                cluster.run_stage(_double_kernel, range(8),
                                  shuffle_output=True)
                cluster.run_stage(_double_kernel, range(8))
                snapshots[name] = cluster.metrics.snapshot()
        for name, snapshot in snapshots.items():
            assert snapshot == snapshots["serial"], name

    def test_unpicklable_kernel_falls_back_to_threads(self):
        captured = []

        def kernel(tc, part):  # a closure: cannot cross process pickling
            captured.append(part)
            tc.add_records(1)
            return part * 3

        with make_cluster(parallelism=4, executor="process") as cluster:
            result = cluster.run_stage(kernel, range(6))
            assert result.outputs == [0, 3, 6, 9, 12, 15]
            assert cluster.fallback_stages == 1
            # The closure really ran in this process (thread pool).
            assert sorted(captured) == [0, 1, 2, 3, 4, 5]

    def test_unpicklable_partition_data_falls_back_to_threads(self):
        # The kernel pickles but the partition elements do not
        # (run_stage accepts arbitrary user data): the stage must
        # still succeed, exactly as in serial/thread modes.
        partitions = [[lambda: 1, lambda: 2], [lambda: 3]]
        with make_cluster(parallelism=4, executor="process") as cluster:
            result = cluster.run_stage(_call_each_kernel, partitions)
            assert result.outputs == [[1, 2], [3]]
            assert cluster.fallback_stages == 1

    def test_unpicklable_task_output_falls_back_to_threads(self):
        with make_cluster(parallelism=4, executor="process") as cluster:
            result = cluster.run_stage(_lambda_factory_kernel, range(4))
            assert [fn() for fn in result.outputs] == [0, 1, 2, 3]
            assert cluster.fallback_stages == 1
            assert cluster.metrics.counter("tasks") == 4

    def test_close_is_idempotent_across_executor_kinds(self):
        before = live_workers()
        cluster = make_cluster(parallelism=3, executor="process")
        cluster.run_stage(_double_kernel, range(6))
        cluster.run_stage(lambda tc, p: p, range(6))  # thread fallback
        cluster.close()
        cluster.close()
        assert live_workers() <= before


class TestFailureSemantics:
    """A kernel exception aborts the stage identically in every mode."""

    def test_exception_message_parity_across_modes(self):
        seen = {}
        for name in EXECUTION_MODES:
            with ExecutionMode(name) as mode:
                with pytest.raises(ValueError) as excinfo:
                    mode.cluster().run_stage(_boom_kernel, range(6))
                seen[name] = (
                    type(excinfo.value).__name__, str(excinfo.value)
                )
        assert len(set(seen.values())) == 1, seen

    def test_lowest_failing_partition_wins_in_parallel(self):
        # Partitions 1 and 3 both fail; serial surfaces partition 1
        # (it runs first), and parallel modes must match even when
        # partition 3's task finishes failing earlier in wall time.
        # The kernel is a closure, so the modes that ship kernels get
        # here through their thread fallback — which owes the same
        # contract (tests/engine/test_executors.py covers the shipped
        # path with a picklable kernel).
        def kernel(tc, part):
            if part == 1:
                time.sleep(0.02)
                raise ValueError("boom in partition 1")
            if part == 3:
                raise ValueError("boom in partition 3")
            return part

        for name in EXECUTION_MODES:
            with ExecutionMode(name) as mode:
                with pytest.raises(ValueError,
                                   match="boom in partition 1"):
                    mode.cluster().run_stage(kernel, range(6))


class TestPoolLifecycle:
    """No executor threads/processes survive a completed job."""

    def test_mine_closes_internal_thread_pool(self):
        table = synthetic_table(num_rows=600)
        before = set(id(t) for t in stage_threads())
        mine(table, k=2, sample_size=16, seed=0, parallelism=4)
        after = set(id(t) for t in stage_threads())
        assert after <= before

    def test_mine_closes_internal_process_pool(self):
        table = synthetic_table(num_rows=600)
        before = child_pids()
        mine(table, k=2, sample_size=16, seed=0, parallelism=2,
             executor="process")
        assert child_pids() <= before

    def test_process_mine_of_in_ram_table_makes_no_shm_entry(self):
        # The table's partitions, measure and estimates reach the
        # children as bytes in each batch: nothing is left in /dev/shm
        # for the table (still alive here) to own.
        table = synthetic_table(num_rows=600)
        before = shm_entries()
        mine(table, k=2, sample_size=16, seed=0, parallelism=2,
             executor="process")
        assert shm_entries() <= before
        assert len(table) == 600

    def test_explore_cube_closes_internal_cluster(self):
        from repro.apps import explore_cube

        table = synthetic_table(num_rows=400)
        before = set(id(t) for t in stage_threads())
        explore_cube(table, k=2, parallelism=4)
        assert set(id(t) for t in stage_threads()) <= before

    def test_explore_cube_leaves_caller_supplied_cluster_open(self):
        from repro.apps import explore_cube

        before = live_workers()
        cluster = make_default_cluster(parallelism=4)
        explore_cube(synthetic_table(num_rows=400), k=2, cluster=cluster)
        assert live_workers() - before
        cluster.close()
        assert live_workers() <= before

    def test_diagnosis_leaves_caller_supplied_cluster_open(self):
        from repro.apps import diagnose_dirty_records

        table = income_table(num_rows=400)
        before = live_workers()
        cluster = make_default_cluster(parallelism=4)
        diagnose_dirty_records(table, k=2, sample_size=16, cluster=cluster)
        assert live_workers() - before
        cluster.close()
        assert live_workers() <= before

    def test_service_job_closes_engine_cluster(self):
        from repro.service import RuleMiningService, ServiceConfig

        table = synthetic_table(num_rows=600)
        before = set(id(t) for t in stage_threads())
        with RuleMiningService(ServiceConfig(
            num_workers=2, engine_parallelism=4,
        )) as service:
            service.register_dataset("syn", table)
            service.mine("syn", k=2, sample_size=16, seed=0, timeout=60.0)
            # The job's cluster pool dies with the job, not the service.
            assert set(id(t) for t in stage_threads()) <= before
        assert set(id(t) for t in stage_threads()) <= before

    def test_mine_leaves_caller_supplied_cluster_open(self):
        before = live_workers()
        cluster = make_default_cluster(parallelism=4)
        config = variant_config("optimized", k=2, sample_size=16, seed=0)
        Sirum(config).mine(synthetic_table(num_rows=300), cluster=cluster)
        # The caller owns this cluster: its workers (whichever executor
        # kind the environment selected) must survive the call.
        assert live_workers() - before
        cluster.close()
        assert live_workers() <= before


class TestMiningBitIdentity:
    @pytest.mark.parametrize("variant", ["optimized", "baseline", "rct"])
    def test_mining_identical_across_modes(self, variant):
        table = synthetic_table()
        results = {}
        for parallelism in (1, 4):
            cluster = make_default_cluster(
                num_executors=4, cores_per_executor=4,
                parallelism=parallelism,
            )
            config = variant_config(variant, k=4, sample_size=24, seed=3)
            results[parallelism] = Sirum(config).mine(table, cluster=cluster)
            cluster.close()
        serial, parallel = results[1], results[4]
        assert [tuple(m.rule.values) for m in serial.rule_set] == [
            tuple(m.rule.values) for m in parallel.rule_set
        ]
        assert np.array_equal(serial.lambdas, parallel.lambdas)
        assert np.array_equal(serial.estimates, parallel.estimates)
        assert serial.kl_trace == parallel.kl_trace
        # Simulated seconds, per-phase attribution and every counter —
        # the cost model must not notice the execution mode.
        assert serial.metrics == parallel.metrics

    @pytest.mark.parametrize("variant", ["optimized", "baseline"])
    def test_process_mode_identical_to_serial(self, variant):
        table = synthetic_table()
        results = {}
        for executor, parallelism in (("thread", 1), ("process", 4)):
            cluster = make_default_cluster(
                num_executors=4, cores_per_executor=4,
                parallelism=parallelism, executor=executor,
            )
            config = variant_config(variant, k=4, sample_size=24, seed=3)
            results[executor] = Sirum(config).mine(table, cluster=cluster)
            cluster.close()
        serial, process = results["thread"], results["process"]
        assert [tuple(m.rule.values) for m in serial.rule_set] == [
            tuple(m.rule.values) for m in process.rule_set
        ]
        assert np.array_equal(serial.lambdas, process.lambdas)
        assert np.array_equal(serial.estimates, process.estimates)
        assert serial.kl_trace == process.kl_trace
        # Simulated seconds, per-phase attribution and every counter —
        # the cost model must not notice worker processes either.
        assert serial.metrics == process.metrics

    def test_wide_codec_identical_across_executors(self):
        # Domains too wide for a 63-bit key: candidate generation keys
        # with Python ints, which process and remote mode pickle.
        spec = SyntheticSpec(
            num_rows=1500,
            cardinalities=[500] * 8,
            skew=0.6,
            num_planted_rules=3,
            planted_arity=2,
            effect_scale=20.0,
            noise_scale=1.0,
            base_measure=50.0,
        )
        table, _ = generate(spec, seed=5)
        from repro.core.codec import RowCodec

        assert not RowCodec.from_table(table).fits
        config = variant_config("fastpruning", k=2, sample_size=16, seed=1)
        results = {}
        for name in EXECUTION_MODES:
            with ExecutionMode(name) as mode:
                cluster = mode.cluster()
                result = Sirum(config).mine(table, cluster=cluster)
                assert cluster.fallback_stages == 0, name
            results[name] = (
                [tuple(m.rule.values) for m in result.rule_set],
                result.lambdas.tobytes(),
                result.estimates.tobytes(),
                result.kl_trace,
                result.metrics,
            )
        for name, result in results.items():
            assert result == results["serial"], name

    def test_mining_identical_across_placement_modes(self):
        """Every execution mode — serial, thread pool, process pool,
        remote workers — one result, bit for bit.

        The remote run ships shards to two loopback workers, sticky by
        shard id.
        """
        from repro.bench.harness import mining_results_identical

        table = synthetic_table()
        config = variant_config("optimized", k=4, sample_size=24, seed=3)
        results, placement = {}, {}
        for name in EXECUTION_MODES:
            with ExecutionMode(name) as mode:
                cluster = mode.cluster()
                results[name] = Sirum(config).mine(table, cluster=cluster)
                placement[name] = cluster.placement_stats()
                for worker in mode.shard_workers:
                    assert worker.stats()["stages"] > 0
        for name, result in results.items():
            assert mining_results_identical(results["serial"], result), name
        # The remote run really pinned shards: every stage routed by
        # shard id, repeat visits to a worker counted as hits.  Local
        # pools have no addressable workers and record nothing.
        for name, stats in placement.items():
            if name == "remote":
                assert stats["placed_stages"] > 0
                assert stats["affinity_hits"] > 0
            else:
                assert stats["placed_stages"] == 0
                assert stats["affinity_hits"] == 0
            assert stats["rebalances"] == 0

    @pytest.mark.parametrize("engine_executor", ["thread", "process"])
    def test_service_results_identical_across_modes(self, engine_executor):
        from repro.service import RuleMiningService, ServiceConfig

        table = synthetic_table(num_rows=800)
        outcomes = {}
        for parallelism in (1, 4):
            with RuleMiningService(ServiceConfig(
                num_workers=2, engine_parallelism=parallelism,
                engine_executor=engine_executor,
            )) as service:
                service.register_dataset("syn", table)
                result = service.mine("syn", k=3, sample_size=16, seed=0,
                                      timeout=60.0)
                outcomes[parallelism] = result
        serial, parallel = outcomes[1], outcomes[4]
        assert [tuple(m.rule.values) for m in serial.rule_set] == [
            tuple(m.rule.values) for m in parallel.rule_set
        ]
        assert serial.metrics == parallel.metrics


class TestProcessWidthsAndChildKills:
    """``mine(..., executor="process")`` at every small width, on both
    storage kinds, with and without losing a child mid-job, is the
    serial run byte for byte."""

    @pytest.mark.parametrize("kill", [False, True], ids=["clean", "kill"])
    @pytest.mark.parametrize("storage", ["ram", "file"])
    @pytest.mark.parametrize("parallelism", [2, 3, 4])
    def test_identical_to_serial(self, parallelism, storage, kill, tmp_path):
        from repro.data.colfile import write_colfile
        from repro.data.table import Table

        table = synthetic_table(num_rows=1500)
        params = dict(k=3, sample_size=16, seed=2)
        expected = mining_bytes(mine(table, parallelism=1, **params))
        if storage == "file":
            path = tmp_path / "syn.col"
            write_colfile(table, path, block_rows=256)
            table = Table.open_colfile(path)
        before = child_pids()
        cluster = make_default_cluster(parallelism=parallelism,
                                       executor="process")
        if kill:
            kill_child_before_stage(cluster, 6, before)
        try:
            result = mine(table, cluster=cluster, **params)
            assert cluster.fallback_stages == (1 if kill else 0)
        finally:
            cluster.close()
            if storage == "file":
                table.close()
        assert mining_bytes(result) == expected
        assert child_pids() <= before


class TestFileBackedBitIdentity:
    """Out-of-core axis of the identity matrix.

    Mining a file-backed table — with a buffer pool deliberately
    smaller than the decoded table, so blocks evict and re-fault — must
    produce the same rules, lambdas, estimates, KL trace and simulated
    metrics as mining the in-RAM table, in every execution mode.
    """

    @pytest.mark.parametrize("parallelism,executor", [
        (1, "thread"), (4, "thread"), (4, "process"),
    ])
    def test_file_backed_identical_to_in_ram(self, parallelism, executor,
                                             tmp_path):
        from repro.data.colfile import write_colfile
        from repro.data.table import Table

        table = synthetic_table()
        path = tmp_path / "syn.col"
        write_colfile(table, path, block_rows=256)
        file_table = Table.open_colfile(
            path, capacity_bytes=table.estimated_bytes() // 2
        )

        def run(t):
            cluster = make_default_cluster(
                num_executors=4, cores_per_executor=4,
                parallelism=parallelism, executor=executor,
            )
            try:
                config = variant_config("optimized", k=4, sample_size=24,
                                        seed=3)
                return Sirum(config).mine(t, cluster=cluster)
            finally:
                cluster.close()

        before = shm_entries()
        in_ram = run(table)
        out_of_core = run(file_table)
        assert [tuple(m.rule.values) for m in in_ram.rule_set] == [
            tuple(m.rule.values) for m in out_of_core.rule_set
        ]
        assert np.array_equal(in_ram.lambdas, out_of_core.lambdas)
        assert np.array_equal(in_ram.estimates, out_of_core.estimates)
        assert in_ram.kl_trace == out_of_core.kl_trace
        # The memory/cost simulation must not notice the storage mode.
        assert in_ram.metrics == out_of_core.metrics
        # The undersized pool really streamed: faults and evictions.
        pool = file_table.buffer_pool
        assert pool.misses > 0
        assert pool.evictions > 0
        assert pool.resident_bytes <= pool.capacity_bytes
        # Process workers attached the mmap'd file; nothing was put in
        # /dev/shm for the job.
        assert shm_entries() <= before

    def test_file_backed_service_job_exposes_pool_stats(self):
        import tempfile

        from repro.data.colfile import write_colfile
        from repro.data.table import Table
        from repro.service import RuleMiningService, ServiceConfig

        table = synthetic_table(num_rows=800)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "syn.col")
            write_colfile(table, path, block_rows=128)
            file_table = Table.open_colfile(
                path, capacity_bytes=table.estimated_bytes() // 2
            )
            with RuleMiningService(ServiceConfig(
                num_workers=2, engine_parallelism=2,
            )) as service:
                service.register_dataset("ram", table)
                service.register_dataset("disk", file_table)
                expected = service.mine("ram", k=3, sample_size=16, seed=0,
                                        timeout=60.0)
                result = service.mine("disk", k=3, sample_size=16, seed=0,
                                      timeout=60.0)
                stats = service.stats()
            assert [tuple(m.rule.values) for m in result.rule_set] == [
                tuple(m.rule.values) for m in expected.rule_set
            ]
            assert result.metrics == expected.metrics
            pool_stats = stats["buffer_pool"]
            assert pool_stats["attached"]
            assert list(pool_stats["datasets"]) == ["disk"]
            disk = pool_stats["datasets"]["disk"]
            assert disk["misses"] > 0
            assert 0.0 <= disk["hit_rate"] <= 1.0
            assert disk["resident_bytes"] <= disk["capacity_bytes"]


@pytest.mark.slow
class TestParallelSpeedup:
    def test_speedup_at_parallelism_4(self):
        """The acceptance floor: >=2x wall-clock at 4 workers.

        Thread-level speedup needs real cores; on starved CI hosts the
        floor is physically unreachable, so the assertion requires at
        least 4 usable cores (the benchmark script reports measured
        numbers regardless of host width).
        """
        cores = len(os.sched_getaffinity(0))
        if cores < 4:
            pytest.skip(
                "parallel speedup floor needs >=4 cores; host has %d"
                % cores
            )
        table = synthetic_table(num_rows=60_000, seed=7)
        walls = {}
        for parallelism in (1, 4):
            cluster = make_default_cluster(
                num_executors=4, cores_per_executor=4,
                parallelism=parallelism,
            )
            config = variant_config("optimized", k=5, sample_size=48,
                                    seed=0, num_partitions=16)
            started = time.perf_counter()
            Sirum(config).mine(table, cluster=cluster)
            walls[parallelism] = time.perf_counter() - started
            cluster.close()
        assert walls[1] / walls[4] >= 2.0
