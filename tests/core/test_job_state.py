"""Job-scoped kernel state: a memo, never a source of truth.

A mining job's kernels keep their estimate-independent *plans* in the
process that runs them (:mod:`repro.engine.task`), so iterations 2..k
redo only the ``SUM(m-hat)`` column.  These tests pin what makes that
safe: a job reads only its own plans (isolation, no stale reads), a
lost plan rebuilds to the same bytes in every execution mode
(state loss), the store is bounded and forgets a job when its session
closes, it adds no lock a forked child can inherit held, and there is
one code path — the sort runs once per (job, partition), through a
plan builder.
"""

import collections
import functools
import inspect
import os
import re
import sys
import tempfile
import threading
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ReproError
from repro.core import candidates, lattice_packed, miner, sampling
from repro.core.codec import RowCodec
from repro.core.config import SirumConfig, variant_config
from repro.core.lattice_packed import (
    generate_ancestors_packed,
    match_counts_packed,
    pack_rule_rows,
)
from repro.core.measure import MeasureTransform
from repro.core.miner import Sirum, make_default_cluster, mine
from repro.core.sampling import _lca_plan, draw_sample_rows
from repro.core.session import MiningSession
from repro.data.colfile import write_colfile
from repro.data.generators import flight_table, income_table
from repro.data.schema import Schema
from repro.data.table import Table
from repro.engine import task
from repro.engine.cluster import ClusterContext
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.worker import ShardWorker
from repro.service import RuleMiningService, ServiceConfig
from tests.conftest import (
    before_stage,
    child_pids,
    drop_job_state,
    mining_bytes,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: Three iterations (one rule each), single-round ancestor generation,
#: sixteen partitions: every slot is built once and hit twice.
THREE_ITERATIONS = SirumConfig(
    k=3, sample_size=16, use_rct=True, use_fast_pruning=True,
    num_partitions=16,
)


@pytest.fixture(scope="module")
def table():
    return income_table(num_rows=1200, seed=5)


def _retained_jobs():
    return task.job_state_stats()["jobs"]


class _Plan:
    """Anything with ``nbytes`` is a plan to the store."""

    def __init__(self, nbytes):
        self.nbytes = nbytes


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class TestStore:
    def test_no_job_no_slot(self):
        assert task.job_slot(None, ("prune", 0, 0)) is None

    def test_tokens_are_distinct(self, flights, cluster):
        tokens = [task.open_job() for _ in range(10_000)]
        sessions = [MiningSession(cluster, flights, num_partitions=2)
                    for _ in range(50)]
        tokens += [session.job for session in sessions]
        for session in sessions:
            session.close()
        for token in tokens:
            task.drop_job(token)
        assert len(set(tokens)) == len(tokens)
        assert all(isinstance(token, bytes) and len(token) == 16
                   for token in tokens)
        assert not set(tokens) & task._store.opened

    def test_an_opened_job_keeps_its_plans_until_dropped(self):
        job, other = task.open_job(), task.open_job()
        try:
            slot = task.job_slot(job, ("prune", 0, 3))
            assert slot.get() is None
            plan = _Plan(100)
            slot.put(plan)
            assert task.job_slot(job, ("prune", 0, 3)).get() is plan
            assert task.job_slot(job, ("prune", 0, 4)).get() is None
            assert task.job_slot(other, ("prune", 0, 3)).get() is None
            stats = task.job_state_stats()
            assert (stats["jobs"], stats["slots"], stats["bytes"]) == \
                (1, 1, 100)
        finally:
            task.drop_job(job)
            task.drop_job(other)
        task.drop_job(job)  # idempotent
        assert task.job_slot(job, ("prune", 0, 3)).get() is None
        assert _retained_jobs() == 0

    def test_foreign_jobs_are_kept_two_deep(self):
        # Tokens nobody opened here: what a pool child or a shard
        # worker sees.  An opened job is never the one to go.
        mine_ = task.open_job()
        foreign = [os.urandom(16) for _ in range(3)]
        try:
            before = task.job_state_stats()
            task.job_slot(mine_, "a").put(_Plan(1))
            for job in foreign[:2]:
                task.job_slot(job, "a").put(_Plan(10))
                task.job_slot(job, "b").put(_Plan(10))
            assert task.job_state_stats()["jobs"] == 3
            # Touch the older one, then admit a third: the other goes.
            assert task.job_slot(foreign[0], "a").get() is not None
            task.job_slot(foreign[2], "a").put(_Plan(10))
            after = task.job_state_stats()
            assert after["jobs"] == 3 and after["bytes"] == 1 + 20 + 10
            assert after["evictions"] - before["evictions"] == 2
            assert task.job_slot(foreign[1], "a").get() is None
            assert task.job_slot(foreign[0], "b").get() is not None
            assert task.job_slot(mine_, "a").get() is not None
        finally:
            for job in [mine_] + foreign:
                task.drop_job(job)
        assert task.job_state_stats()["bytes"] == 0

    def test_a_plan_over_the_ceiling_is_not_retained(self, monkeypatch):
        monkeypatch.setattr(task, "MAX_STATE_BYTES", 150)
        job = task.open_job()
        try:
            before = task.job_state_stats()["not_retained"]
            task.job_slot(job, 0).put(_Plan(100))
            task.job_slot(job, 1).put(_Plan(100))
            assert task.job_slot(job, 0).get() is not None
            assert task.job_slot(job, 1).get() is None
            assert task.job_state_stats()["not_retained"] - before == 1
            assert task.job_state_stats()["bytes"] == 100
        finally:
            task.drop_job(job)

    def test_concurrent_slots_lose_no_update(self):
        # More threads than cores, switching often: a lost update shows
        # as a byte total or a hit count that does not add up.
        jobs = [task.open_job() for _ in range(3)]
        before = task.job_state_stats()
        rounds, threads = 200, 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def work(worker):
            for i in range(rounds):
                slot = task.job_slot(jobs[i % 3], (worker, i))
                assert slot.get() is None
                slot.put(_Plan(i + 1))
                assert slot.get().nbytes == i + 1

        try:
            pool = [threading.Thread(target=work, args=(w,))
                    for w in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in pool)
            after = task.job_state_stats()
            assert after["slots"] == rounds * threads
            assert after["bytes"] == threads * rounds * (rounds + 1) // 2
            assert after["hits"] - before["hits"] == rounds * threads
            assert after["misses"] - before["misses"] == rounds * threads
        finally:
            sys.setswitchinterval(interval)
            for job in jobs:
                task.drop_job(job)
        assert task.job_state_stats()["bytes"] == 0


def _slot_kernel(tc, part, job):
    """Picklable kernel that goes through the store where it runs."""
    slot = task.job_slot(job, ("probe", 0, tc.partition_id))
    missed = slot.get() is None
    slot.put(np.zeros(4))
    return missed and slot.get() is not None, os.getpid()


class TestForkHazard:
    def test_a_child_forked_while_the_lock_is_held_does_not_hang(self):
        # ROADMAP 4(a)'s recipe, for this lock: hold it on a helper
        # thread, force a pool start, and the first process stage must
        # still finish — the child resets the store it inherited.
        holding, release = threading.Event(), threading.Event()

        def hold():
            with task._store.lock:
                holding.set()
                release.wait(60.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert holding.wait(10.0)
        outputs = []
        cluster = make_default_cluster(parallelism=2, executor="process")
        kernel = functools.partial(_slot_kernel, job=os.urandom(16))
        stage = threading.Thread(target=lambda: outputs.extend(
            cluster.run_stage(kernel, [0, 1, 2, 3]).outputs
        ))
        try:
            stage.start()
            stage.join(30.0)
            finished = not stage.is_alive()
        finally:
            release.set()
            holder.join(10.0)
            if finished:  # closing a hung pool would hang the test too
                cluster.close()
        assert finished, "the first process stage hung on an inherited lock"
        assert cluster.fallback_stages == 0
        assert [ok for ok, _ in outputs] == [True] * 4
        assert os.getpid() not in {pid for _, pid in outputs}
        assert _retained_jobs() == 0  # the children kept it, not us


def _child_job_state(tc, part):
    return os.getpid(), task.job_state_stats()


class TestAffinity:
    """Batch ``i`` of every process stage goes to the same child, so a
    process job finds every plan a serial one does."""

    def test_children_find_every_plan_serial_finds(self, table):
        before = task.job_state_stats()["hits"]
        expected = mining_bytes(Sirum(THREE_ITERATIONS).mine(table))
        serial_hits = task.job_state_stats()["hits"] - before
        before = task.job_state_stats()["hits"]
        with make_default_cluster(parallelism=2,
                                  executor="process") as cluster:
            result = Sirum(THREE_ITERATIONS).mine(table, cluster=cluster)
            # Two partitions, two batches: one to each child.
            children = dict(cluster.run_stage(_child_job_state,
                                              [0, 1]).outputs)
            assert cluster.fallback_stages == 0
        driver_hits = task.job_state_stats()["hits"] - before
        assert mining_bytes(result) == expected
        child_hits = sum(stats["hits"] for stats in children.values())
        assert child_hits > 0
        assert child_hits + driver_hits == serial_hits
        assert len(children) == 2 and os.getpid() not in children


# ----------------------------------------------------------------------
# What a job retains
# ----------------------------------------------------------------------


def _small_lca_inputs():
    rng = np.random.default_rng(3)
    codec = RowCodec([3, 4, 2, 5])
    columns = [rng.integers(0, card, size=40).astype(np.int64)
               for card in codec.cardinalities]
    sample = np.stack([col[:5] for col in columns], axis=1)
    return columns, rng.random(40) + 0.5, sample, codec


class TestRetainedArrays:
    def test_a_write_to_a_retained_array_raises(self):
        columns, measure, sample, codec = _small_lca_inputs()
        plan = _lca_plan(columns, measure, sample, codec)
        for name in ("keys", "group_ids", "sources", "fixed"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, name)[0] = 0
        keys, aggs, _ = generate_ancestors_packed(
            plan.keys, plan.apply(measure), codec
        )
        with pytest.raises(ValueError, match="read-only"):
            keys[0] = 0
        aggs[0, 1] = 0.0  # what apply returns is the caller's
        counts = match_counts_packed(
            keys, pack_rule_rows(sample, codec), codec
        )
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 0

    def test_index_arrays_take_the_narrowest_dtype(self):
        columns, measure, sample, codec = _small_lca_inputs()
        plan = _lca_plan(columns, measure, sample, codec)
        assert plan.group_ids.dtype == plan.sources.dtype == np.uint16
        assert plan.nbytes == sum(
            getattr(plan, name).nbytes
            for name in ("keys", "group_ids", "sources", "fixed")
        )
        from repro.core.codec import index_dtype

        assert index_dtype(1 << 16) == np.uint16
        assert index_dtype((1 << 16) + 1) == np.int32
        assert index_dtype(1 << 31) == np.int32
        assert index_dtype((1 << 31) + 1) == np.int64

    def test_kernels_outside_a_job_keep_nothing(self, table):
        before = task.job_state_stats()
        codec = RowCodec.from_table(table)
        part = table.partition_blocks(4)[1]
        measure = MeasureTransform.fit(table.measure).transformed
        sample = np.asarray(
            draw_sample_rows(table, 8, np.random.default_rng(0)),
            dtype=np.int64,
        )
        tc = task.TaskContext(1, 1)
        keys, aggs = miner._prune_kernel(
            tc, part, measure, np.ones(len(table)), sample, codec, None,
        )
        out_keys, _, _ = miner._ancestor_packed_kernel(
            tc, (keys, aggs), codec, None, True
        )
        miner._match_counts_packed_kernel(
            tc, out_keys, pack_rule_rows(sample, codec), codec,
        )
        assert task.job_state_stats() == before

    def test_a_wide_plan_counts_the_ints_its_keys_hold(self):
        # An object array's ``nbytes`` counts pointers only; the store
        # must see the Python ints behind a > 63-bit codec's keys too.
        columns, measure, sample, _ = _small_lca_inputs()
        plan = _lca_plan(columns, measure, sample, RowCodec([2**40] * 4))
        assert plan.keys.dtype == object
        arrays = sum(
            getattr(plan, name).nbytes
            for name in ("keys", "group_ids", "sources", "fixed")
        )
        assert plan.nbytes >= arrays + sum(map(sys.getsizeof, plan.keys))


class TestSessionLifetime:
    def test_the_store_is_empty_once_mine_returns(self, table):
        seen = []
        opened = set(task._store.opened)
        cluster = make_default_cluster()
        before_stage(cluster, lambda nth, kernel: seen.append(
            task.job_state_stats()["slots"]
        ))
        Sirum(THREE_ITERATIONS).mine(table, cluster=cluster)
        assert max(seen) > 0  # plans were held while the job ran
        assert _retained_jobs() == 0 and task._store.opened == opened

    def test_the_store_is_empty_once_mine_raises(self, table):
        calls = []
        opened = set(task._store.opened)

        def failing_in_iteration_two(*args, **kwargs):
            calls.append(1)
            if len(calls) == 16 + 3:
                assert task.job_state_stats()["slots"] > 0
                raise RuntimeError("injected")
            return sampling.lca_aggregates_packed(*args, **kwargs)

        with mock.patch.object(miner, "lca_aggregates_packed",
                               failing_in_iteration_two):
            with pytest.raises(RuntimeError, match="injected"):
                Sirum(THREE_ITERATIONS).mine(table)
        assert _retained_jobs() == 0 and task._store.opened == opened


# ----------------------------------------------------------------------
# One path
# ----------------------------------------------------------------------


class TestOnePath:
    def test_each_plan_is_built_once_per_job_and_partition(self, table):
        slots = collections.Counter()
        get = task.JobSlot.get

        def counting_get(slot):
            plan = get(slot)
            slots[slot.key[0], plan is not None] += 1
            return plan

        before = task.job_state_stats()
        with mock.patch.object(task.JobSlot, "get", counting_get), \
                mock.patch.object(sampling, "_lca_plan",
                                  wraps=sampling._lca_plan) as lca, \
                mock.patch.object(lattice_packed, "_ancestor_plan",
                                  wraps=lattice_packed._ancestor_plan
                                  ) as ancestors, \
                mock.patch.object(lattice_packed, "_match_counts",
                                  wraps=lattice_packed._match_counts
                                  ) as match, \
                mock.patch.object(miner, "_merge_plan",
                                  wraps=miner._merge_plan) as merge:
            result = Sirum(THREE_ITERATIONS).mine(table)
        assert max(m.iteration for m in result.rule_set) == 3
        assert lca.call_count == 16
        assert ancestors.call_count == 16
        assert match.call_count == 16
        assert merge.call_count == 1
        assert slots == {
            ("prune", False): 16, ("prune", True): 32,
            ("ancestors", False): 16, ("ancestors", True): 32,
            ("match", False): 16, ("match", True): 32,
            ("merge", False): 1, ("merge", True): 2,
        }
        after = task.job_state_stats()
        assert after["misses"] - before["misses"] == 49
        assert after["hits"] - before["hits"] == 98
        assert after["evictions"] == before["evictions"]
        assert after["not_retained"] == before["not_retained"]

    def test_an_exhaustive_job_builds_each_cube_once(self, table):
        slots = collections.Counter()
        get = task.JobSlot.get

        def counting_get(slot):
            plan = get(slot)
            slots[slot.key[0], plan is not None] += 1
            return plan

        config = SirumConfig(k=3, exhaustive=True, use_rct=True,
                             num_partitions=16)
        with mock.patch.object(task.JobSlot, "get", counting_get), \
                mock.patch.object(candidates, "cube_plan",
                                  wraps=candidates.cube_plan) as cube, \
                mock.patch.object(miner, "_merge_plan",
                                  wraps=miner._merge_plan) as merge:
            result = Sirum(config).mine(table)
        assert max(m.iteration for m in result.rule_set) == 3
        assert cube.call_count == 16
        assert merge.call_count == 1
        assert slots == {
            ("cube", False): 16, ("cube", True): 32,
            ("merge", False): 1, ("merge", True): 2,
        }

    def test_no_switch_selects_an_implementation(self):
        pattern = re.compile(r"use_state|stateless|REPRO_JOB")
        offenders = [
            str(path) for path in SRC.rglob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert not offenders

    def test_public_signatures_and_protocol_are_unchanged(self):
        assert str(inspect.signature(mine)) == (
            "(table, k=10, variant='optimized', cluster=None, "
            "prior_rules=None, parallelism=None, executor=None, "
            "workers=None, **config_overrides)"
        )
        assert str(inspect.signature(Sirum.mine)) == (
            "(self, table, cluster=None, prior_rules=None, "
            "sample_rows=None, dataset_state=None)"
        )
        assert str(inspect.signature(ClusterContext.__init__)) == (
            "(self, spec=None, cost_model=None, hdfs=None, "
            "parallelism=None, executor=None, budget_grant=None, "
            "workers=None)"
        )
        assert list(inspect.signature(make_default_cluster).parameters) == [
            "num_executors", "cores_per_executor", "executor_memory_bytes",
            "straggler_sigma", "seed", "cost_model", "parallelism",
            "executor", "budget_grant", "workers",
        ]
        assert not any(
            "state" in name or "job" in name
            for name in inspect.signature(ServiceConfig.__init__).parameters
        )
        assert PROTOCOL_VERSION == 1


class TestLegible:
    KEYS = {"jobs", "slots", "bytes", "hits", "misses", "evictions",
            "not_retained"}

    def test_stats_surfaces(self, table):
        assert set(task.job_state_stats()) == self.KEYS
        with ShardWorker() as worker:
            assert set(worker.stats()["job_state"]) == self.KEYS
        with RuleMiningService(ServiceConfig(num_workers=1)) as service:
            service.register_dataset("income", table)
            before = service.stats()["job_state"]
            service.mine("income", k=3, sample_size=8,
                         rules_per_iteration=1, timeout=60.0)
            after = service.stats()["job_state"]
        assert set(after) == self.KEYS
        assert after["hits"] > before["hits"]
        assert (after["jobs"], after["slots"], after["bytes"]) == (0, 0, 0)


# ----------------------------------------------------------------------
# Isolation: a job reads only its own plans
# ----------------------------------------------------------------------


def _content(result):
    """A result without the cluster's (accumulating) metrics."""
    return mining_bytes(result)[:4]


class TestIsolation:
    CONFIGS = [variant_config("optimized", k=3, sample_size=16, seed=seed)
               for seed in (0, 1)]

    def test_back_to_back_on_one_caller_owned_cluster(self, table,
                                                      execution_modes):
        solo = [_content(Sirum(config).mine(
            table, cluster=make_default_cluster(
                num_executors=2, cores_per_executor=2)
        )) for config in self.CONFIGS]
        cluster = execution_modes.cluster()
        for config, expected in zip(self.CONFIGS * 2, solo * 2):
            assert _content(Sirum(config).mine(table, cluster=cluster)) \
                == expected
            assert _retained_jobs() == 0

    def test_interleaved_from_two_threads(self, table, execution_modes):
        # Two drivers in one process; in remote mode they also share
        # the two shard workers.  Different samples, same table.
        self._interleave(execution_modes,
                         [(config, table, None) for config in self.CONFIGS])

    def test_same_sample_over_a_reregistered_table(self, table,
                                                   execution_modes):
        # Same sample rows, same partition indexes, different data: a
        # plan read across jobs would put one table's groups on the
        # other's rows.
        other = income_table(num_rows=1200, seed=6)
        sample = [tuple(row) for row in np.stack(
            [np.minimum(np.arange(16) % 7, card - 1) for card in
             RowCodec.from_table(table).cardinalities], axis=1
        )]
        config = self.CONFIGS[0]
        jobs = [(config, table, sample), (config, other, sample)]
        results = self._interleave(execution_modes, jobs)
        assert results[0] != results[1]

    @staticmethod
    def _interleave(mode, jobs):
        def run(config, table, sample, cluster):
            return mining_bytes(Sirum(config).mine(
                table, cluster=cluster, sample_rows=sample
            ))

        solo = [run(*job, cluster=make_default_cluster(
            num_executors=2, cores_per_executor=2)) for job in jobs]
        barrier = threading.Barrier(len(jobs), timeout=60.0)
        results = [None] * len(jobs)

        def drive(i):
            barrier.wait()
            for _ in range(3):
                results[i] = run(*jobs[i], cluster=mode.cluster())

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert results == solo
        assert _retained_jobs() == 0
        return results


# ----------------------------------------------------------------------
# State loss: a lost plan rebuilds to the same bytes
# ----------------------------------------------------------------------


class TestStateLoss:
    CONFIG = variant_config("optimized", k=3, sample_size=16,
                            rules_per_iteration=1, seed=2)

    @pytest.fixture(scope="class")
    def undisturbed(self, table):
        return mining_bytes(Sirum(self.CONFIG).mine(
            table, cluster=make_default_cluster(
                num_executors=2, cores_per_executor=2)
        ))

    def test_dropped_between_every_pair_of_stages(self, table, undisturbed,
                                                  execution_modes):
        cluster = before_stage(
            execution_modes.cluster(), lambda nth, kernel: drop_job_state()
        )
        before = task.job_state_stats()
        result = Sirum(self.CONFIG).mine(table, cluster=cluster)
        assert mining_bytes(result) == undisturbed
        # No plan in this process survived a stage boundary (a pool
        # child's did: the driver cannot reach those), so nothing was
        # ever found here.
        assert task.job_state_stats()["hits"] == before["hits"]

    def test_nothing_retained_at_all(self, table, undisturbed,
                                     execution_modes, monkeypatch):
        # Patched before any child forks, so the children inherit it.
        monkeypatch.setattr(task, "MAX_STATE_BYTES", 0)
        before = task.job_state_stats()
        result = Sirum(self.CONFIG).mine(
            table, cluster=execution_modes.cluster()
        )
        assert mining_bytes(result) == undisturbed
        after = task.job_state_stats()
        assert after["hits"] == before["hits"]
        assert after["bytes"] == 0
        assert after["not_retained"] > before["not_retained"]


# ----------------------------------------------------------------------
# Generated jobs (ROADMAP 7(1), the slice retained state can break)
# ----------------------------------------------------------------------


def _generated_table(kind, rows, seed):
    rng = np.random.default_rng(seed)
    cards = [6, 3, 5, 2]
    if kind == "duplicates":
        dims = np.tile(rng.integers(0, 3, size=len(cards)), (rows, 1))
    else:  # Zipf-skewed: a few values carry most rows
        dims = np.stack([
            np.minimum(rng.zipf(1.6, size=rows) - 1, card - 1)
            for card in cards
        ], axis=1)
    measure = 1.0 + rng.random(rows) * 10.0 ** rng.integers(0, 3, size=rows)
    schema = Schema(["A", "B", "C", "D"], "m")
    return Table.from_rows(
        schema, [tuple(int(v) for v in row) + (float(m),)
                 for row, m in zip(dims, measure)]
    )


def _outcome(config, table, dataset_state):
    try:
        return mining_bytes(Sirum(config).mine(
            table, dataset_state=dataset_state
        ))
    except ReproError as exc:
        return type(exc), str(exc)


class TestGeneratedJobs:
    @pytest.mark.parametrize("storage", ["ram", "file"])
    @given(
        kind=st.sampled_from(["zipf", "duplicates"]),
        rows=st.integers(6, 90),
        # One-row partitions when there are at least as many as rows.
        num_partitions=st.sampled_from([1, 3, 16, 128]),
        # 11 bits: one sort groups everything.  62: the LCA and
        # ancestor kernels group through ``np.unique``.  68: the keys
        # are Python ints, and the job must mine the native bytes.
        codec_bits=st.sampled_from([None, 62, 68]),
        k=st.integers(1, 3),
        sample_size=st.integers(1, 9),
        rules_per_iteration=st.integers(1, 2),
        num_column_groups=st.sampled_from([None, 2, 3]),
        use_fast_pruning=st.booleans(),
        reset_lambdas=st.booleans(),
        eliminate_redundant=st.booleans(),
        exhaustive=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_job_equals_itself_with_every_slot_forced_empty(
            self, storage, kind, rows, num_partitions, codec_bits, k,
            sample_size, rules_per_iteration, num_column_groups,
            use_fast_pruning, reset_lambdas, eliminate_redundant,
            exhaustive, seed):
        config = SirumConfig(
            k=k, sample_size=sample_size, use_rct=True,
            rules_per_iteration=rules_per_iteration,
            num_column_groups=num_column_groups,
            use_fast_pruning=use_fast_pruning, reset_lambdas=reset_lambdas,
            eliminate_redundant=eliminate_redundant, exhaustive=exhaustive,
            num_partitions=num_partitions, seed=seed,
        )
        table = _generated_table(kind, rows, seed)
        with tempfile.TemporaryDirectory() as scratch:
            if storage == "file":
                path = os.path.join(scratch, "t.col")
                write_colfile(table, path, block_rows=16)
                # CI's tiny-pool size: blocks are evicted mid-job.
                table = Table.open_colfile(path, capacity_bytes=262144)
            dataset_state = None
            if codec_bits is not None:
                widths = {62: [2 ** 19, 2 ** 19, 2 ** 19, 2],
                          68: [2 ** 16] * 4}[codec_bits]
                dataset_state = types.SimpleNamespace(
                    table=table, codec=RowCodec(widths),
                    transform=MeasureTransform.fit(table.measure),
                )
            try:
                before = task.job_state_stats()
                retained = _outcome(config, table, dataset_state)
                asked = task.job_state_stats()["misses"] - before["misses"]
                if not isinstance(retained[0], type):
                    assert asked > 0
                if codec_bits == 68:
                    assert _outcome(config, table, None) == retained
                with mock.patch.object(task, "MAX_STATE_BYTES", 0):
                    assert _outcome(config, table, dataset_state) == retained
            finally:
                if storage == "file":
                    table.close()
        assert _retained_jobs() == 0

    def test_a_wide_codec_mines_the_native_bytes_in_every_mode(
            self, execution_modes):
        # Keys past 63 bits are Python ints: pickled, never shared
        # memory, in process and remote mode.  Nothing of that shows.
        @settings(max_examples=10, deadline=None)
        @given(
            kind=st.sampled_from(["zipf", "duplicates"]),
            rows=st.integers(6, 60),
            num_partitions=st.sampled_from([1, 3, 8]),
            k=st.integers(1, 3),
            sample_size=st.integers(1, 9),
            rules_per_iteration=st.integers(1, 2),
            num_column_groups=st.sampled_from([None, 2, 3]),
            use_fast_pruning=st.booleans(),
            eliminate_redundant=st.booleans(),
            exhaustive=st.booleans(),
            seed=st.integers(0, 2 ** 16),
        )
        def check(kind, rows, num_partitions, k, sample_size,
                  rules_per_iteration, num_column_groups, use_fast_pruning,
                  eliminate_redundant, exhaustive, seed):
            config = SirumConfig(
                k=k, sample_size=sample_size, use_rct=True,
                rules_per_iteration=rules_per_iteration,
                num_column_groups=num_column_groups,
                use_fast_pruning=use_fast_pruning,
                eliminate_redundant=eliminate_redundant,
                exhaustive=exhaustive,
                num_partitions=num_partitions, seed=seed,
            )
            table = _generated_table(kind, rows, seed)
            wide = types.SimpleNamespace(
                table=table, codec=RowCodec([2 ** 40] * 4),
                transform=MeasureTransform.fit(table.measure),
            )
            def outcome(cluster, dataset_state):
                try:
                    return mining_bytes(Sirum(config).mine(
                        table, cluster=cluster, dataset_state=dataset_state,
                    ))
                except ReproError as exc:
                    return type(exc), str(exc)

            # The serial twin of the mode's cluster, on the native codec.
            with make_default_cluster(num_executors=2,
                                      cores_per_executor=2) as serial:
                native = outcome(serial, None)
            assert outcome(execution_modes.cluster(), wide) == native

        check()
        assert _retained_jobs() == 0
