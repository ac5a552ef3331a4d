"""Process workers belong to the service, not to a job.

With ``engine_executor="process"`` the engine budget owns one process
pool as wide as ``max_engine_workers``; every job's cluster runs on it
and leaves it running.  These tests pin the lifetime (forked once, gone
with ``close()``), the cap (never more children than the budget has
slots), freshness (a long-lived child holds no dataset state) and what
a dead child costs (one stage rerun, one replaced child, no failed
job).
"""

import itertools
import os
import signal
import sys
import threading
import time

import pytest

from repro.core.miner import make_default_cluster, mine
from repro.data.colfile import write_colfile
from repro.data.generators import income_table
from repro.data.table import Table
from repro.service import RuleMiningService, ServiceConfig
from tests.conftest import (
    between_iterations,
    child_pids,
    kill_child_before_stage,
    mining_bytes,
)

MINE = dict(k=3, sample_size=16, variant="optimized")


def _process_config(**overrides):
    config = dict(num_workers=1, engine_executor="process",
                  engine_parallelism=2, max_engine_workers=2)
    config.update(overrides)
    return ServiceConfig(**config)


@pytest.fixture
def table():
    return income_table(num_rows=1200, seed=5)


@pytest.fixture
def reference(table):
    """Serial results per seed, computed on demand."""
    cache = {}

    def expected(seed, of=table):
        key = (id(of), seed)
        if key not in cache:
            cache[key] = mining_bytes(mine(of, parallelism=1, seed=seed,
                                           **MINE))
        return cache[key]

    return expected


class TestLifetime:
    def test_children_fork_once_and_go_with_the_service(
            self, table, reference, tmp_path, deadline):
        path = tmp_path / "income.col"
        write_colfile(table, path, block_rows=256)
        file_table = Table.open_colfile(path)
        before = child_pids()
        service = RuleMiningService(_process_config())
        try:
            service.register_dataset("income", file_table)
            assert child_pids() <= before  # nothing forks until a job runs
            seen = []
            for seed in range(20):
                result = service.mine("income", seed=seed,
                                      timeout=deadline.remaining(), **MINE)
                assert mining_bytes(result) == reference(seed)
                seen.append(child_pids() - before)
            assert len(seen[0]) == 2
            assert all(pids == seen[0] for pids in seen)
            budget = service.stats()["budget"]
            assert (budget["in_use"], budget["pool_restarts"]) == (0, 0)
        finally:
            service.close()
            file_table.close()
        assert child_pids() <= before
        service.close()  # a second close is a no-op
        assert child_pids() <= before

    def test_close_without_waiting_neither_hangs_nor_leaves_children(
            self, table, reference, deadline):
        before = child_pids()
        service = RuleMiningService(_process_config())
        service.register_dataset("income", table)
        service.mine("income", seed=0, timeout=deadline.remaining(), **MINE)
        assert child_pids() - before
        handle = service.submit_mine("income", seed=1, **MINE)
        started = time.monotonic()
        service.close(wait=False)
        assert time.monotonic() - started < 5.0
        # The job in flight still finishes — on the children while its
        # batches were already submitted, on threads after that.
        assert mining_bytes(handle.result(deadline.remaining())) == \
            reference(1)
        while child_pids() - before:
            deadline.remaining()
            time.sleep(0.02)

    def test_concurrent_jobs_never_exceed_the_cap(self, table, reference,
                                                  deadline):
        before = child_pids()
        peak = [0]
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                peak[0] = max(peak[0], len(child_pids() - before))
                time.sleep(0.005)

        watcher = threading.Thread(target=watch)
        interval = sys.getswitchinterval()
        with RuleMiningService(_process_config(
            num_workers=8, engine_parallelism=4, max_engine_workers=4,
        )) as service:
            service.register_dataset("income", table)
            watcher.start()
            # Eight job threads share one pool object: switch threads
            # often, so a second pool started by a racing job (eight
            # children instead of four) would show.
            sys.setswitchinterval(1e-5)
            try:
                handles = [service.submit_mine("income", seed=seed, **MINE)
                           for seed in range(8)]
                for seed, handle in enumerate(handles):
                    assert mining_bytes(
                        handle.result(deadline.remaining())
                    ) == reference(seed)
            finally:
                sys.setswitchinterval(interval)
                stop.set()
                watcher.join()
            budget = service.stats()["budget"]
        assert 1 <= peak[0] <= 4
        assert budget["in_use"] == 0
        assert budget["peak_in_use"] <= 4
        assert budget["grants"] == 8


class TestFreshness:
    """Long-lived children hold no dataset state: everything reaches
    them as shm / mmap descriptors, so new data under an old name (and
    an old path) is what the next job mines."""

    @pytest.mark.parametrize("storage", ["ram", "file"])
    def test_reregistered_data_is_what_the_next_job_mines(
            self, storage, reference, tmp_path, deadline):
        versions = [income_table(num_rows=1200, seed=seed)
                    for seed in (5, 6)]
        path = tmp_path / "income.col"
        opened = []

        def stored(version):
            if storage == "ram":
                return version
            write_colfile(version, path, block_rows=256)
            opened.append(Table.open_colfile(path))
            return opened[-1]

        before = child_pids()
        with RuleMiningService(_process_config()) as service:
            results, workers = [], []
            for version in versions:
                service.register_dataset("income", stored(version))
                results.append(mining_bytes(service.mine(
                    "income", seed=0, timeout=deadline.remaining(), **MINE
                )))
                workers.append(child_pids() - before)
            # The same children served both versions.
            assert workers[0] and workers[0] == workers[1]
        for file_table in opened:
            file_table.close()
        assert results[0] == reference(0, of=versions[0])
        assert results[1] == reference(0, of=versions[1])
        assert results[0] != results[1]


class TestDeadChild:
    def test_kill_between_jobs_and_during_one(self, table, reference,
                                              deadline):
        before = child_pids()
        kill_at = [None]  # stage number the next job loses a child at

        def make_cluster(budget_grant):
            cluster = make_default_cluster(
                parallelism=budget_grant.granted, executor="process",
                budget_grant=budget_grant,
            )
            if kill_at[0] is not None:
                kill_child_before_stage(cluster, kill_at[0], before)
                kill_at[0] = None
            return cluster

        with RuleMiningService(_process_config(),
                               make_cluster=make_cluster) as service:
            service.register_dataset("income", table)

            def job(seed):
                return mining_bytes(service.mine(
                    "income", seed=seed, timeout=deadline.remaining(), **MINE
                ))

            assert job(0) == reference(0)
            first = child_pids() - before
            os.kill(min(first), signal.SIGKILL)  # between two jobs
            time.sleep(0.2)
            assert job(1) == reference(1)
            assert service.stats()["budget"]["pool_restarts"] == 1
            second = child_pids() - before
            # One new pid; the survivor kept its own (and its plans).
            assert len(second) == 2 and second & first == first - {min(first)}
            kill_at[0] = 5  # during one
            assert job(2) == reference(2)
            assert job(3) == reference(3)
            stats = service.stats()
        assert stats["budget"]["pool_restarts"] == 2
        assert stats["jobs"]["failed"] == 0
        assert stats["jobs"]["completed"] == 4
        assert child_pids() <= before

    def test_kill_between_iterations(self, table, reference, deadline):
        # The children that ran iteration 1 hold the job's plans; kill
        # one before iteration 2 and the stage reruns on threads, then
        # on fresh children — every plan rebuilt, the same bytes out.
        before = child_pids()

        def make_cluster(budget_grant):
            return between_iterations(make_default_cluster(
                parallelism=budget_grant.granted, executor="process",
                budget_grant=budget_grant,
            ), lambda: os.kill(min(child_pids() - before), signal.SIGKILL))

        with RuleMiningService(_process_config(),
                               make_cluster=make_cluster) as service:
            service.register_dataset("income", table)
            for seed in (0, 1):
                assert mining_bytes(service.mine(
                    "income", seed=seed, timeout=deadline.remaining(),
                    **MINE
                )) == reference(seed)
            stats = service.stats()
        assert stats["budget"]["pool_restarts"] == 2
        assert stats["jobs"]["failed"] == 0
        assert stats["job_state"]["jobs"] == 0
        assert child_pids() <= before

    def test_two_jobs_seeing_one_broken_pool_restart_it_once(
            self, table, reference, deadline):
        before = child_pids()
        meet = threading.Barrier(2, timeout=30.0)

        def make_cluster(budget_grant):
            cluster = make_default_cluster(
                parallelism=budget_grant.granted, executor="process",
                budget_grant=budget_grant,
            )
            run_stage = cluster.run_stage
            calls = itertools.count(1)

            # Stage six is a job's first ancestor stage: the four
            # metering passes before its prune stage run on the driver,
            # so the prune stage (the fifth) is what starts the pool.
            def run_stage_meeting_at_six(*args, **kwargs):
                if next(calls) == 6 and meet.wait() == 0:
                    os.kill(min(child_pids() - before), signal.SIGKILL)
                return run_stage(*args, **kwargs)

            cluster.run_stage = run_stage_meeting_at_six
            return cluster

        with RuleMiningService(
            _process_config(num_workers=2, max_engine_workers=4),
            make_cluster=make_cluster,
        ) as service:
            service.register_dataset("income", table)
            handles = [service.submit_mine("income", seed=seed, **MINE)
                       for seed in (0, 1)]
            for seed, handle in enumerate(handles):
                assert mining_bytes(
                    handle.result(deadline.remaining())
                ) == reference(seed)
            stats = service.stats()
        assert stats["budget"]["pool_restarts"] == 1
        assert stats["jobs"]["failed"] == 0
