"""Shared fixtures for the test suite."""

import gc
import itertools
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.miner import make_default_cluster
from repro.data.generators import flight_table, gdelt_table, income_table
from repro.engine import task


@pytest.fixture
def flights():
    """The 14-row worked example of thesis Table 1.1."""
    return flight_table()


@pytest.fixture
def small_gdelt():
    """A small GDELT-shaped table for integration tests."""
    return gdelt_table(num_rows=800)


@pytest.fixture
def small_income():
    """A small binary-measure table for integration tests."""
    return income_table(num_rows=800)


@pytest.fixture
def cluster():
    """A fresh small cluster per test (metrics start at zero)."""
    return make_default_cluster(num_executors=2, cores_per_executor=2)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def stage_threads():
    """Live threads of any stage executor (local pool or remote)."""
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-stage") and t.is_alive()]


def child_pids():
    return {p.pid for p in multiprocessing.active_children()}


def before_stage(cluster, hook):
    """Call ``hook(nth, kernel)`` ahead of ``cluster``'s every
    ``run_stage`` call (``nth`` counts from 1)."""
    run_stage = cluster.run_stage
    calls = itertools.count(1)

    def hooked_run_stage(kernel, *args, **kwargs):
        hook(next(calls), kernel)
        return run_stage(kernel, *args, **kwargs)

    cluster.run_stage = hooked_run_stage
    return cluster


def kill_child_before_stage(cluster, nth, baseline=frozenset()):
    """``SIGKILL`` one pool child just before ``cluster``'s ``nth``
    ``run_stage`` call (children in ``baseline`` are someone else's)."""
    def kill(call, kernel):
        if call == nth:
            os.kill(min(child_pids() - baseline), signal.SIGKILL)

    return before_stage(cluster, kill)


def between_iterations(cluster, action):
    """Run ``action()`` once, between a mining job's first and second
    iteration: just before its second candidate-pruning stage, when
    whatever ran iteration 1 holds the job's plans."""
    from repro.core.miner import _prune_kernel

    prunes = itertools.count(1)

    def hook(call, kernel):
        # A data stage wraps a partial of the module-level kernel.
        bound = getattr(getattr(kernel, "kernel", None), "func", None)
        if bound is _prune_kernel and next(prunes) == 2:
            action()

    return before_stage(cluster, hook)


def drop_job_state():
    """Forget every plan this process retains, as a lost memo would."""
    for job in list(task._store.jobs):
        task.drop_job(job)


def mining_bytes(result):
    """Everything a mining result must reproduce exactly, comparable."""
    return (
        [(tuple(m.rule.values), m.avg_measure, m.count, m.gain, m.iteration)
         for m in result.rule_set],
        result.lambdas.tobytes(), result.estimates.tobytes(),
        list(result.kl_trace), result.simulated_seconds, result.metrics,
    )


def live_workers():
    """Identities of every stage thread and child process alive now."""
    return {id(t) for t in stage_threads()} | child_pids()


def shm_entries():
    """``/dev/shm`` entries named for this process (``repro-<pid>-*``).

    Nothing in the library makes shared-memory segments, so any such
    entry is a leak; the pid keeps other processes on the host out.
    """
    prefix = "repro-%d-" % os.getpid()
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(prefix)}
    except OSError:  # no /dev/shm on this platform
        return set()


def open_sockets():
    """This process's open sockets, as ``socket:[inode]`` names.

    Process children's pipes are socketpairs, so a driver end left open
    shows here too.
    """
    names = set()
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:  # no procfs on this platform
        return names
    for fd in fds:
        try:
            target = os.readlink("/proc/self/fd/" + fd)
        except OSError:  # closed since the listing (the listing's own fd)
            continue
        if target.startswith("socket:"):
            names.add(target)
    return names


def _leak_probes():
    return {
        "stage threads": {t.name for t in stage_threads()},
        "front-door threads": {t.name for t in threading.enumerate()
                               if t.name.startswith("net-")
                               and t.is_alive()},
        "child processes": child_pids(),
        "sockets": open_sockets(),
        "/dev/shm entries": shm_entries(),
        "retained job plans": set(task._store.jobs),
    }


@pytest.fixture
def no_leaked_workers():
    """Fail the test if it leaves a stage thread, a front-door thread
    (server loop, codec pool), a child process, a socket (a child's
    pipe, a connection), a shared-memory segment or a job's retained
    plans (``repro.engine.task``) behind.

    Dropped clusters and ``close(wait=False)`` wind their workers down
    in the background, so what is left gets a few seconds to go.
    """
    before = _leak_probes()
    yield
    gc.collect()
    deadline = time.monotonic() + 10.0
    while True:
        after = _leak_probes()
        leaked = {what: sorted(after[what] - before[what])
                  for what in after if after[what] - before[what]}
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    assert not leaked, "test left workers behind: %r" % leaked


#: Every way a stage can physically run.
EXECUTION_MODES = {
    "serial": dict(parallelism=1, executor="thread"),
    "thread": dict(parallelism=4, executor="thread"),
    "process": dict(parallelism=4, executor="process"),
    "remote": dict(executor="remote"),
}


class ExecutionMode:
    """One entry of :data:`EXECUTION_MODES`, able to build clusters.

    ``cluster(**kwargs)`` is :func:`make_default_cluster` in this mode
    (extra keyword arguments pass through); the remote mode runs
    against two in-process :class:`~repro.net.worker.ShardWorker`
    instances started on first use.  Leaving the ``with`` block closes
    every cluster built and stops the workers.
    """

    def __init__(self, name):
        self.name = name
        self.shard_workers = []
        self._clusters = []
        # Two driver threads may build their first clusters at once:
        # one set of shard workers, not one each (the other would leak).
        self._lock = threading.Lock()

    @property
    def ships(self):
        """True when kernels, partitions and outputs cross a pickle."""
        return self._clusters[-1].uses_processes

    def cluster(self, **kwargs):
        knobs = dict(EXECUTION_MODES[self.name])
        if self.name == "remote":
            with self._lock:
                if not self.shard_workers:
                    from repro.net.worker import ShardWorker

                    self.shard_workers = [ShardWorker().start()
                                          for _ in range(2)]
            knobs["workers"] = [w.address for w in self.shard_workers]
        kwargs.setdefault("num_executors", 2)
        kwargs.setdefault("cores_per_executor", 2)
        cluster = make_default_cluster(**knobs, **kwargs)
        self._clusters.append(cluster)
        return cluster

    def close(self):
        for cluster in self._clusters:
            cluster.close()
        for worker in self.shard_workers:
            worker.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture(params=list(EXECUTION_MODES))
def execution_modes(request):
    """The test runs once per execution mode; see :class:`ExecutionMode`."""
    with ExecutionMode(request.param) as mode:
        yield mode
