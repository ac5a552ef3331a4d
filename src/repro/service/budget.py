"""Engine-worker budget: admission control for intra-job parallelism.

The service multiplies two parallelism axes: ``num_workers`` concurrent
jobs, each running a simulated cluster with its own ``parallelism``
engine workers.  Left alone they oversubscribe — 8 jobs x 4 engine
workers is 32 runnable threads (or processes) on a 4-core host — which
inflates tail latency exactly where the paper's interactive story
needs it flat.

:class:`EngineBudget` treats total engine workers as one machine-wide
resource.  Each job *requests* a degree (its configured
``parallelism``) and is *granted* a degree between 1 and the request,
never exceeding what is left of ``max_engine_workers`` — a job
degrades all the way to serial rather than wait:

- while a slot is free, admission is immediate and the grant is
  clamped to the free slots (a job asking for 4 when 2 are free runs
  with 2 — *degraded*, possibly to serial);
- when no slot is free the request *blocks* (FIFO, no barging) until
  running jobs release slots, so the aggregate degree never exceeds
  the budget;
- releases wake the queue head first, and a request that arrives after
  a release is granted against the replenished pool — queued jobs
  *re-expand* instead of being pinned at their degraded degree.

Degraded grants are safe because the engine's determinism contract
(PR 3/4) makes the granted degree unobservable in results: rules,
lambda estimates and every simulated metric are bit-identical from
serial through any worker count.  The budget therefore only shapes
wall-clock behaviour, never output.

A :class:`BudgetGrant` releases its slots exactly once — explicitly,
via context manager, or through the cluster that carries it
(:class:`~repro.engine.cluster.ClusterContext` releases its grant on
``close()``, which the service's job runners invoke in ``finally`` on
every completion *and* abort path).

Local capacity is a count: a grant says how many local workers the job
may run; which ones is the job's cluster's business — it reserves the
lowest free children of the pool at its first process stage.  With
``remote_workers`` the budget also tracks shard-worker capacity on
other hosts, and those are granted by address: when the local pool cannot
admit a job, the grant *spills* — it holds free remote workers instead
(``grant.remote_addresses`` names them), and the service builds the
job's cluster with ``executor="remote"`` on exactly those addresses.
Grants never mix hosts with local workers: a stage runs either on this
host's pools or on shard workers, and determinism (above) makes the
choice unobservable in results.

There is no way to switch the budget off: a service that wants every
job at its full requested degree regardless of load sets
``max_engine_workers = num_workers * engine_parallelism``.

The budget also *owns* the local process workers it counts: one
:class:`~repro.engine.executors.ProcessPool` of ``max_engine_workers``
children, started by the first process-mode job and stopped by
:meth:`EngineBudget.close`.  A local grant lends it
(:attr:`BudgetGrant.process_pool`); the job's cluster reserves
``granted`` of its children, runs every batch on those and returns
them when it closes, so grants summing to at most the cap means a
reservation is always met — by construction, not by each job forking
its own.  Children therefore outlive jobs (forked once, imports and
attachment caches warm), and a child that dies costs the stage that
saw it a rerun on threads and is replaced alone
(``stats()["pool_restarts"]`` counts replaced children), not the
service.
"""

import os
import threading
import time

from collections import deque

from repro.common.errors import BudgetExhaustedError, ServiceError
from repro.engine.executors import ProcessPool


def default_max_engine_workers():
    """The machine's usable core count (the budget's default capacity)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without affinity
        return max(1, os.cpu_count() or 1)


class BudgetGrant:
    """One job's allocation; release exactly once when the job ends.

    ``granted`` is the degree the job may run at.  A local grant holds
    that many of the budget's local workers; a
    *spilled* one holds the shard workers named in
    ``remote_addresses`` (``len(remote_addresses) == granted``).
    """

    __slots__ = ("requested", "granted", "wait_seconds",
                 "remote_addresses", "_budget", "_lock", "_released")

    def __init__(self, budget, requested, granted, wait_seconds,
                 remote_addresses=()):
        self._budget = budget
        self.requested = requested
        self.granted = granted
        self.wait_seconds = wait_seconds
        self.remote_addresses = tuple(remote_addresses)
        self._lock = threading.Lock()
        self._released = False

    @property
    def degraded(self):
        """True when the budget granted less than was requested."""
        return self.granted < self.requested

    @property
    def spilled(self):
        """True when the grant holds remote shard workers, not local
        ones — the job should run with ``executor="remote"`` against
        :attr:`remote_addresses`."""
        return bool(self.remote_addresses)

    @property
    def released(self):
        return self._released

    @property
    def process_pool(self):
        """The budget's process pool, lent to this job's cluster for
        as long as it holds the grant (``None`` for a spilled grant:
        it holds no local worker)."""
        return None if self.spilled else self._budget._process_pool

    def release(self):
        """Return the allocation to the budget (idempotent)."""
        with self._lock:
            if self._released:
                return False
            self._released = True
        self._budget._release(self)
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.release()

    def __repr__(self):
        return "BudgetGrant(requested=%d, granted=%d, remote=%r, " \
            "wait=%.4fs%s)" % (
                self.requested, self.granted, self.remote_addresses,
                self.wait_seconds, ", released" if self._released else "",
            )


class EngineBudget:
    """Budgets engine workers across concurrent jobs (see module doc).

    Parameters
    ----------
    max_engine_workers:
        Total engine-worker slots across all concurrent jobs; ``None``
        means the host's usable core count.
    remote_workers:
        Shard-worker addresses (``"host:port"``) on other hosts.  Each
        is one slot of *spill* capacity: a job the local pool cannot
        admit is granted free remote workers instead of blocking (see
        module doc).
    """

    def __init__(self, max_engine_workers=None, remote_workers=()):
        if max_engine_workers is None:
            max_engine_workers = default_max_engine_workers()
        if max_engine_workers < 1:
            raise ServiceError("max_engine_workers must be at least 1")
        self.max_engine_workers = int(max_engine_workers)
        self.remote_workers = tuple(str(w) for w in remote_workers)
        self._cond = threading.Condition()
        self._in_use = 0
        # Free shard workers, kept in configured order so spills take
        # the first free ones — a job spilling after a release tends to
        # get the same workers back, whose block caches are warm.
        self._free_remote = list(self.remote_workers)
        self._waiters = deque()  # FIFO admission: no barging past the head
        # The local workers this budget counts, for process-mode jobs:
        # no child exists until one runs a stage on it.
        self._process_pool = ProcessPool(self.max_engine_workers)
        self._grants = 0
        self._degraded_grants = 0
        self._spilled_grants = 0
        self._releases = 0
        self._timeouts = 0
        self._total_wait_seconds = 0.0
        self._peak_in_use = 0

    # -- allocation ----------------------------------------------------

    def acquire(self, requested, timeout=None):
        """Block until a degree can be granted; returns a :class:`BudgetGrant`.

        ``requested`` is the job's desired parallelism; the grant is
        ``min(requested, free_slots)``, at least 1.  ``timeout`` bounds
        the wait in seconds; on expiry :class:`BudgetExhaustedError`
        raises and no slots are held.

        Local slots are preferred.  When none is free but a *remote*
        worker is, the grant spills: it holds free remote workers
        instead (``grant.spilled``), keeping the job admitted instead
        of queued behind the local pool.
        """
        requested = int(requested)
        if requested < 1:
            raise ServiceError("requested parallelism must be at least 1")
        # The request is recorded as asked — a job wanting 4 on a
        # capacity-1 budget is *degraded* to 1, and should read as
        # such — but no grant can exceed what exists.
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        ticket = object()
        with self._cond:
            self._waiters.append(ticket)
            try:
                while not (self._waiters[0] is ticket
                           and (self._available_locked() >= 1
                                or self._free_remote)):
                    remaining = (
                        None if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        self._timeouts += 1
                        raise BudgetExhaustedError(
                            "no engine-worker slots freed within %.3fs "
                            "(%d/%d in use, %d waiting)" % (
                                timeout, self._in_use,
                                self.max_engine_workers,
                                len(self._waiters),
                            )
                        )
                    self._cond.wait(remaining)
                remote_addresses = ()
                if self._available_locked() >= 1:
                    granted = min(requested, self._available_locked())
                    self._in_use += granted
                    self._peak_in_use = max(self._peak_in_use,
                                            self._in_use)
                else:
                    # Spill: the local pool is exhausted but remote
                    # shard workers are free — put the whole grant
                    # there (all-remote, never mixed; a cluster runs
                    # one executor).
                    granted = min(requested, len(self._free_remote))
                    remote_addresses = tuple(self._free_remote[:granted])
                    del self._free_remote[:granted]
                    self._spilled_grants += 1
                self._grants += 1
                if granted < requested:
                    self._degraded_grants += 1
                wait_seconds = time.monotonic() - started
                self._total_wait_seconds += wait_seconds
            finally:
                try:
                    self._waiters.remove(ticket)
                except ValueError:
                    pass
                # Whatever happened to this ticket, the next waiter may
                # now be at the head with slots available.
                self._cond.notify_all()
        return BudgetGrant(self, requested, granted, wait_seconds,
                           remote_addresses=remote_addresses)

    def _release(self, grant):
        with self._cond:
            if grant.spilled:
                self._free_remote.extend(grant.remote_addresses)
                self._free_remote.sort(key=self.remote_workers.index)
            else:
                self._in_use -= grant.granted
            self._releases += 1
            self._cond.notify_all()

    def _available_locked(self):
        return self.max_engine_workers - self._in_use

    # -- introspection -------------------------------------------------

    @property
    def in_use(self):
        """Slots currently allocated to running jobs."""
        with self._cond:
            return self._in_use

    @property
    def available(self):
        """Slots free for the next admission."""
        with self._cond:
            return self._available_locked()

    @property
    def waiting(self):
        """Requests currently blocked on the budget."""
        with self._cond:
            return len(self._waiters)

    def stats(self):
        """One dict of budget counters, for the service's ``stats()``."""
        with self._cond:
            return {
                "max_engine_workers": self.max_engine_workers,
                "in_use": self._in_use,
                "available": self._available_locked(),
                "waiting": len(self._waiters),
                "peak_in_use": self._peak_in_use,
                "remote_workers": len(self.remote_workers),
                "remote_in_use": (len(self.remote_workers)
                                  - len(self._free_remote)),
                "remote_available": len(self._free_remote),
                "grants": self._grants,
                "degraded_grants": self._degraded_grants,
                "spilled_grants": self._spilled_grants,
                "releases": self._releases,
                "timeouts": self._timeouts,
                "total_wait_seconds": self._total_wait_seconds,
                "pool_restarts": self._process_pool.restarts,
            }

    def close(self, wait=True):
        """Stop the process workers this budget owns (idempotent).

        Jobs still running finish their process stages on threads.
        """
        self._process_pool.shutdown(wait=wait)

    def __repr__(self):
        with self._cond:
            return "EngineBudget(%d/%d in use, %d waiting)" % (
                self._in_use, self.max_engine_workers, len(self._waiters)
            )
