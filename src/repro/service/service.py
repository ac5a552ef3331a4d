"""`RuleMiningService`: concurrent serving façade over the SIRUM engines.

The paper frames informative rule mining as an *interactive* workload —
analysts re-issue overlapping mining and SQL requests against the same
datasets — so the service optimizes for exactly that shape:

1. **Admission** — a bounded priority queue in front of a worker pool
   (:mod:`repro.service.scheduler`); overflow rejects with
   :class:`~repro.common.errors.QueueFullError` rather than buffering
   unboundedly.
2. **Coalescing** — identical in-flight requests (same dataset version
   and canonical fingerprint, :mod:`repro.service.fingerprint`) share
   one execution; duplicates get extra handles onto the same job.
3. **Versioned result cache** — completed results live in an LRU
   cache (:mod:`repro.service.cache`) keyed by the catalog/dataset
   version counter, so re-registering a dataset structurally
   invalidates every cached result computed from its old contents.

Requests resolve to the existing engines: mining runs the operator
miner (:class:`~repro.core.miner.Sirum`) or the SQL-driven miner
(:class:`~repro.platforms.sql_sirum.SqlSirum`), optionally metered as a
named platform sim; SQL queries run on one shared thread-safe
:class:`~repro.sql.engine.SqlEngine`.  Per-job queue-wait and run-time
aggregate into a :class:`~repro.common.metrics.MetricsRegistry`
(phases ``"queue_wait"`` / ``"execute"`` / ``"budget_wait"`` plus
counters), surfaced by :meth:`RuleMiningService.stats`.

A fourth mechanism keeps the two parallelism axes from multiplying:
**engine-worker budgeting** (:mod:`repro.service.budget`).  Each
mining job's simulated cluster runs real engine workers
(``engine_parallelism``), and with ``num_workers`` jobs in flight the
naive product oversubscribes the host.  Every job acquires its engine
workers from one machine-wide
:class:`~repro.service.budget.EngineBudget` capped at
``max_engine_workers``: the granted degree shrinks toward
serial when the machine is busy and re-expands as running jobs release
their slots, so the aggregate never exceeds the cap.
Granted-vs-requested degree and budget-wait time land in each job's
:class:`JobMetrics` and the service counters.

Where a job's stages run is decided once, from its grant
(:meth:`RuleMiningService._job_cluster`): a spilled grant runs on the
shard workers it names, a service configured with
``engine_executor="remote"`` on ``shard_workers``, anything else on
the configured local executor at the granted degree — the same for a
plain job and one metered as a ``platform=`` sim.
"""

import inspect
import threading

from repro.common.errors import ServiceClosedError, ServiceError
from repro.common.metrics import MetricsRegistry
from repro.core.codec import RowCodec
from repro.core.config import variant_config
from repro.core.measure import MeasureTransform
from repro.core.miner import Sirum, make_default_cluster
from repro.data.shm import attachment_cache_stats
from repro.data.table import FileBackedTable
from repro.engine.cluster import EXECUTOR_REMOTE, EXECUTORS
from repro.engine.task import job_state_stats
from repro.service.budget import EngineBudget
from repro.service.cache import ResultCache
from repro.service.fingerprint import mining_fingerprint, sql_fingerprint
from repro.service.jobs import PRIORITY_NORMAL, Job, JobHandle
from repro.service.scheduler import JobScheduler
from repro.sql.engine import SqlEngine

#: Mining execution architectures the service can route to.
MINING_ENGINES = ("operators", "sql")


def _accepts_budget_grant(factory):
    """True when ``factory`` can receive a ``budget_grant`` keyword."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins/C callables: assume not
        return False
    for param in signature.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if (param.name == "budget_grant"
                and param.kind is not inspect.Parameter.POSITIONAL_ONLY):
            return True
    return False


class ServiceConfig:
    """Tunables for :class:`RuleMiningService`."""

    def __init__(self, num_workers=4, max_queue_depth=64,
                 cache_capacity=256, engine_parallelism=None,
                 engine_executor=None, max_engine_workers=None,
                 budget_wait_seconds=None, shard_workers=None):
        if num_workers < 1:
            raise ServiceError("num_workers must be at least 1")
        if max_queue_depth < 1:
            raise ServiceError("max_queue_depth must be at least 1")
        if engine_parallelism is not None and engine_parallelism < 1:
            raise ServiceError("engine_parallelism must be at least 1")
        if engine_executor is not None and engine_executor not in EXECUTORS:
            raise ServiceError(
                "engine_executor must be one of %s" % ", ".join(EXECUTORS)
            )
        if max_engine_workers is not None and max_engine_workers < 1:
            raise ServiceError("max_engine_workers must be at least 1")
        if budget_wait_seconds is not None and budget_wait_seconds <= 0:
            raise ServiceError("budget_wait_seconds must be positive")
        if engine_executor == EXECUTOR_REMOTE and not shard_workers:
            raise ServiceError(
                "engine_executor='remote' needs shard_workers "
                "(a list of 'host:port' addresses)"
            )
        self.num_workers = num_workers
        self.max_queue_depth = max_queue_depth
        self.cache_capacity = cache_capacity
        #: Workers of each mining job's simulated-cluster engine
        #: (intra-request parallelism, on top of the worker pool's
        #: cross-request concurrency).  None means serial.  This is the
        #: degree each job *requests*; the budget may grant less.
        self.engine_parallelism = engine_parallelism
        #: Pool kind those engine workers run on ("thread"/"process"/
        #: "remote"); None means threads.
        self.engine_executor = engine_executor
        #: Machine-wide engine-worker cap shared by all concurrent jobs
        #: (None: the host's usable core count): the aggregate degree
        #: never exceeds it, jobs degrade toward serial or wait when
        #: the machine is busy.  ``num_workers * engine_parallelism``
        #: gives every job its full requested degree regardless of
        #: load.
        self.max_engine_workers = max_engine_workers
        #: Bound on how long a job may wait for budget slots before
        #: failing with BudgetExhaustedError (None: wait indefinitely).
        self.budget_wait_seconds = budget_wait_seconds
        #: Remote shard-worker addresses ("host:port").  Required with
        #: ``engine_executor="remote"`` (every job runs on them); with
        #: a local executor they are *spill* capacity — a job the local
        #: pool cannot admit is granted remote workers and runs with
        #: ``executor="remote"`` instead of queuing.
        self.shard_workers = (
            tuple(str(w) for w in shard_workers) if shard_workers else ()
        )


class DatasetHandle:
    """One registered dataset version: table plus reusable derived state.

    ``version`` is the catalog version at registration — re-registering
    a name produces a *new* handle with a higher version, which is what
    keys (and therefore invalidates) cached results.  The row codec and
    measure transform are pure functions of the table, computed lazily
    once and shared by every mining job on this version (see
    ``Sirum.mine(dataset_state=...)``).
    """

    def __init__(self, name, table, version):
        self.name = name
        self.table = table
        self.version = version
        self._codec = None
        self._transform = None
        self._lock = threading.Lock()

    @property
    def codec(self):
        with self._lock:
            if self._codec is None:
                self._codec = RowCodec.from_table(self.table)
            return self._codec

    @property
    def transform(self):
        with self._lock:
            if self._transform is None:
                self._transform = MeasureTransform.fit(self.table.measure)
            return self._transform

    def __repr__(self):
        return "DatasetHandle(%r, version=%d, rows=%d)" % (
            self.name, self.version, len(self.table)
        )


class RuleMiningService:
    """Multiplexes concurrent mining and SQL requests over one engine set.

    Parameters
    ----------
    config:
        A :class:`ServiceConfig`; defaults are sized for tests/examples.
    make_cluster:
        Factory for the simulated cluster each operator mining job
        runs on (fresh per job so metrics don't interleave), called as
        ``make_cluster(budget_grant=grant)``; the cluster it returns
        owns the grant and releases it on close.  Default: a
        :func:`~repro.core.miner.make_default_cluster` in the mode the
        grant and the config decide.
    """

    def __init__(self, config=None, make_cluster=None):
        self.config = config or ServiceConfig()
        self.engine = SqlEngine()
        self.catalog = self.engine.catalog
        # With a local executor, configured shard workers are the
        # budget's spill capacity; with engine_executor="remote" every
        # job already runs on them, so there is nothing to spill *to*.
        spill_workers = (
            () if self.config.engine_executor == EXECUTOR_REMOTE
            else self.config.shard_workers
        )
        self._budget = EngineBudget(
            max_engine_workers=self.config.max_engine_workers,
            remote_workers=spill_workers,
        )
        if make_cluster is not None and not _accepts_budget_grant(
                make_cluster):
            raise ServiceError(
                "make_cluster must accept a budget_grant keyword (the "
                "grant carries the allocated degree and must be released "
                "when the cluster closes)"
            )
        self._make_cluster = make_cluster
        self._scheduler = JobScheduler(
            num_workers=self.config.num_workers,
            max_queue_depth=self.config.max_queue_depth,
        )
        self._cache = ResultCache(capacity=self.config.cache_capacity)
        self._datasets = {}
        self._inflight = {}  # key -> Job
        self._lock = threading.Lock()
        self._metrics = MetricsRegistry()
        self._stats_sections = {}
        # Service-wide placement totals, folded from each job cluster's
        # PlacementTracker just before the cluster closes.
        self._placement = {
            "shards": 0,
            "affinity_hits": 0,
            "affinity_misses": 0,
            "rebalances": 0,
            "worker_failures": 0,
            "placed_stages": 0,
        }
        self._closed = False

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------

    def register_dataset(self, name, table, row_id_column=None):
        """Register (or replace) dataset ``name``; returns its handle.

        Replacement bumps the catalog version: in-flight jobs against
        the old version finish against the old table object (their
        results are *not* cached into the new version), and every
        cached result for the old version is evicted.
        """
        with self._lock:
            # Same-name registrations serialize here, so the versioned
            # lookup below pairs *our* relation with a version that is
            # current for it (different-name registrations may inflate
            # the number, which keys just as uniquely).
            self.engine.register_table(
                name, table, row_id_column=row_id_column
            )
            _, version = self.catalog.lookup_with_version(name)
            handle = DatasetHandle(name, table, version)
            replacing = name in self._datasets
            self._datasets[name] = handle
            self._metrics.increment("datasets_registered")
        if replacing:
            self._cache.invalidate_dataset(name)
        return handle

    def dataset(self, name):
        """The current :class:`DatasetHandle` for ``name``."""
        with self._lock:
            try:
                return self._datasets[name]
            except KeyError:
                raise ServiceError(
                    "unknown dataset %r; register_dataset() it first" % name
                ) from None

    def datasets(self):
        """Registered dataset names with their current versions."""
        with self._lock:
            return {
                name: handle.version
                for name, handle in sorted(self._datasets.items())
            }

    # ------------------------------------------------------------------
    # Asynchronous API
    # ------------------------------------------------------------------

    def submit_mine(self, dataset, k=10, variant="optimized",
                    priority=PRIORITY_NORMAL, deadline_seconds=None,
                    engine="operators", platform=None, **config_overrides):
        """Enqueue a mining request; returns a :class:`JobHandle`.

        ``engine="operators"`` runs :class:`Sirum` on a fresh simulated
        cluster; ``engine="sql"`` runs the §2.6.1 SQL-architecture
        miner.  ``platform`` names a platform sim (``"postgres"``,
        ``"hive"``, ...) to meter the job's cluster as.  Remaining
        keyword arguments override :class:`SirumConfig` fields.
        """
        if engine not in MINING_ENGINES:
            raise ServiceError(
                "unknown mining engine %r; choose from %s"
                % (engine, ", ".join(MINING_ENGINES))
            )
        handle = self.dataset(dataset)
        fingerprint = mining_fingerprint(
            variant=variant, engine=engine, platform=platform,
            k=k, **config_overrides
        )
        key = ("mine", dataset, handle.version, fingerprint)
        budget_info = {}

        def runner():
            # The job owns its cluster: close it however the job ends,
            # or every parallel mining job would leak a live worker
            # pool (the result only keeps a metrics snapshot) — and its
            # engine-worker slots.
            cluster = self._job_cluster(
                platform, metered=engine == "operators",
                budget_info=budget_info,
            )
            try:
                if engine == "sql":
                    from repro.platforms.sql_sirum import SqlSirum

                    config = variant_config(variant, k=k, **config_overrides)
                    return SqlSirum(
                        k=config.k, epsilon=config.epsilon, cluster=cluster
                    ).mine(handle.table)
                config = variant_config(variant, k=k, **config_overrides)
                return Sirum(config).mine(
                    handle.table, cluster=cluster, dataset_state=handle
                )
            finally:
                if cluster is not None:
                    self._fold_placement(cluster.placement_stats())
                    cluster.close()

        def version_current():
            # Called with the service lock held (from on_done).
            return self._datasets.get(dataset) is handle

        return self._submit(
            key, runner, "mine:%s" % dataset, priority, deadline_seconds,
            version_current, budget_info=budget_info,
        )

    def submit_query(self, sql_text, priority=PRIORITY_NORMAL,
                     deadline_seconds=None):
        """Enqueue a SQL request against the shared engine/catalog.

        Cached results key on the *catalog-wide* version (a query may
        read any number of tables), so any registration invalidates
        them — the same conservative rule as the engine's plan cache.
        """
        version = self.catalog.version
        key = ("sql", version, sql_fingerprint(sql_text))

        def runner():
            return self.engine.query(sql_text)

        def version_current():
            return self.catalog.version == version

        return self._submit(
            key, runner, "sql", priority, deadline_seconds, version_current,
        )

    # ------------------------------------------------------------------
    # Synchronous wrappers
    # ------------------------------------------------------------------

    def mine(self, dataset, timeout=None, **kwargs):
        """Submit a mining request and wait for its result."""
        return self.submit_mine(dataset, **kwargs).result(timeout)

    def query(self, sql_text, timeout=None, **kwargs):
        """Submit a SQL request and wait for its :class:`ResultSet`."""
        return self.submit_query(sql_text, **kwargs).result(timeout)

    # ------------------------------------------------------------------
    # Shared submission path
    # ------------------------------------------------------------------

    def _job_cluster(self, platform, metered=True, budget_info=None):
        """Build one job's engine cluster on a budget grant.

        Acquiring the engine-worker grant happens *here*, on the job's
        worker thread — a job blocked on slots holds a service worker
        but no engine workers, and the machine-wide aggregate degree
        stays within the budget.  The grant travels inside the cluster
        and is released by ``cluster.close()`` on every completion and
        abort path (the runners close in ``finally``).  SQL jobs build
        no cluster and spawn no engine workers, so they bypass the
        budget.
        """
        if platform is None and not metered:
            return None
        grant = self._budget.acquire(
            self.config.engine_parallelism or 1,
            timeout=self.config.budget_wait_seconds,
        )
        if budget_info is not None:
            budget_info.update(
                requested=grant.requested,
                granted=grant.granted,
                wait_seconds=grant.wait_seconds,
                spilled=grant.spilled,
                remote_addresses=grant.remote_addresses,
            )
        try:
            if platform is None and self._make_cluster is not None:
                return self._make_cluster(budget_grant=grant)
            # Where this job's stages run: a spilled grant holds remote
            # shard workers instead of local slots and the job runs on
            # them; a remote service runs every job on its fleet;
            # anything else runs on the configured local executor.  A
            # platform sim changes the cost regime, not this.
            if grant.spilled:
                executor, workers = EXECUTOR_REMOTE, grant.remote_addresses
            elif self.config.engine_executor == EXECUTOR_REMOTE:
                executor, workers = EXECUTOR_REMOTE, self.config.shard_workers
            else:
                executor, workers = self.config.engine_executor, ()
            mode = dict(parallelism=grant.granted, executor=executor,
                        workers=list(workers), budget_grant=grant)
            if platform is not None:
                from repro.platforms.base import make_platform_cluster

                return make_platform_cluster(platform, **mode)
            return make_default_cluster(**mode)
        except BaseException:
            # The cluster never existed to release the grant for us.
            grant.release()
            raise

    def _submit(self, key, runner, label, priority, deadline_seconds,
                version_current, budget_info=None):
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._metrics.increment("jobs_submitted")
            hit, value = self._cache.get(key)
            if hit:
                self._metrics.increment("cache_hits")
                return JobHandle.completed(value, cache_hit=True)
            self._metrics.increment("cache_misses")
            leader = self._inflight.get(key)
            if leader is not None:
                self._metrics.increment("coalesce_hits")
                return JobHandle(leader, coalesced=True)

            job = Job(
                runner, label=label, priority=priority,
                deadline_seconds=deadline_seconds,
            )

            def on_done():
                with self._lock:
                    # Publish to the cache *before* retiring the
                    # in-flight entry, inside one locked section:
                    # a duplicate submission therefore always sees
                    # either the in-flight leader or the cached result,
                    # never a gap in which it would re-execute.
                    if job.exception is None and version_current():
                        self._cache.put(key, job.result)
                    self._inflight.pop(key, None)
                    self._charge_phase("queue_wait", job.queue_wait_seconds)
                    self._charge_phase("execute", job.run_seconds)
                    info = job.budget_info
                    if "granted" in info:
                        self._charge_phase(
                            "budget_wait", info["wait_seconds"]
                        )
                        self._metrics.increment("budget_grants")
                        self._metrics.increment(
                            "budget_requested_workers", info["requested"]
                        )
                        self._metrics.increment(
                            "budget_granted_workers", info["granted"]
                        )
                        if info["granted"] < info["requested"]:
                            self._metrics.increment("budget_degraded_grants")
                        if info.get("spilled"):
                            self._metrics.increment("budget_spilled_grants")
                    if job.exception is None:
                        self._metrics.increment("jobs_completed")
                    else:
                        self._metrics.increment("jobs_failed")

            # Registered first, so it runs before any callback a
            # caller adds to the handle: by then the result is cached.
            job.add_done_callback(on_done)
            if budget_info is not None:
                # The runner and the job share one dict, so grant
                # numbers surface in JobHandle.metrics() and on_done.
                job.budget_info = budget_info
            self._inflight[key] = job
        try:
            self._scheduler.submit(job)
        except ServiceError:
            with self._lock:
                self._inflight.pop(key, None)
                self._metrics.increment("queue_rejections")
            raise
        return JobHandle(job)

    def _charge_phase(self, phase, seconds):
        # MetricsRegistry's phase stack is not thread-safe; callers
        # hold the service lock, making push/charge/pop atomic here.
        self._metrics.push_phase(phase)
        self._metrics.charge(seconds)
        self._metrics.pop_phase()

    def _fold_placement(self, stats):
        """Fold one closing cluster's placement counters into the totals."""
        with self._lock:
            totals = self._placement
            totals["shards"] = max(totals["shards"], stats.get("shards", 0))
            for field in ("affinity_hits", "affinity_misses", "rebalances",
                          "worker_failures", "placed_stages"):
                totals[field] += stats.get(field, 0)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def register_stats_section(self, name, provider):
        """Attach ``provider()`` as one extra ``stats()[name]`` section.

        Front-ends wrapping the service (the network server) publish
        their own counters this way, so one ``stats()`` call reports
        the whole stack — mirroring the built-in budget/buffer-pool
        sections.
        """
        with self._lock:
            if name in self._stats_sections:
                raise ServiceError(
                    "stats section %r is already registered" % name
                )
            self._stats_sections[name] = provider

    def unregister_stats_section(self, name):
        """Detach a section registered by :meth:`register_stats_section`."""
        with self._lock:
            if name not in self._stats_sections:
                raise ServiceError("no stats section %r registered" % name)
            del self._stats_sections[name]

    def stats(self):
        """One dict with job, queue, cache and timing statistics."""
        with self._lock:
            counters = dict(self._metrics.counters)
            phases = dict(self._metrics.phase_seconds)
            inflight = len(self._inflight)
            sections = dict(self._stats_sections)
        extra = {name: provider() for name, provider in sections.items()}
        return dict({
            "jobs": {
                "submitted": counters.get("jobs_submitted", 0),
                "completed": counters.get("jobs_completed", 0),
                "failed": counters.get("jobs_failed", 0),
                "inflight": inflight,
            },
            "queue": {
                "depth": self._scheduler.queue_depth,
                "max_depth": self.config.max_queue_depth,
                "workers": self.config.num_workers,
                "rejections": counters.get("queue_rejections", 0),
            },
            "cache": self._cache.info,
            "coalesce_hits": counters.get("coalesce_hits", 0),
            "phase_seconds": phases,
            "plan_cache": self.engine.plan_cache_info,
            "datasets": self.datasets(),
            "budget": self.budget_stats(),
            "buffer_pool": self.buffer_pool_stats(),
            "placement": self.placement_stats(),
            "job_state": job_state_stats(),
        }, **extra)

    def placement_stats(self):
        """Shard-placement totals across every finished job cluster.

        Shard count (largest seen), affinity hit/miss counters with the
        derived hit rate, rebalances, worker failures and how many
        stages were routed by shard id (see
        :class:`~repro.engine.placement.PlacementTracker`).
        """
        with self._lock:
            stats = dict(self._placement)
        touched = stats["affinity_hits"] + stats["affinity_misses"]
        stats["affinity_hit_rate"] = (
            stats["affinity_hits"] / touched if touched else 0.0
        )
        return stats

    def buffer_pool_stats(self):
        """Buffer-pool counters of every file-backed registered dataset.

        ``{"attached": False}`` when no registered dataset is
        file-backed; otherwise per-dataset hit-rate / resident-bytes /
        eviction counters from each table's
        :class:`~repro.data.bufferpool.BufferPool`.  Either way the
        ``attachments`` entry carries this process's worker-side
        attachment-cache hit/miss counters
        (:func:`repro.data.shm.attachment_cache_stats`).
        """
        with self._lock:
            handles = sorted(self._datasets.items())
        pools = {
            name: handle.table.buffer_pool.stats()
            for name, handle in handles
            if isinstance(handle.table, FileBackedTable)
        }
        attachments = attachment_cache_stats()
        if not pools:
            return {"attached": False, "attachments": attachments}
        return {
            "attached": True, "datasets": pools, "attachments": attachments,
        }

    def budget_stats(self):
        """Engine-worker budget state and counters."""
        return self._budget.stats()

    def close(self, wait=True):
        """Stop admissions, (by default) drain queued jobs, then stop
        the budget's process workers — with ``wait``, none is left
        when this returns."""
        with self._lock:
            self._closed = True
        self._scheduler.close(wait=wait)
        self._budget.close(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
