"""Cluster context: stages, scheduling, broadcast, caching.

A *stage* runs one kernel over a list of partitions, exactly like a
Spark stage runs one task per partition.  Kernels execute for real (in
process) and report their work through a
:class:`~repro.engine.task.TaskContext`; the scheduler then computes the
stage's simulated duration by placing tasks on executor cores (longest
processing time first), applying per-executor straggler factors, and
adding task-launch, shuffle and stage overheads.

Where kernels *physically* run is one seam: the cluster holds a single
executor object (:mod:`repro.engine.executors`) chosen at construction
from ``executor`` and ``parallelism`` — serial on the driver thread
(the default), a pool of N threads (NumPy-heavy kernels that release
the GIL) or N processes (pure-Python kernels that need every core), or
remote shard workers — and :meth:`ClusterContext.run_stage` asks it for
``[(output, charges)]`` in partition order.  Every mode runs a task
through the same body (:func:`repro.engine.task.run_task`) and
everything the modes could disagree on happens on the driver, after
the executor returns, in partition order:

- each task charges its own :class:`TaskContext` (exclusive, no
  locks) and ships it back as a charge record the driver applies to a
  driver-side context — integer-exact, so it is the same bytes whether
  the record crossed a function call, a pipe or a socket;
- partition-cache accesses are *deferred* and replayed in partition
  order once the stage's tasks have finished, so the LRU hit/miss
  sequence is one canonical sequence (and an aborted stage leaves the
  cache untouched);
- task durations, stage charges and counter merges are computed from
  the per-task contexts in partition order on the driver thread.

That is why all modes are bit-compatible — outputs, counters and
simulated seconds are identical — provided kernels are pure
per-partition functions.  Failure semantics are identical too: the
exception of the lowest-index failing partition propagates, in-flight
tasks are drained, and the aborted stage charges nothing.  A stage the
executor cannot ship (a kernel, partition, output or exception
instance that does not pickle; no surviving remote worker) reruns on a
local thread pool instead, counted in
``ClusterContext.fallback_stages``.

Three arguments say where stages run.  ``executor`` is the kind
(threads when not given); ``parallelism`` is the worker count — when
not given, the *granted* degree of a ``budget_grant`` (an allocation
from the service's :class:`~repro.service.budget.EngineBudget`), else
the size of a remote cluster's worker fleet, else serial; ``workers``
lists the shard-worker addresses ``executor="remote"`` runs on.  A held
grant is released when the cluster closes — after its executors have
joined, so capacity returns only once the workers it paid for are
actually gone.

A cluster joins what it *started*.  On its own, a process cluster
starts its children at its first wide stage and they exit in
``close()``.  Under a grant that lends a process pool (a local grant
of the service's :class:`~repro.service.budget.EngineBudget` does: the
budget owns the pool it budgets) the cluster's process stages run on
the lent pool, at most ``parallelism`` batches at a time, and
``close()`` leaves that pool running for the next job — releasing the
grant is what hands the workers back.

The remote executor lives with the wire code and registers itself with
:func:`~repro.engine.executors.register_executor`; nothing here imports
it.  It gives each worker one contiguous run of shards, the same run
stage after stage (:meth:`~repro.data.shardmap.ShardMap.placement_for`),
and reports what that routing achieved to this cluster's
:class:`~repro.engine.placement.PlacementTracker`
(:meth:`ClusterContext.placement_stats`).  A stage run with
``on_driver=True`` — a metering pass whose kernel charges costs derived
from partition sizes and reads no data — skips the executor in every
mode and runs on the calling thread; it is charged like any other.
"""

from contextlib import contextmanager
import heapq
import threading

from repro.common.errors import EngineError
from repro.common.metrics import MetricsRegistry
from repro.data.hdfs import SimulatedHdfs
from repro.engine.cost import ClusterSpec, CostModel
from repro.engine.executors import (
    EXECUTOR_PROCESS,
    EXECUTOR_REMOTE,
    EXECUTOR_THREAD,
    EXECUTORS,
    PoolExecutor,
    SerialExecutor,
    StageUnshippable,
    make_executor,
)
from repro.engine.memory import CacheManager
from repro.engine.placement import PlacementTracker
from repro.engine.task import TaskContext


#: Where ``run_stage(on_driver=True)`` runs tasks: the calling thread.
_DRIVER = SerialExecutor()


def _close_then_release(executors, grant):
    """Join the executors, *then* return the budget capacity they held."""
    for executor in executors:
        executor.close()
    if grant is not None:
        grant.release()


class Broadcast:
    """Handle for a read-only value replicated to every executor."""

    def __init__(self, value, size_bytes):
        self.value = value
        self.size_bytes = size_bytes


class StageResult:
    """Outputs plus accounting for one executed stage."""

    def __init__(self, outputs, simulated_seconds, tasks):
        self.outputs = outputs
        self.simulated_seconds = simulated_seconds
        self.tasks = tasks


class ClusterContext:
    """A simulated cluster: run stages, broadcast values, cache data.

    ``parallelism`` is the number of real workers partition kernels run
    on and ``executor`` the kind (``"thread"``, ``"process"`` or
    ``"remote"``; see the module docstring).  ``budget_grant`` is an
    engine-worker allocation from a
    :class:`~repro.service.budget.EngineBudget`; when ``parallelism``
    is not given the *granted* degree is used, and the grant is
    released when this cluster closes.
    """

    def __init__(self, spec=None, cost_model=None, hdfs=None,
                 parallelism=None, executor=None, budget_grant=None,
                 workers=None):
        self.spec = spec or ClusterSpec()
        self.cost = cost_model or CostModel()
        self.hdfs = hdfs or SimulatedHdfs()
        self.metrics = MetricsRegistry()
        self.cache = CacheManager(self.spec.total_storage_bytes, self.metrics)
        #: The budget allocation backing this cluster's workers (if
        #: any); released on close, on every completion/abort path.
        self.budget_grant = budget_grant
        self.executor = EXECUTOR_THREAD if executor is None else executor
        if self.executor not in EXECUTORS:
            raise EngineError(
                "executor must be one of %s, got %r"
                % (", ".join(EXECUTORS), executor)
            )
        #: Remote shard-worker addresses ("host:port" or (host, port)),
        #: required by — and only meaningful for — the remote executor.
        self.workers = list(workers) if workers else []
        if self.executor == EXECUTOR_REMOTE and not self.workers:
            raise EngineError(
                "executor='remote' needs at least one worker address "
                "(workers=[\"host:port\", ...])"
            )
        if self.executor != EXECUTOR_REMOTE and self.workers:
            raise EngineError(
                "worker addresses are only valid with executor='remote'"
            )
        if parallelism is None:
            # A grant contributes its *granted* degree — what the
            # machine-wide budget actually allocated, not what the job
            # asked for.  With nothing claiming a degree, a remote
            # cluster is as wide as its worker fleet; a local one is
            # serial.
            parallelism = (budget_grant.granted if budget_grant is not None
                           else len(self.workers) or 1)
        self.parallelism = int(parallelism)
        if self.parallelism < 1:
            raise EngineError("parallelism must be at least 1")
        self.placement = PlacementTracker()
        #: Stages the executor could not ship and that reran on local
        #: threads.  A plain attribute, not a metrics counter —
        #: registries stay bit-identical across modes.
        self.fallback_stages = 0
        #: Where stages run, and the local threads a stage the first
        #: cannot ship reruns on.  Both start workers lazily.
        # A grant may lend the process pool its budget owns (grants
        # are duck-typed here: the engine never imports the service).
        self._executors = (
            make_executor(self.executor, self.parallelism, self.placement,
                          self.workers,
                          getattr(budget_grant, "process_pool", None)),
            PoolExecutor(EXECUTOR_THREAD, self.parallelism),
        )

    @property
    def uses_processes(self):
        """True when partition data must cross a process boundary.

        Process-pool stages and remote stages both pickle their
        partitions into the batch: an in-RAM table's blocks as their
        rows, a file-backed table's as mmap descriptors.
        """
        if self.executor == EXECUTOR_REMOTE:
            return True
        return self.executor == EXECUTOR_PROCESS and self.parallelism > 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self):
        """Join the executors, then release the grant (idempotent).

        Every worker thread, process and connection this cluster
        *started* is gone when this returns; a process pool lent by
        the grant is left running for its owner.  A budget grant
        backing the cluster is released last — capacity returns to the
        machine-wide budget only after the cluster has stopped using
        the workers it paid for.
        """
        grant, self.budget_grant = self.budget_grant, None
        _close_then_release(self._executors, grant)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        try:
            executors = self._executors
            grant = self.budget_grant
        except AttributeError:  # interpreter teardown / failed __init__
            return
        if grant is None:
            for executor in executors:
                executor.close(wait=False)
            return
        # A leaked cluster must not return its capacity while the workers
        # it paid for may still be running — the budget's aggregate
        # cap would be transiently violated.  Join on a helper thread,
        # then release.
        try:
            threading.Thread(
                target=_close_then_release, args=(executors, grant),
                daemon=True,
            ).start()
        except RuntimeError:
            # Interpreter shutdown forbids new threads (3.12+).  The
            # process is exiting: release inline so no waiter is left
            # deadlocked; the cap is moot at this point.
            grant.release()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def bind_shard_map(self, shard_map):
        """Bind the tracker to ``shard_map`` — the affinity scope.

        Callers that partition through a
        :class:`~repro.data.shardmap.ShardMap` (the mining session
        does) bind it here so the tracker knows the shard count and can
        detect a rebind across dataset versions (counted as a
        *rebalance*: the old worker pins are meaningless against new
        data).  Purely observational — routing never depends on it.
        """
        self.placement.bind(shard_map)

    def placement_stats(self):
        """Worker topology and affinity counters, one dict."""
        stats = self.placement.stats()
        stats["executor"] = self.executor
        stats["workers"] = (
            len(self.workers) if self.executor == EXECUTOR_REMOTE
            else self.parallelism
        )
        stats.update(self._executors[0].stats())
        return stats

    # ------------------------------------------------------------------
    # Phase attribution
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name):
        """Attribute simulated time of enclosed stages to phase ``name``."""
        self.metrics.push_phase(name)
        try:
            yield
        finally:
            self.metrics.pop_phase()

    # ------------------------------------------------------------------
    # Broadcast variables
    # ------------------------------------------------------------------

    def broadcast(self, value, size_bytes):
        """Replicate ``value`` to all executors, charging network time.

        The charge models Spark's torrent broadcast: the payload crosses
        the network once per receiving executor.
        """
        if size_bytes < 0:
            raise EngineError("broadcast size must be non-negative")
        receivers = max(self.spec.num_executors - 1, 0)
        self.metrics.charge(
            size_bytes * receivers * self.cost.broadcast_byte_seconds
        )
        self.metrics.increment("broadcast_bytes", size_bytes * receivers)
        return Broadcast(value, size_bytes)

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------

    def run_stage(self, kernel, partitions, name="stage", shuffle_output=False,
                  on_driver=False):
        """Execute ``kernel(task_ctx, partition)`` once per partition.

        Parameters
        ----------
        kernel:
            Callable receiving a :class:`TaskContext` and one partition
            object; its return value becomes the task output.  With
            ``parallelism`` > 1 kernels run concurrently and must be
            pure per-partition functions (no shared mutable state
            beyond their own task context).
        partitions:
            Sequence of partition objects (one task each).
        shuffle_output:
            If true, each task's declared ``output_bytes`` are charged
            at the shuffle byte rate (a wide dependency follows).
        on_driver:
            Run the tasks one after another on the calling thread,
            whatever the executor.  For metering stages whose kernels
            only charge costs derived from partition sizes: shipping
            them to workers would buy nothing but round trips.  The
            stage is charged, counted and cached exactly as if it had
            run on the executor.

        Returns a :class:`StageResult` whose ``outputs`` are in
        partition order; outputs, counters and simulated seconds do
        not depend on the execution mode.  A kernel exception aborts
        the stage: pending tasks are cancelled, in-flight tasks are
        drained, the lowest-index failure propagates, and no charge —
        simulated time, counters or cache state — is applied.
        """
        partitions = list(partitions)
        if not partitions:
            return StageResult([], 0.0, [])
        executor, fallback = self._executors
        if on_driver:
            executor = _DRIVER
        try:
            records = executor.run(kernel, partitions)
        except StageUnshippable:
            # The aborted attempt merged nothing and kernels are pure,
            # so the rerun is safe and bit-identical.
            self.fallback_stages += 1
            records = fallback.run(kernel, partitions)
        tasks = []
        outputs = []
        for i, (output, charges) in enumerate(records):
            tc = TaskContext(task_id=i, partition_id=i)
            tc.apply_charges(charges)
            tasks.append(tc)
            outputs.append(output)
        # Replay deferred cache accesses in partition order — in every
        # mode, so the hit/miss sequence (and resulting disk charges)
        # is one canonical sequence and an aborted stage above never
        # touched the cache at all.
        for tc in tasks:
            for key, size_bytes in tc.cache_requests:
                tc.add_disk_bytes(self.cache.access(key, size_bytes))
            tc.cache_requests = []
        durations = [
            self.cost.task_seconds(
                tc.ops, tc.records, tc.disk_bytes, tc.light_ops
            )
            for tc in tasks
        ]
        makespan = self._schedule(durations)
        shuffle_seconds = 0.0
        if shuffle_output:
            shuffle_bytes = sum(tc.output_bytes for tc in tasks)
            shuffle_seconds = shuffle_bytes * self.cost.shuffle_byte_seconds
            self.metrics.increment("shuffle_bytes", shuffle_bytes)
        total = (
            makespan
            + shuffle_seconds
            + self.cost.stage_overhead_seconds
            + self.cost.job_launch_seconds
        )
        self.metrics.charge(total)
        self.metrics.increment("stages")
        self.metrics.increment("tasks", len(tasks))
        self.metrics.increment(
            "disk_read_bytes", sum(tc.disk_bytes for tc in tasks)
        )
        self.cache.record_timeline()
        return StageResult(outputs, total, tasks)

    def _schedule(self, durations):
        """LPT placement of task durations onto executor cores.

        Each executor contributes ``cores_per_executor`` slots running at
        the executor's straggler-adjusted speed; every task also pays the
        task-launch overhead on its slot.  Returns the stage makespan.

        When the spec enables ``speculative_execution``, tasks still
        running past ``speculation_multiplier`` times the stage's median
        task time are re-launched on the next free slot and finish at
        whichever attempt completes first — the straggler mitigation of
        Ananthanarayanan et al. [5] that thesis §5.7.2 points to.
        """
        slots = []  # heap of (available_at, slowdown_factor)
        for e in range(self.spec.num_executors):
            factor = float(self.spec.straggler_factors[e])
            for _ in range(self.spec.cores_per_executor):
                slots.append((0.0, factor))
        heapq.heapify(slots)
        launch = self.cost.task_launch_seconds
        placements = []  # (start, finish, duration)
        for duration in sorted(durations, reverse=True):
            available_at, factor = heapq.heappop(slots)
            finish = available_at + launch + duration * factor
            placements.append((available_at, finish, duration))
            heapq.heappush(slots, (finish, factor))
        if not placements:
            return 0.0
        makespan = max(finish for _s, finish, _d in placements)
        if not getattr(self.spec, "speculative_execution", False):
            return makespan

        # Speculation pass: clone attempts of tasks whose run time
        # exceeds the threshold; the clone starts once the straggling is
        # detectable (median run time after the task started).
        run_times = sorted(finish - start for start, finish, _d in placements)
        median = run_times[len(run_times) // 2]
        threshold = self.spec.speculation_multiplier * median
        makespan = 0.0
        clones = 0
        for start, finish, duration in placements:
            effective = finish
            if finish - start > threshold:
                available_at, factor = heapq.heappop(slots)
                clone_start = max(available_at, start + median)
                clone_finish = clone_start + launch + duration * factor
                effective = min(finish, clone_finish)
                clones += 1
                heapq.heappush(slots, (clone_finish, factor))
            makespan = max(makespan, effective)
        if clones:
            self.metrics.increment("speculative_clones", clones)
        return makespan

    def reset_metrics(self):
        """Start a fresh metrics registry (cache contents are kept)."""
        old = self.metrics
        self.metrics = MetricsRegistry()
        self.cache._metrics = self.metrics
        return old
