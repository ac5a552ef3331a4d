"""Per-task accounting context handed to stage kernels.

A kernel receives a :class:`TaskContext` and reports the work it did:
elementary operations (comparisons, lookups, emitted pairs), records
touched and bytes read from disk.  The scheduler turns these into the
task's simulated duration via the cost model.

Each task owns its context exclusively, so kernels may charge it
without synchronization even when the stage executes on a thread pool.
The one piece of *shared* state a kernel can touch — the cluster's
partition cache — is deferred: the context records the access requests
and the driver replays them in partition order after all tasks finish,
so cache hits/misses (and the simulated seconds they produce) do not
depend on where or in which order the tasks ran.

**Job state.**  Kernels are pure up to a job-scoped memo of
estimate-independent work.  A mining job re-runs the same stages once
per iteration and between iterations only the estimates move, so a
kernel may keep what it derived from (partition, sample, codec) — a
*plan* — in this process's store, under ``(job, key)``:
:func:`job_slot` hands it the cell, ``job`` being the random token the
job's session minted (:func:`open_job`) and bound into the kernel
partials, so it rides the pickle that already crosses to pool children
and shard workers.  The store is a memo, never a source of truth: a
missing plan — first iteration, eviction, a dead child, a restarted
pool, a re-placed shard, the thread rerun of an unshippable stage — is
rebuilt from the same pure function, so every retry path stays
bit-identical.  The process that opened a job keeps its plans until
:func:`drop_job` (the session's ``close``); any other process keeps
the :data:`FOREIGN_JOBS` most recently touched jobs, and no process
keeps more than :data:`MAX_STATE_BYTES` — a plan that does not fit is
simply not retained — so a worker's residency is bounded without a
drop message.
"""

from collections import OrderedDict
import os
import threading

#: Jobs opened elsewhere whose plans a process keeps (most recently
#: touched first to stay).  A pool child or shard worker serves one
#: batch at a time, so two covers the running job and the one it
#: alternates with.
FOREIGN_JOBS = 2

#: Ceiling on the bytes of plans one process retains, all jobs
#: together.  A job holds about 4 B per (row, sample) pair plus its
#: candidate-scale ancestor and merge plans: 4.9 MB at 10 000 rows x 32
#: samples, about 55 MB at 200 000 x 64.
MAX_STATE_BYTES = 256 * 1024 ** 2


class TaskContext:
    """Mutable counters for a single simulated task."""

    def __init__(self, task_id, partition_id):
        self.task_id = task_id
        self.partition_id = partition_id
        self.ops = 0
        self.light_ops = 0
        self.records = 0
        self.disk_bytes = 0
        self.output_bytes = 0
        #: Queued partition-cache accesses; the driver replays them
        #: deterministically (see module docstring).
        self.cache_requests = []

    def add_ops(self, n):
        """Charge ``n`` dataset-proportional operations.

        These are the operations whose count scales with |D| (attribute
        comparisons over data tuples, per-pair LCA materialization,
        per-instance ancestor emissions) and therefore carry the
        row-scale factor in their rate.
        """
        self.ops += int(n)

    def add_light_ops(self, n):
        """Charge ``n`` candidate-scale operations.

        Work proportional to the number of *distinct* candidate rules
        or RCT rows — quantities that do not grow with |D| — charged at
        an unscaled per-operation rate.
        """
        self.light_ops += int(n)

    def add_records(self, n):
        """Charge ``n`` records touched (iteration/deserialization)."""
        self.records += int(n)

    def add_disk_bytes(self, n):
        """Charge ``n`` bytes read from disk (cache miss, HDFS scan)."""
        self.disk_bytes += int(n)

    def add_output_bytes(self, n):
        """Declare ``n`` bytes of task output (shuffled or collected)."""
        self.output_bytes += int(n)

    def request_cache_access(self, key, size_bytes):
        """Access a cached partition inside a task.

        On a cache hit this is free; on a miss the task is charged a
        disk read of the partition's size (HDFS re-read / recompute, as
        in thesis §4.5).  The access is queued and replayed by the
        driver in partition order, so the charge lands on the task
        context after the kernel returns, and the hit/miss sequence is
        the same in every execution mode.
        """
        self.cache_requests.append((key, int(size_bytes)))

    # ------------------------------------------------------------------
    # Cross-process transport
    # ------------------------------------------------------------------

    def charges(self):
        """The task's counters as a picklable charge record.

        Whatever ran the kernel (:func:`run_task`) sends this record
        back; the driver applies it to a fresh driver-side context
        (:meth:`apply_charges`), so every downstream step — cache
        replay, duration computation, counter merges — is one code
        path for every execution mode.
        """
        return (self.ops, self.light_ops, self.records, self.disk_bytes,
                self.output_bytes, list(self.cache_requests))

    def apply_charges(self, charges):
        """Fold a worker's charge record into this context."""
        ops, light_ops, records, disk_bytes, output_bytes, requests = charges
        self.ops += int(ops)
        self.light_ops += int(light_ops)
        self.records += int(records)
        self.disk_bytes += int(disk_bytes)
        self.output_bytes += int(output_bytes)
        self.cache_requests.extend(
            (key, int(size)) for key, size in requests
        )


def run_task(kernel, index, partition):
    """The one task body: run ``kernel`` over partition ``index``.

    Every execution mode — driver thread, pool thread, pool process,
    remote shard worker — runs a task through this function.  The
    kernel charges a task-local :class:`TaskContext` and the context
    comes back as a charge record, so the driver never shares mutable
    state with whatever ran the task.
    """
    tc = TaskContext(task_id=index, partition_id=index)
    output = kernel(tc, partition)
    return output, tc.charges()


def run_batch(kernel, tasks):
    """Run ascending ``(index, partition)`` pairs; stop at the first failure.

    The one batch body for whatever runs several tasks per message — a
    process-pool child and a remote shard worker.  Returns
    ``(records, failure)``: the :func:`run_task` records of the tasks
    that finished, in order, and ``(index, exception)`` of the first
    one that did not (``None`` when all did).  Later tasks are not
    started: the driver aborts the stage on any failure, and because
    the pairs ascend, the reported index is the batch's lowest.
    """
    records = []
    for index, partition in tasks:
        try:
            records.append(run_task(kernel, index, partition))
        except BaseException as exc:  # noqa: BLE001 — shipped to driver
            return records, (index, exc)
    return records, None


# ----------------------------------------------------------------------
# Job-scoped kernel state (see the module docstring)
# ----------------------------------------------------------------------


class _JobStateStore:
    """This process's plans, by job then slot key."""

    def __init__(self):
        self.reset()

    def reset(self):
        """Forget everything, lock included.

        Runs in a forked child (``os.register_at_fork``): the parent's
        plans are not the child's to serve, its opened jobs are foreign
        there, and a lock some parent thread held at the fork would
        never be released.
        """
        self.lock = threading.Lock()
        self.jobs = OrderedDict()  # job -> {key: plan}, least recent first
        self.opened = set()
        self.bytes = 0
        self.counters = dict.fromkeys(
            ("hits", "misses", "evictions", "not_retained"), 0
        )

    def forget(self, job):
        for plan in self.jobs.pop(job, {}).values():
            self.bytes -= plan.nbytes


_store = _JobStateStore()
os.register_at_fork(after_in_child=_store.reset)


class JobSlot:
    """One ``(job, key)`` cell of this process's store."""

    __slots__ = ("job", "key")

    def __init__(self, job, key):
        self.job = job
        self.key = key

    def get(self):
        """The retained plan, or None (the caller then builds it)."""
        with _store.lock:
            slots = _store.jobs.get(self.job)
            plan = None if slots is None else slots.get(self.key)
            if slots is not None:
                _store.jobs.move_to_end(self.job)
            _store.counters["misses" if plan is None else "hits"] += 1
            return plan

    def put(self, plan):
        """Retain ``plan`` (anything with ``nbytes``) if it fits."""
        with _store.lock:
            if _store.bytes + plan.nbytes > MAX_STATE_BYTES:
                _store.counters["not_retained"] += 1
                return
            slots = _store.jobs.setdefault(self.job, {})
            _store.jobs.move_to_end(self.job)
            old = slots.get(self.key)
            if old is not None:  # two attempts of one task raced here
                _store.bytes -= old.nbytes
            slots[self.key] = plan
            _store.bytes += plan.nbytes
            if self.job in _store.opened:
                return
            # Only a foreign job's arrival can push a foreign job out.
            foreign = [job for job in _store.jobs
                       if job not in _store.opened]
            for job in foreign[:max(len(foreign) - FOREIGN_JOBS, 0)]:
                _store.counters["evictions"] += len(_store.jobs[job])
                _store.forget(job)


def open_job():
    """Mint a job token; this process keeps the job's plans until
    :func:`drop_job`.

    Random, not pid + counter: two drivers can share a shard worker.
    """
    job = os.urandom(16)
    with _store.lock:
        _store.opened.add(job)
    return job


def job_slot(job, key):
    """This process's cell for ``(job, key)``; None when ``job`` is None
    (a kernel called outside a job keeps nothing)."""
    return None if job is None else JobSlot(job, key)


def drop_job(job):
    """Forget ``job``'s plans in this process (idempotent)."""
    with _store.lock:
        _store.opened.discard(job)
        _store.forget(job)


def job_state_stats():
    """What the calling process retains, and how the memo has served.

    ``jobs`` / ``slots`` / ``bytes`` are current; ``hits``, ``misses``,
    ``evictions`` (slots lost to the :data:`FOREIGN_JOBS` rule) and
    ``not_retained`` (plans refused by :data:`MAX_STATE_BYTES`) count
    since the process started.  They live here, not in a cluster's
    metrics: hit counts differ by execution mode and a metrics snapshot
    must not.
    """
    with _store.lock:
        return dict(
            _store.counters,
            jobs=len(_store.jobs),
            slots=sum(len(slots) for slots in _store.jobs.values()),
            bytes=_store.bytes,
        )
