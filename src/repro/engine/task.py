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
"""


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
        """Queue a partition-cache access for deterministic replay."""
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
