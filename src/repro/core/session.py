"""Mining session: partitioned dataset state shared across stages.

Holds the partitioned view of the input table plus the evolving mining
state — the transformed measure, the per-tuple estimates and the rule
coverage bit matrix — and funnels every pass over D through the
cluster's stage API so cache behaviour, shuffles and task costs are
metered consistently.
"""

from functools import partial

import numpy as np

from repro.common.errors import EngineError
from repro.core.codec import RowCodec
from repro.core.measure import MeasureTransform
from repro.core.rct import BitMatrix
from repro.data.table import TableBlock
from repro.engine.task import drop_job, open_job

#: A partition kernel's input: one contiguous block of the table as
#: NumPy column views (see :meth:`repro.data.table.Table.partition_blocks`).
DataPartition = TableBlock


class _DataStageKernel:
    """Picklable per-partition wrapper shared by every data stage.

    Adds the bookkeeping ``run_over_data`` owes each partition — the
    storage-cache touch (always deferred; the engine replays accesses
    in partition order) and the repartition-shuffle charge — then runs
    the stage's kernel.  A plain module-level class, so it crosses a
    process boundary whenever the wrapped kernel does.
    """

    __slots__ = ("kernel", "touch_cache", "shuffle_data")

    def __init__(self, kernel, touch_cache, shuffle_data):
        self.kernel = kernel
        self.touch_cache = touch_cache
        self.shuffle_data = shuffle_data

    def __call__(self, tc, part):
        if self.touch_cache:
            tc.request_cache_access(("data", part.index), part.size_bytes)
        if self.shuffle_data:
            tc.add_output_bytes(part.size_bytes)
        return self.kernel(tc, part)


def _coverage_kernel(tc, part, arity):
    """Charge one rule-coverage pass: d comparisons per tuple."""
    tc.add_records(part.num_rows)
    tc.add_ops(part.num_rows * arity)
    return None


class MiningSession:
    """Partitioned dataset + mining state bound to a cluster.

    ``codec`` and ``transform`` may be supplied precomputed — both are
    pure functions of the table, so a caller that mines the same
    dataset repeatedly (the concurrent mining service) computes them
    once per dataset version and skips two O(n) passes per job.
    """

    def __init__(self, cluster, table, num_partitions=None, codec=None,
                 transform=None):
        if len(table) == 0:
            raise EngineError("cannot mine an empty table")
        self.cluster = cluster
        self.table = table
        if num_partitions is None:
            num_partitions = (
                cluster.spec.num_executors * cluster.spec.cores_per_executor
            )
        num_partitions = max(1, min(num_partitions, len(table)))
        #: True when the cluster runs stages on worker processes, so
        #: partitions cross a process boundary.
        self.shared = shared = cluster.uses_processes
        #: Zero-copy contiguous blocks of the table; partition kernels
        #: receive these and vectorize over their own column views.  In
        #: process and remote mode an in-RAM table's blocks cross as
        #: their rows and a file-backed table's as mmap descriptors.
        self.partitions = table.partition_blocks(num_partitions,
                                                 shared=shared)
        self.num_partitions = len(self.partitions)
        # Bind the table's shard map to the cluster so sticky routing
        # can attribute affinity (and detect dataset-version rebinds).
        cluster.bind_shard_map(table.shard_map(num_partitions))
        n = len(table)
        #: Packed-row codec for the table's dimension domains; the
        #: candidate pipeline runs on its keys (``codec.key_dtype``).
        self.codec = codec if codec is not None else RowCodec.from_table(table)
        self.transform = (
            transform if transform is not None
            else MeasureTransform.fit(table.measure)
        )
        # Stages bind the measure and the evolving estimates into their
        # kernels, so a process child or a shard worker gets them as
        # bytes inside each stage's batch.
        #: Transformed measure (max-ent preconditioned).
        self.measure = self.transform.transformed
        #: Current per-tuple estimates in transformed space.
        self.estimates = np.ones(n, dtype=np.float64)
        #: Per-tuple rule coverage bits (RCT input).
        self.bit_matrix = BitMatrix(n)
        #: Boolean coverage masks per selected rule.
        self.masks = []
        #: The token kernels keep this job's estimate-independent plans
        #: under, wherever they run (:func:`repro.engine.task.job_slot`);
        #: minted last, so a failed construction has opened nothing.
        self.job = open_job()

    @property
    def num_rows(self):
        return len(self.table)

    def close(self):
        """Drop the plans this process kept for the job (idempotent)."""
        drop_job(self.job)

    def run_over_data(self, kernel, phase=None, shuffle_data=False,
                      shuffle_output=False, touch_cache=True,
                      on_driver=False):
        """Run ``kernel(task_ctx, partition)`` over every data partition.

        Parameters
        ----------
        kernel:
            The per-task function.
        phase:
            Optional phase label for simulated-time attribution.
        shuffle_data:
            Charge each partition's bytes as shuffle output — the cost
            profile of a repartition join over D (Naive SIRUM, §3.2).
        shuffle_output:
            Charge the kernel's declared output bytes at the shuffle
            rate (a reduce follows); implied by ``shuffle_data``.
        touch_cache:
            Account a storage-memory access per partition: free when
            cached, a disk read when evicted (§4.5).
        on_driver:
            Run the tasks on the calling thread instead of the
            cluster's executor (:meth:`ClusterContext.run_stage
            <repro.engine.cluster.ClusterContext.run_stage>`): for
            metering passes whose kernel reads no column.  Charges are
            the same either way.
        """
        cluster = self.cluster
        wrapped = _DataStageKernel(kernel, touch_cache, shuffle_data)

        def execute():
            return cluster.run_stage(
                wrapped,
                self.partitions,
                name=phase or "data_stage",
                shuffle_output=shuffle_data or shuffle_output,
                on_driver=on_driver,
            )

        if phase is not None:
            with cluster.phase(phase):
                return execute()
        return execute()

    def add_rule_coverage(self, rule, charge_phase=None):
        """Register a new rule: compute its mask and extend bit arrays.

        The mask is computed per partition via a metered stage (d
        comparisons per tuple — Algorithm 3 lines 1-5) when
        ``charge_phase`` is given, or silently for algorithms whose
        cost model charges matching elsewhere (Baseline SIRUM
        re-evaluates t matches r on every scaling pass instead).
        """
        mask = rule.match_mask(self.table)
        if charge_phase is not None:
            kernel = partial(
                _coverage_kernel, arity=self.table.schema.arity
            )
            self.run_over_data(kernel, phase=charge_phase, on_driver=True)
        self.masks.append(mask)
        self.bit_matrix.add_rule(mask)
        return mask
