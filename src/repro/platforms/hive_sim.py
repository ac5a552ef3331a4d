"""Hive-on-MapReduce regime (thesis §2.6.2, §5.2).

Each HiveQL stage is a MapReduce job: YARN containers are launched per
job (seconds of latency) and every intermediate result is written to
replicated HDFS and read back by the next job.  §5.2 found these two
factors — disk/network I/O for intermediates plus slow task
launch/cleanup — make Hive an order of magnitude slower than Spark on
the same cluster.
"""

from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel

#: HDFS replication factor applied to materialized intermediates.
HDFS_REPLICATION = 3


def hive_cluster(
    num_executors=16,
    cores_per_executor=8,
    executor_memory_bytes=4 * 1024,
    seed=7,
    **mode,
):
    spec = ClusterSpec(
        num_executors=num_executors,
        cores_per_executor=cores_per_executor,
        # MapReduce has no long-lived in-memory partition cache: the
        # input is re-read from HDFS by every job.  A token per-executor
        # memory (scaled-data bytes) guarantees nothing ever caches.
        executor_memory_bytes=executor_memory_bytes,
        storage_fraction=0.01,
        straggler_sigma=0.0,
        seed=seed,
    )
    cost = CostModel(
        # Containers are provisioned per job: YARN allocation, JVM
        # startup and cleanup add serial seconds per MapReduce job (the
        # §5.2 "launching and cleaning up tasks are slower" finding).
        task_launch_seconds=0.05,
        stage_overhead_seconds=0.05,
        job_launch_seconds=4.0,
        # Shuffle output spills to disk and intermediates are written to
        # replicated HDFS and read back: charge write x replication +
        # read on top of the network transfer.
        shuffle_byte_seconds=2e-6 + 4e-6 * (HDFS_REPLICATION + 1),
        disk_byte_seconds=1.2e-5,
    )
    return ClusterContext(spec, cost, **mode)
