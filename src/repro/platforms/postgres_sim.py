"""PostgreSQL regime: single process, single core, disk-oriented.

Thesis §2.6.1: a single database session executes on one process that
cannot use more than one CPU, and the engine optimizes for disk-based
access — intermediate state is not pinned in RAM across the repeated
scans SIRUM performs.  Modeled as a 1-executor / 1-core cluster whose
storage pool is too small to cache the input (every pass re-reads from
disk), with no distributed-scheduling overheads.
"""

from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel


def postgres_cluster(num_executors=1, seed=7, **mode):
    """PostgreSQL runs single-node regardless of ``num_executors``."""
    spec = ClusterSpec(
        num_executors=1,
        cores_per_executor=1,
        # A token buffer pool: large inputs will not fit, forcing the
        # repeated full-table scans §2.6.1 describes.
        executor_memory_bytes=8 * 1024**2,
        storage_fraction=0.5,
        straggler_sigma=0.0,
        seed=seed,
    )
    cost = CostModel(
        # No cluster machinery: queries start instantly...
        task_launch_seconds=0.0,
        stage_overhead_seconds=0.002,
        # ...but all I/O is disk I/O and there is no shuffle network
        # (everything is local disk), charged at the disk rate.
        shuffle_byte_seconds=0.0,
        broadcast_byte_seconds=0.0,
        disk_byte_seconds=8e-6,
    )
    return ClusterContext(spec, cost, **mode)
