"""Spark regime: parallel, in-memory caching (thesis §2.6.3)."""

from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel


def spark_cluster(
    num_executors=16,
    cores_per_executor=8,
    executor_memory_bytes=256 * 1024**2,
    storage_fraction=0.6,
    straggler_sigma=0.0,
    seed=7,
    **mode,
):
    """A Spark-like cluster: many cores, cached RDD partitions.

    Default memory is scaled down from the paper's 45 GB/executor in
    the same proportion as the datasets; benchmarks override it when a
    figure needs a memory-constrained run.  ``mode`` is forwarded to
    :class:`ClusterContext` (see
    :func:`~repro.platforms.base.make_platform_cluster`).
    """
    spec = ClusterSpec(
        num_executors=num_executors,
        cores_per_executor=cores_per_executor,
        executor_memory_bytes=executor_memory_bytes,
        storage_fraction=storage_fraction,
        straggler_sigma=straggler_sigma,
        seed=seed,
    )
    return ClusterContext(spec, CostModel(), **mode)
