"""SparkSQL regime: Spark with a plan-translation inefficiency.

Thesis §5.2: SparkSQL translated the SIRUM queries into execution plans
the authors found less efficient than their hand-optimized Spark data
operators (extra exchanges, less selective pipelines).  Modeled as the
Spark regime with compute and shuffle rates scaled by an inefficiency
factor.
"""

from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel

#: Relative cost of the generated plan vs hand-written operators.
PLAN_INEFFICIENCY = 1.7


def sparksql_cluster(
    num_executors=16,
    cores_per_executor=8,
    executor_memory_bytes=256 * 1024**2,
    seed=7,
    **mode,
):
    spec = ClusterSpec(
        num_executors=num_executors,
        cores_per_executor=cores_per_executor,
        executor_memory_bytes=executor_memory_bytes,
        storage_fraction=0.6,
        straggler_sigma=0.0,
        seed=seed,
    )
    base = CostModel()
    cost = CostModel(
        op_seconds=base.op_seconds * PLAN_INEFFICIENCY,
        record_seconds=base.record_seconds * PLAN_INEFFICIENCY,
        shuffle_byte_seconds=base.shuffle_byte_seconds * PLAN_INEFFICIENCY,
        broadcast_byte_seconds=base.broadcast_byte_seconds,
        disk_byte_seconds=base.disk_byte_seconds,
        task_launch_seconds=base.task_launch_seconds,
        stage_overhead_seconds=base.stage_overhead_seconds * PLAN_INEFFICIENCY,
    )
    return ClusterContext(spec, cost, **mode)
