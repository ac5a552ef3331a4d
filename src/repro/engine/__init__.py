"""sparklet — a partitioned dataflow engine with a simulated cost model.

The thesis runs SIRUM on a 16-node Spark/YARN/HDFS cluster.  This
package substitutes that substrate: computation is executed *exactly*
(partitioned, shuffled and broadcast like the Spark implementation), in
process, while a deterministic cost model meters what the same work
would cost a cluster — per-task CPU, task-launch overhead, shuffle and
broadcast bytes, disk I/O on cache misses, and per-node straggler
factors.  Benchmarks report this simulated cluster time, which is what
makes the thesis's scalability figures reproducible on one machine.

Main entry points:

- :class:`~repro.engine.cluster.ClusterContext` — executors, memory,
  broadcast variables, and ``run_stage``, the one stage API: a kernel
  over partitions, metered as one stage;
- :class:`~repro.engine.cost.CostModel` and
  :class:`~repro.engine.cost.ClusterSpec` — tunable rates and topology,
  including straggler factors and speculative execution (§5.7.2).
"""

from repro.common.metrics import MetricsRegistry
from repro.data.shardmap import Shard, ShardMap
from repro.engine.cost import CostModel, ClusterSpec
from repro.engine.cluster import ClusterContext
from repro.engine.placement import PlacementTracker
from repro.engine.task import TaskContext

__all__ = [
    "CostModel",
    "ClusterSpec",
    "ClusterContext",
    "PlacementTracker",
    "Shard",
    "ShardMap",
    "TaskContext",
    "MetricsRegistry",
]
