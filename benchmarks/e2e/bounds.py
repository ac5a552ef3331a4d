"""Every metric the benchmark prints: name, unit, direction, bound.

The tables here are the single source: ``run`` prints these names,
``compare`` applies these bounds, ``BENCHMARK.json`` copies them and
``test_selfcheck.py`` asserts the three agree.

A *bound* is the share of the baseline's median by which a metric may
get worse before a change counts as a regression.  ``failed_frac`` has
bound 0: any increase is a regression.

The issue proposed 10 % on medians and throughput and 15 % on tails.
On this shared 2-core host the mining workloads do not resolve that:
ten runs of ``mine_procs`` over ten seeds spread (interquartile range
over median) by 16 % in throughput and 19 % in ``op_p50_ms`` during a
slow spell of the host, and the same op measured in-process drifts by
as much.  A bound has to be three times the spread seen to tell a
regression from noise, so every timing and the memory peak carry the
widest bound the benchmark contract allows, 25 %.  README.md has the
measured spreads per workload.
"""

#: Seconds one timed window lasts (``BENCHMARK.json``'s ``run_seconds``).
RUN_SECONDS = 10

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better, bound, meaning).  What an analyst submitting
#: requests sees; all measured with tracing off.
END_TO_END = (
    ("setup_s", "s", LOWER, 0.25,
     "data generation, write_colfile, child start-up, register_dataset "
     "and warm-up ops; median of %d set-ups" % SETUP_REPEATS),
    ("throughput_ops_s", "ops/s", HIGHER, 0.25,
     "requests completed / timed wall, closed loop, fixed client count"),
    ("op_p50_ms", "ms", LOWER, 0.25,
     "median latency over every timed op, whatever its kind"),
    ("op_tail_ms", "ms", LOWER, 0.25,
     "the workload's tail percentile over every timed op"),
    ("mine_p50_ms", "ms", LOWER, 0.25,
     "median submit_mine -> decoded MiningResult at the client"),
    ("mine_tail_ms", "ms", LOWER, 0.25,
     "the workload's tail percentile of mining latency"),
    ("query_p50_ms", "ms", LOWER, 0.25,
     "median submit_query -> decoded rows at the client"),
    ("query_tail_ms", "ms", LOWER, 0.25,
     "the workload's tail percentile of query latency"),
    ("register_p50_ms", "ms", LOWER, 0.25,
     "median dataset re-registration: Table.open_colfile + "
     "register_dataset (the write op)"),
    ("failed_frac", "ratio", LOWER, 0.0,
     "(errors + refusals + replies that differ from the reference) "
     "/ attempted"),
    ("peak_rss_mib", "MiB", LOWER, 0.25,
     "ru_maxrss of the SUT process + its largest reaped pool child "
     "+ every shard worker"),
)

#: The end-to-end metrics every workload has samples for and that are
#: never 0 — the ones ``BENCHMARK.json`` registers.  The per-kind
#: latencies exist only where a workload issues that kind, and
#: ``failed_frac`` is 0 on a healthy run; the driver reads failures
#: from ``attempted``/``failed`` instead.
REGISTERED_END_TO_END = (
    "setup_s", "throughput_ops_s", "op_p50_ms", "op_tail_ms",
    "peak_rss_mib",
)

#: (name, unit, better, moves).  From the traced run plus the public
#: ``stats()`` counters; ``moves`` names the end-to-end metric and
#: workload each should move.  ``*_s`` are self seconds per timed op
#: unless the README says otherwise.
PER_LAYER = (
    # net
    ("net.result_to_wire_s", "s", LOWER, "mine_p50_ms@serve_hot"),
    ("net.result_from_wire_s", "s", LOWER, "mine_p50_ms@serve_hot"),
    ("net.frame_encode_s", "s", LOWER, "query_p50_ms@serve_hot"),
    ("net.frame_decode_s", "s", LOWER, "query_p50_ms@serve_hot"),
    ("net.front_door_self_s", "s", LOWER, "query_p50_ms@serve_hot"),
    ("net.wire_bytes_per_op", "bytes", LOWER,
     "mine_p50_ms@serve_hot,mine_remote"),
    ("net.frames_in", "count", LOWER, "failed_frac"),
    ("net.frames_out", "count", LOWER, "failed_frac"),
    ("net.coalesce_hits", "count", HIGHER, "failed_frac"),
    ("net.quota_rejections", "count", LOWER, "failed_frac"),
    ("net.protocol_errors", "count", LOWER, "failed_frac"),
    ("net.worker_run_stage_s", "s", LOWER, "mine_p50_ms@mine_remote"),
    ("net.worker_stage_calls", "count", LOWER, "mine_p50_ms@mine_remote"),
    ("net.blocks_shipped", "count", LOWER, "mine_p50_ms@mine_remote"),
    ("net.bytes_shipped", "bytes", LOWER, "mine_p50_ms@mine_remote"),
    ("net.worker_cache_hit_rate", "ratio", HIGHER,
     "mine_p50_ms@mine_remote"),
    ("net.worker_cache_evictions", "count", LOWER,
     "mine_p50_ms@mine_remote"),
    ("net.worker_failures", "count", LOWER, "mine_p50_ms@mine_remote"),
    ("net.rebalances", "count", LOWER, "mine_p50_ms@mine_remote"),
    # service
    ("service.submit_s", "s", LOWER, "throughput_ops_s@serve_hot"),
    ("service.cache_hit_rate", "ratio", HIGHER,
     "throughput_ops_s@serve_hot"),
    ("service.coalesce_hits", "count", HIGHER,
     "throughput_ops_s@serve_hot"),
    ("service.queue_wait_s", "s", LOWER,
     "mine_tail_ms@serve_hot,mine_procs"),
    ("service.budget_wait_s", "s", LOWER,
     "mine_tail_ms@serve_hot,mine_procs"),
    ("service.execute_s", "s", LOWER, "mine_p50_ms@mine_*"),
    ("service.register_s", "s", LOWER, "register_p50_ms@sql_churn"),
    ("service.cache_evictions", "count", LOWER,
     "register_p50_ms@sql_churn"),
    ("service.queue_rejections", "count", LOWER, "failed_frac"),
    ("service.jobs_failed", "count", LOWER, "failed_frac"),
    ("service.degraded_grants", "count", LOWER, "mine_tail_ms"),
    ("service.spilled_grants", "count", LOWER, "mine_tail_ms"),
    # engine
    ("engine.run_stage_s", "s", LOWER, "mine_p50_ms@mine_procs"),
    ("engine.stages", "count", LOWER, "mine_p50_ms@mine_procs"),
    ("engine.dispatch_self_s", "s", LOWER, "mine_p50_ms@mine_procs"),
    ("engine.cluster_build_s", "s", LOWER, "mine_p50_ms@mine_procs"),
    ("engine.cluster_close_s", "s", LOWER, "mine_p50_ms@mine_procs"),
    ("engine.fallback_stages", "count", LOWER, "mine_p50_ms@mine_procs"),
    ("engine.placed_stages", "count", HIGHER, "mine_p50_ms@mine_procs"),
    ("engine.affinity_hit_rate", "ratio", HIGHER,
     "mine_p50_ms@mine_procs"),
    ("engine.attach_hit_rate", "ratio", HIGHER, "mine_p50_ms@mine_procs"),
    # core
    ("core.mine_s", "s", LOWER, "mine_p50_ms@mine_cold"),
    ("core.lca_s", "s", LOWER, "mine_p50_ms@mine_cold"),
    ("core.ancestors_s", "s", LOWER, "mine_p50_ms@mine_cold"),
    ("core.match_counts_s", "s", LOWER, "mine_p50_ms@mine_cold"),
    ("core.scaling_s", "s", LOWER, "mine_p50_ms@mine_cold"),
    ("core.candidates_scored", "count", LOWER, "mine_p50_ms@mine_cold"),
    ("core.ancestors_emitted", "count", LOWER, "mine_p50_ms@mine_cold"),
    ("core.scaling_iterations", "count", LOWER, "mine_p50_ms@mine_cold"),
    ("core.candidates_per_rule", "ratio", LOWER, "mine_p50_ms@mine_cold"),
    ("core.sim_seconds", "s", LOWER, "the paper's metric; must not move"),
    # sql
    ("sql.parse_s", "s", LOWER, "throughput_ops_s@sql_churn"),
    ("sql.plan_s", "s", LOWER, "throughput_ops_s@sql_churn"),
    ("sql.exec_s", "s", LOWER, "throughput_ops_s@sql_churn"),
    ("sql.plan_cache_hit_rate", "ratio", HIGHER,
     "throughput_ops_s@sql_churn"),
    ("sql.count_p50_ms", "ms", LOWER, "query_p50_ms@sql_churn"),
    ("sql.group_p50_ms", "ms", LOWER, "query_tail_ms@sql_churn"),
    ("sql.sort_p50_ms", "ms", LOWER, "query_p50_ms@sql_churn"),
    ("sql.join_p50_ms", "ms", LOWER,
     "throughput_ops_s,query_tail_ms@sql_churn"),
    # data
    ("data.write_colfile_s", "s", LOWER, "setup_s"),
    ("data.open_colfile_s", "s", LOWER, "register_p50_ms@sql_churn"),
    ("data.pin_s", "s", LOWER, "register_p50_ms@sql_churn"),
    ("data.pool_hit_rate", "ratio", HIGHER, "register_p50_ms@sql_churn"),
    ("data.pool_misses", "count", LOWER, "register_p50_ms@sql_churn"),
    ("data.pool_evictions", "count", LOWER, "register_p50_ms@sql_churn"),
    ("data.partition_blocks_s", "s", LOWER, "mine_p50_ms@mine_procs"),
    ("data.read_rows_s", "s", LOWER, "mine_p50_ms@mine_procs,mine_remote"),
    ("data.block_raw_bytes_s", "s", LOWER, "mine_p50_ms@mine_remote"),
    # bench
    ("bench.samples", "count", HIGHER, "every timing's sample count"),
    ("bench.timed_wall_s", "s", LOWER, "the traced window's length"),
    ("bench.layer_sum_frac", "ratio", HIGHER,
     "layers' self time / traced client wall on the blocking path"),
)

#: Reported by ``run --trace`` only: it needs the untraced run of the
#: same invocation, which a lone ``--trace 1`` driver run does not have.
TRACE_OVERHEAD = ("bench.trace_overhead_frac", "ratio", LOWER,
                  "1 - traced / untraced throughput_ops_s")


def end_to_end_index():
    """name -> (unit, better, bound) for every end-to-end metric."""
    return {name: (unit, better, bound)
            for name, unit, better, bound, _ in END_TO_END}


def per_layer_units():
    """name -> unit for every per-layer metric ``run --trace`` prints."""
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    return units


def benchmark_json(workloads):
    """What ``BENCHMARK.json`` at the repo root must contain.

    ``workloads`` is ``workloads.WORKLOADS``.  ``test_selfcheck.py``
    asserts the committed file equals this.
    """
    index = end_to_end_index()
    return {
        "command": ["python3", "-m", "benchmarks.e2e", "run"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in workloads.items()],
        "end_to_end": [
            {"name": name, "unit": index[name][0], "better": index[name][1],
             "bound": index[name][2]}
            for name in REGISTERED_END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in PER_LAYER],
    }
