"""From one run's raw material to the named metrics.

:func:`end_to_end` reads only what a client saw (latencies, failures,
set-up time, the children's peak memory).  :func:`per_layer` reads the
traced run: spans, the deltas of the public ``stats()`` counters over
the timed window, and the work counters inside executed mining replies.

A metric a workload has no samples for is *left out*, never reported
as 0; every timing carries its sample count ``n``.
"""

import statistics

import numpy as np

from benchmarks.e2e import trace
from benchmarks.e2e.bounds import end_to_end_index, per_layer_units

_KINDS = ("mine", "query", "register")


def _metric(value, unit, **extra):
    return dict({"value": float(value), "unit": unit}, **extra)


def _tail(samples, percentile):
    value = float(np.percentile(samples, percentile))
    return value, sum(1 for s in samples if s > value)


def end_to_end(run, workload):
    """The end-to-end metrics of one untraced run, by name."""
    units = {name: unit for name, (unit, _, _) in end_to_end_index().items()}
    records = run["window"]["records"]
    wall = run["window"]["end"] - run["window"]["start"]
    good = [r for r in records if r.failure is None]
    out = {
        "setup_s": _metric(run["setup_s"], "s",
                           n=len(run["setup_seconds"])),
        "throughput_ops_s": _metric(len(good) / wall, "ops/s",
                                    n=len(good)),
        "failed_frac": _metric(
            (len(records) - len(good)) / len(records) if records else 1.0,
            "ratio", n=len(records)),
    }
    which = workload["tail"]
    by_kind = {"op": [r.seconds * 1e3 for r in good]}
    for kind in _KINDS:
        by_kind[kind] = [r.seconds * 1e3 for r in good if r.kind == kind]
    for kind, samples in by_kind.items():
        if not samples:
            continue
        name = kind + "_p50_ms"
        out[name] = _metric(statistics.median(samples), units[name],
                            n=len(samples))
        name = kind + "_tail_ms"
        if name in units:
            value, beyond = _tail(samples, which)
            # A tail needs ten samples beyond it to mean anything; the
            # all-kinds tail is reported regardless (with its count),
            # because the registered metrics must exist on every run.
            if beyond >= 10 or kind == "op":
                out[name] = _metric(value, units[name], n=len(samples),
                                    which="p%d" % which, beyond=beyond)
    service = run["reports"]["service"]
    if service is not None:
        kib = service["maxrss_kib"] + service["children_maxrss_kib"]
        kib += sum(w["maxrss_kib"] for w in run["reports"]["workers"])
        out["peak_rss_mib"] = _metric(kib / 1024.0, "MiB", n=1)
    return out


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------

def _lookup(stats, path):
    for key in path:
        stats = stats.get(key, 0) if isinstance(stats, dict) else 0
    return stats


def _rate(hits, misses):
    return hits / (hits + misses) if hits + misses else None


def per_layer(run, untraced_throughput=None):
    """The per-layer metrics of one traced run, by name.

    ``*_s`` values are seconds per timed op.  A ratio with an empty
    denominator, or a latency with no samples, is left out.
    """
    window = run["window"]
    records = [r for r in window["records"] if r.failure is None]
    ops = max(len(records), 1)
    wall = window["end"] - window["start"]
    span_window = (window["start"], window["end"])
    everywhere = trace.summarise(run["spans"], span_window)
    pids = run["pids"]
    service_pid = trace.summarise(run["spans"], span_window,
                                  pids={pids["service"]})
    client_pid = trace.summarise(run["spans"], span_window,
                                 pids={pids["generator"]})

    layers, on_path = trace.blocking_path_layers(
        run["spans"], span_window, {pids["generator"], pids["service"]})

    def span(summary, name, field):
        return summary.get(name, {}).get(field, 0)

    before = run["before"]["service"]["stats"]
    after = run["after"]["service"]["stats"]

    def stat(*path):
        """A ``stats()`` counter's growth over the timed window."""
        return _lookup(after, path) - _lookup(before, path)

    out = {}

    def put(name, value):
        if value is not None:
            out[name] = value

    # -- net -----------------------------------------------------------
    put("net.result_to_wire_s",
        span(everywhere, "net.result_to_wire", "self") / ops)
    put("net.result_from_wire_s",
        span(everywhere, "net.result_from_wire", "self") / ops)
    put("net.frame_encode_s",
        span(everywhere, "net.frame_encode", "self") / ops)
    put("net.frame_decode_s",
        span(everywhere, "net.frame_decode", "self") / ops)
    client_seconds = sum(r.seconds for r in records
                         if r.kind != "register")
    served = (span(service_pid, "service.submit", "total")
              + stat("phase_seconds", "queue_wait")
              + stat("phase_seconds", "execute"))
    put("net.front_door_self_s", (client_seconds - served) / ops)
    put("net.wire_bytes_per_op",
        (span(client_pid, "net.frame_encode", "value")
         + span(client_pid, "net.frame_decode", "value")) / ops)
    put("net.frames_in", stat("net", "frames_in"))
    put("net.frames_out", stat("net", "frames_out"))
    put("net.coalesce_hits", stat("net", "coalesce_hits"))
    put("net.quota_rejections", stat("net", "quota_rejections"))
    put("net.protocol_errors", stat("net", "protocol_errors"))
    put("net.worker_run_stage_s",
        span(service_pid, "net.worker_run_stage", "self") / ops)
    put("net.worker_stage_calls",
        span(service_pid, "net.worker_run_stage", "count"))
    put("net.blocks_shipped",
        span(service_pid, "data.block_raw_bytes", "count"))
    caches_before = [w["block_cache"] for w in run["before"]["workers"]]
    caches_after = [w["block_cache"] for w in run["after"]["workers"]]

    def cache(field):
        return sum(a[field] - b[field]
                   for a, b in zip(caches_after, caches_before))

    put("net.bytes_shipped", cache("fetched_bytes"))
    put("net.worker_cache_hit_rate", _rate(cache("hits"), cache("misses")))
    put("net.worker_cache_evictions", cache("evictions"))
    put("net.worker_failures", stat("placement", "worker_failures"))
    put("net.rebalances", stat("placement", "rebalances"))

    # -- service -------------------------------------------------------
    put("service.submit_s", span(service_pid, "service.submit", "self") / ops)
    put("service.cache_hit_rate",
        _rate(stat("cache", "hits"), stat("cache", "misses")))
    put("service.coalesce_hits", stat("coalesce_hits"))
    put("service.queue_wait_s", stat("phase_seconds", "queue_wait") / ops)
    put("service.budget_wait_s",
        stat("budget", "total_wait_seconds") / ops)
    put("service.execute_s", stat("phase_seconds", "execute") / ops)
    put("service.register_s",
        span(service_pid, "service.register", "self") / ops)
    put("service.cache_evictions", stat("cache", "evictions"))
    put("service.queue_rejections", stat("queue", "rejections"))
    put("service.jobs_failed", stat("jobs", "failed"))
    put("service.degraded_grants", stat("budget", "degraded_grants"))
    put("service.spilled_grants", stat("budget", "spilled_grants"))

    # -- engine --------------------------------------------------------
    put("engine.run_stage_s",
        span(service_pid, "engine.run_stage", "total") / ops)
    put("engine.stages", span(service_pid, "engine.run_stage", "count"))
    put("engine.dispatch_self_s", on_path.get("engine.run_stage", 0.0) / ops)
    put("engine.cluster_build_s",
        span(service_pid, "engine.cluster_build", "self") / ops)
    put("engine.cluster_close_s",
        span(service_pid, "engine.cluster_close", "self") / ops)
    put("engine.fallback_stages",
        span(service_pid, "engine.cluster_close", "value"))
    put("engine.placed_stages", stat("placement", "placed_stages"))
    put("engine.affinity_hit_rate",
        _rate(stat("placement", "affinity_hits"),
              stat("placement", "affinity_misses")))
    put("engine.attach_hit_rate", _rate(
        stat("buffer_pool", "attachments", "handle_hits")
        + stat("buffer_pool", "attachments", "segment_hits"),
        stat("buffer_pool", "attachments", "handle_misses")
        + stat("buffer_pool", "attachments", "segment_misses")))

    # -- core ----------------------------------------------------------
    put("core.mine_s", span(everywhere, "core.mine", "self") / ops)
    put("core.lca_s", span(everywhere, "core.lca", "self") / ops)
    put("core.ancestors_s", span(everywhere, "core.ancestors", "self") / ops)
    put("core.match_counts_s",
        span(everywhere, "core.match_counts", "self") / ops)
    put("core.scaling_s", span(everywhere, "core.scaling", "self") / ops)
    mined = [r.result for r in records if r.result is not None]
    if mined:
        jobs = len(mined)
        scored = sum(m.candidates_scored for m in mined)
        put("core.candidates_scored", scored / jobs)
        put("core.ancestors_emitted",
            sum(m.ancestors_emitted for m in mined) / jobs)
        put("core.scaling_iterations",
            sum(m.scaling_iterations for m in mined) / jobs)
        # The root rule is given, not searched for.
        rules = sum(len(m.rule_set) - 1 for m in mined)
        put("core.candidates_per_rule", scored / rules if rules else None)
        put("core.sim_seconds",
            sum(m.simulated_seconds for m in mined) / jobs)

    # -- sql -----------------------------------------------------------
    put("sql.parse_s", span(service_pid, "sql.parse", "self") / ops)
    put("sql.plan_s", span(service_pid, "sql.plan", "self") / ops)
    put("sql.exec_s", span(service_pid, "sql.exec", "self") / ops)
    put("sql.plan_cache_hit_rate",
        _rate(stat("plan_cache", "hits"), stat("plan_cache", "misses")))
    for kind in ("count", "group", "sort", "join"):
        samples = [r.seconds * 1e3 for r in records if r.subkind == kind]
        if samples:
            put("sql.%s_p50_ms" % kind, statistics.median(samples))

    # -- data ----------------------------------------------------------
    put("data.write_colfile_s", run["write_colfile_seconds"])
    put("data.open_colfile_s",
        span(service_pid, "data.open_colfile", "self") / ops)
    put("data.pin_s", span(service_pid, "data.pin", "self") / ops)
    pools_before = run["before"]["service"]["pools"]
    pools_after = run["after"]["service"]["pools"]
    pool = {key: pools_after[key] - pools_before[key]
            for key in pools_after}
    put("data.pool_hit_rate", _rate(pool["hits"], pool["misses"]))
    put("data.pool_misses", pool["misses"])
    put("data.pool_evictions", pool["evictions"])
    put("data.partition_blocks_s",
        span(service_pid, "data.partition_blocks", "self") / ops)
    put("data.read_rows_s", span(everywhere, "data.read_rows", "self") / ops)
    put("data.block_raw_bytes_s",
        span(service_pid, "data.block_raw_bytes", "self") / ops)

    # -- bench ---------------------------------------------------------
    put("bench.samples", len(records))
    put("bench.timed_wall_s", wall)
    accounted = sum(layers.values()) + stat("phase_seconds", "queue_wait")
    client_wall = sum(r.seconds for r in records)
    put("bench.layer_sum_frac",
        accounted / client_wall if client_wall else None)
    if untraced_throughput:
        put("bench.trace_overhead_frac",
            1.0 - (len(records) / wall) / untraced_throughput)

    units = per_layer_units()
    metrics = {name: _metric(value, units[name]) for name, value in
               out.items()}
    shares = {layer: seconds / client_wall if client_wall else 0.0
              for layer, seconds in sorted(layers.items())}
    return metrics, shares
