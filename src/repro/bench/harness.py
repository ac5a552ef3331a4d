"""Shared plumbing for the per-figure benchmark scripts.

Each ``benchmarks/bench_fig_*.py`` file regenerates one thesis figure:
it builds the figure's workload, runs the SIRUM variants involved, and
prints the series the figure plots (plus the expected shape from the
thesis).  These helpers keep those scripts small and uniform.

The ``*_service_*`` helpers drive the concurrent mining service
(:mod:`repro.service`) with a scripted mixed mining + SQL workload;
they are shared by ``repro.cli serve`` and the service concurrency
ablation benchmark so both measure exactly the same thing.
"""

import json
import threading
import time

from repro.common.errors import ConfigError, ServiceError
from repro.core.config import variant_config
from repro.core.miner import Sirum
from repro.data.generators import (
    gdelt_table,
    income_table,
    susy_table,
    tlc_table,
)
from repro.engine.cluster import ClusterContext
from repro.engine.cost import ClusterSpec, CostModel

_DATASETS = {
    "income": income_table,
    "gdelt": gdelt_table,
    "susy": susy_table,
    "tlc": tlc_table,
}

#: Falsy spellings of REPRO_BENCH_SMOKE — "0"/"false" must mean *off*.
_FALSY = ("", "0", "false", "no", "off")


def bench_smoke_enabled():
    """True when ``REPRO_BENCH_SMOKE`` requests the shrunk CI workload."""
    import os

    return os.environ.get(
        "REPRO_BENCH_SMOKE", ""
    ).strip().lower() not in _FALSY


def dataset_by_name(name, num_rows=None, **kwargs):
    """Build one of the evaluation datasets by thesis name."""
    try:
        factory = _DATASETS[name]
    except KeyError:
        raise ConfigError(
            "unknown dataset %r; choose from %s"
            % (name, ", ".join(sorted(_DATASETS)))
        ) from None
    return factory(num_rows=num_rows, **kwargs)


def make_cluster(
    num_executors=8,
    cores_per_executor=8,
    executor_memory_bytes=256 * 1024**2,
    storage_fraction=0.6,
    straggler_sigma=0.0,
    seed=7,
    parallelism=None,
    executor=None,
    budget_grant=None,
    workers=None,
):
    """The benchmarks' default cluster (a scaled-down thesis cluster).

    ``parallelism`` sets the real worker count partition kernels run
    on and ``executor`` the pool kind (None means a ``budget_grant``'s
    granted degree when one is given, else serial, on threads);
    ``workers`` lists remote shard-worker addresses for
    ``executor="remote"``.
    Simulated metrics are identical across settings, only wall-clock
    changes.
    """
    spec = ClusterSpec(
        num_executors=num_executors,
        cores_per_executor=cores_per_executor,
        executor_memory_bytes=executor_memory_bytes,
        storage_fraction=storage_fraction,
        straggler_sigma=straggler_sigma,
        seed=seed,
    )
    return ClusterContext(spec, CostModel(), parallelism=parallelism,
                          executor=executor, budget_grant=budget_grant,
                          workers=workers)


def run_variant(table, variant, cluster=None, prior_rules=None,
                parallelism=None, executor=None, **overrides):
    """Mine ``table`` with a Table 4.2 variant on a fresh cluster.

    Returns the :class:`~repro.core.result.MiningResult`; its
    ``simulated_seconds`` / phase breakdowns are the benchmark metrics.
    ``parallelism`` / ``executor`` configure the fresh cluster's
    workers (ignored when an explicit ``cluster`` is passed); an
    internally created cluster is closed before returning.
    """
    owns_cluster = cluster is None
    cluster = cluster or make_cluster(parallelism=parallelism,
                                      executor=executor)
    config = variant_config(variant, **overrides)
    try:
        return Sirum(config).mine(table, cluster=cluster,
                                  prior_rules=prior_rules)
    finally:
        if owns_cluster:
            cluster.close()


def mining_results_identical(a, b):
    """True when two mining results are bit-identical.

    The engine's cross-execution-mode guarantee, as one predicate:
    same rules, lambdas, estimates, KL trace and every simulated
    metric (counters, phase attribution, simulated seconds).
    """
    import numpy as np

    if [tuple(m.rule.values) for m in a.rule_set] != [
        tuple(m.rule.values) for m in b.rule_set
    ]:
        return False
    if not np.array_equal(a.lambdas, b.lambdas):
        return False
    if not np.array_equal(a.estimates, b.estimates):
        return False
    if a.kl_trace != b.kl_trace:
        return False
    return a.metrics == b.metrics


def json_result_line(tag, payload):
    """One machine-readable benchmark result line, tagged for grepping.

    A benchmark that varies the engine execution mode records it in
    ``payload`` (``executor``, ``parallelism``, ``shards``), so result
    files from differently-configured runs stay interpretable.
    """
    return "%s %s" % (tag, json.dumps(payload))


#: Mining variants cycled through by the scripted service workload —
#: a handful of distinct configurations, repeated, is the interactive
#: shape the service's cache and coalescing are built for.
SERVICE_WORKLOAD_VARIANTS = ("optimized", "rct", "fastpruning", "baseline")


def build_service_workload(dataset, dimensions, measure, num_requests=32,
                           k=3, sample_size=16, seed=0,
                           distinct_mine_configs=2, distinct_queries=2):
    """A deterministic mixed mine + SQL request script.

    Alternates mining and SQL requests, cycling through
    ``distinct_mine_configs`` mining variants and ``distinct_queries``
    per-dimension aggregation queries — so the script *repeats itself*,
    as interactive analysis does.  Returns ``[(kind, payload), ...]``
    where kind is ``"mine"`` (payload: keyword dict) or ``"sql"``
    (payload: query text).
    """
    distinct_mine_configs = max(
        1, min(distinct_mine_configs, len(SERVICE_WORKLOAD_VARIANTS))
    )
    distinct_queries = max(1, min(distinct_queries, len(dimensions)))
    requests = []
    for i in range(num_requests):
        turn = i // 2
        if i % 2 == 0:
            variant = SERVICE_WORKLOAD_VARIANTS[turn % distinct_mine_configs]
            requests.append(("mine", {
                "k": k, "variant": variant,
                "sample_size": sample_size, "seed": seed,
            }))
        else:
            dim = dimensions[turn % distinct_queries]
            requests.append(("sql", (
                "SELECT %s, COUNT(*) AS c, AVG(%s) AS a FROM %s "
                "GROUP BY %s ORDER BY c DESC, %s" % (
                    dim, measure, dataset, dim, dim,
                )
            )))
    return requests


def build_mining_burst_workload(num_requests=8, k=3, sample_size=16,
                                variant="optimized", seed_base=1000):
    """``num_requests`` *distinct* mining requests (per-request seeds).

    Unlike :func:`build_service_workload` nothing here repeats, so the
    cache and coalescing collapse nothing: every request runs a real
    engine job.  This is the worst-case concurrency shape the
    engine-worker budget exists for — N simultaneous clusters all
    wanting their full ``parallelism``.
    """
    return [
        ("mine", {
            "k": k, "variant": variant, "sample_size": sample_size,
            "seed": seed_base + i,
        })
        for i in range(num_requests)
    ]


def run_service_workload(service, dataset, requests, num_clients=8,
                         timeout=120.0):
    """Fire ``requests`` at ``service`` from ``num_clients`` threads.

    Client ``j`` issues requests ``j, j + num_clients, ...`` in order,
    mimicking independent analysts replaying overlapping sessions.
    ``timeout`` bounds each *request*; a client may therefore
    legitimately run for up to ``timeout`` times its share of the
    script, and the workload waits that long before declaring the run
    hung (raising instead of silently reporting partial results).
    Returns per-request results and latencies (request order), total
    wall seconds and requests/second.
    """
    results = [None] * len(requests)
    latencies = [0.0] * len(requests)
    errors = []

    def client(first):
        try:
            for i in range(first, len(requests), num_clients):
                kind, payload = requests[i]
                started = time.perf_counter()
                if kind == "mine":
                    results[i] = service.mine(
                        dataset, timeout=timeout, **payload
                    )
                else:
                    results[i] = service.query(payload, timeout=timeout)
                latencies[i] = time.perf_counter() - started
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(j,), daemon=True)
        for j in range(min(num_clients, len(requests)))
    ]
    requests_per_client = -(-len(requests) // max(1, num_clients))
    join_deadline = (
        time.monotonic() + timeout * requests_per_client + 5.0
    )
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, join_deadline - time.monotonic()))
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    alive = [thread for thread in threads if thread.is_alive()]
    if alive:
        raise ServiceError(
            "service workload hung: %d of %d clients still running after "
            "%.0fs" % (len(alive), len(threads), wall)
        )
    return {
        "results": results,
        "latencies": latencies,
        "wall_seconds": wall,
        "throughput_rps": len(requests) / wall if wall > 0 else float("inf"),
    }


def run_serial_reference(table, dataset, requests):
    """The same script, serially and uncached (the pre-service path).

    Every mining request runs a full :func:`repro.core.miner.mine`;
    every SQL request gets a fresh engine with plan caching disabled —
    the cost a caller paid before the service existed.
    """
    from repro.core.miner import mine
    from repro.sql import SqlEngine

    results = []
    latencies = []
    started_all = time.perf_counter()
    for kind, payload in requests:
        started = time.perf_counter()
        if kind == "mine":
            results.append(mine(table, **payload))
        else:
            engine = SqlEngine(plan_cache_size=0)
            engine.register_table(dataset, table)
            results.append(engine.query(payload))
        latencies.append(time.perf_counter() - started)
    wall = time.perf_counter() - started_all
    return {
        "results": results,
        "latencies": latencies,
        "wall_seconds": wall,
        "throughput_rps": len(requests) / wall if wall > 0 else float("inf"),
    }


def service_results_match(a, b):
    """True when two workload result lists are bit-identical.

    Mining results compare on the exact rule tuples, per-rule counts
    and the full KL trace; SQL results compare on the exact row lists.
    """
    if len(a) != len(b):
        return False
    for left, right in zip(a, b):
        if hasattr(left, "rule_set"):
            if not hasattr(right, "rule_set"):
                return False
            left_rules = [
                (tuple(m.rule.values), m.count, m.avg_measure)
                for m in left.rule_set
            ]
            right_rules = [
                (tuple(m.rule.values), m.count, m.avg_measure)
                for m in right.rule_set
            ]
            if left_rules != right_rules:
                return False
            if list(left.kl_trace) != list(right.kl_trace):
                return False
        else:
            if left.rows != right.rows or left.columns != right.columns:
                return False
    return True


def latency_summary(latencies):
    """Mean / p50 / p95 / max of a latency list, in seconds."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "mean": sum(ordered) / n,
        "p50": ordered[n // 2],
        "p95": ordered[min(n - 1, (n * 95) // 100)],
        "max": ordered[-1],
    }


def speedup(baseline_seconds, optimized_seconds):
    """Baseline / optimized ratio, guarded against zero."""
    if optimized_seconds <= 0:
        return float("inf")
    return baseline_seconds / optimized_seconds


def print_table(title, headers, rows, note=None):
    """Print one figure's data series as an aligned text table."""
    rendered = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
        for i, h in enumerate(headers)
    ]
    print()
    print("== %s ==" % title)
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rendered:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        print("shape: %s" % note)
    print()


def _fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return "%.3g" % value
        return "%.3f" % value
    return str(value)
