"""Command-line interface: mine informative rules from CSV files.

Usage::

    python -m repro.cli mine data.csv --measure delay --k 10
    python -m repro.cli explore data.csv --measure delay --prior day,origin
    python -m repro.cli clean data.csv --measure is_dirty --k 5
    python -m repro.cli sql data.csv --measure delay \
        --query "SELECT day, AVG(delay) FROM data GROUP BY day"
    python -m repro.cli serve data.csv --measure delay \
        --clients 8 --requests 32
    python -m repro.cli serve data.csv --measure delay \
        --listen 127.0.0.1:7711
    python -m repro.cli shard-worker --listen 127.0.0.1:7731

The mining subcommands read a CSV with a header row, treat every
non-measure column as a dimension attribute (unless ``--dimensions``
narrows them), and print the mined rule set as a markdown table plus
quality metrics.  The ``sql`` subcommand registers the CSV as a table
named ``data`` and runs one query against the bundled SQL engine.
The ``serve`` subcommand stands up the concurrent mining service and
drives a scripted mixed mining + SQL workload from N client threads,
printing throughput, latency percentiles and cache/coalescing
statistics; with ``--listen HOST:PORT`` it instead serves the dataset
over the framed network protocol (:mod:`repro.net`) until interrupted,
draining in-flight jobs on shutdown.  The ``shard-worker`` subcommand
runs one remote shard-execution worker (:mod:`repro.net.worker`) that
``mine --shard-workers`` drivers route shards to — trusted networks
only, since it executes pickled kernels.
"""

import argparse
import sys

from repro.apps import diagnose_dirty_records, explore_cube
from repro.common.errors import ReproError
from repro.core.config import VARIANT_FLAGS
from repro.core.miner import mine
from repro.data.csvio import read_csv
from repro.sql import SqlEngine


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIRUM: scalable informative rule mining",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("mine", "mine the most informative rules"),
        ("explore", "recommend data-cube cells given prior group-bys"),
        ("clean", "diagnose where dirty records concentrate"),
    ]:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("csv", help="input CSV file with a header row")
        sub.add_argument("--measure", required=True,
                         help="name of the numeric measure column")
        sub.add_argument(
            "--dimensions",
            help="comma-separated dimension columns (default: all others)",
        )
        sub.add_argument("--k", type=int, default=10,
                         help="rules to mine beyond the all-wildcards rule")
        sub.add_argument(
            "--variant", default="optimized",
            choices=sorted(VARIANT_FLAGS),
            help="optimization bundle (thesis Table 4.2)",
        )
        sub.add_argument("--sample-size", type=int, default=64,
                         help="candidate-pruning sample size |s|")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--parallelism", type=int, default=None,
            help="worker threads running partition kernels (default: "
                 "serial); results are identical across settings",
        )
        sub.add_argument(
            "--executor", choices=["thread", "process"], default=None,
            help="worker pool kind for parallel kernels (default: "
                 "thread); process sidesteps the GIL for pure-Python "
                 "kernels, results are identical",
        )
        if name == "explore":
            sub.add_argument(
                "--prior",
                help="comma-separated dimensions whose group-bys the "
                     "analyst has already seen (default: the two with "
                     "the lowest cardinality)",
            )
        if name == "mine":
            sub.add_argument(
                "--shard-workers", metavar="HOST:PORT,...", default=None,
                help="comma-separated shard-worker addresses (started "
                     "with the shard-worker subcommand); implies the "
                     "remote executor — shards are pinned to workers "
                     "and results stay identical to serial",
            )
    sql = subparsers.add_parser(
        "sql", help="run one SQL query against the CSV (table name: data)"
    )
    sql.add_argument("csv", help="input CSV file with a header row")
    sql.add_argument("--measure", required=True,
                     help="name of the numeric measure column")
    sql.add_argument(
        "--dimensions",
        help="comma-separated dimension columns (default: all others)",
    )
    sql.add_argument("--query", required=True, help="SQL text to execute")
    sql.add_argument("--max-rows", type=int, default=50,
                     help="rows to print (default 50)")
    sql.add_argument("--explain", action="store_true",
                     help="print the optimized plan instead of executing")
    serve = subparsers.add_parser(
        "serve",
        help="run a scripted concurrent workload through the mining service",
    )
    serve.add_argument("csv", help="input CSV file with a header row")
    serve.add_argument("--measure", required=True,
                       help="name of the numeric measure column")
    serve.add_argument(
        "--dimensions",
        help="comma-separated dimension columns (default: all others)",
    )
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent client threads (default 8)")
    serve.add_argument("--requests", type=int, default=32,
                       help="total requests in the scripted workload")
    serve.add_argument("--workers", type=int, default=4,
                       help="service worker threads (default 4)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bounded admission queue depth (default 64)")
    serve.add_argument("--k", type=int, default=3,
                       help="rules per mining request (default 3)")
    serve.add_argument("--sample-size", type=int, default=16,
                       help="candidate-pruning sample size |s|")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--parallelism", type=int, default=None,
        help="worker threads inside each mining job's cluster engine "
             "(intra-request parallelism; default: serial)",
    )
    serve.add_argument(
        "--executor", choices=["thread", "process", "remote"],
        default=None,
        help="pool kind for each mining job's engine workers "
             "(default: thread); 'remote' runs every job on "
             "--shard-workers",
    )
    serve.add_argument(
        "--max-engine-workers", type=int, default=None,
        help="machine-wide engine-worker budget shared by all "
             "concurrent jobs, degrading busy jobs toward serial "
             "(default: the host's core count; --workers x "
             "--parallelism gives every job its full degree)",
    )
    serve.add_argument(
        "--shard-workers", metavar="HOST:PORT,...", default=None,
        help="comma-separated shard-worker addresses the service may "
             "run jobs on: with --executor thread/process they are "
             "spill capacity when the local budget is exhausted; with "
             "--executor remote every job runs on them",
    )
    serve.add_argument(
        "--compare-serial", action="store_true",
        help="also run the workload serially and uncached, and print "
             "the throughput ratio",
    )
    serve.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="instead of the scripted workload, serve the dataset over "
             "the framed network protocol on HOST:PORT (PORT 0 picks a "
             "free port) until interrupted",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=8,
        help="with --listen: per-tenant in-flight job quota (default 8)",
    )
    serve.add_argument(
        "--serve-seconds", type=float, default=None,
        help="with --listen: stop after this many seconds "
             "(default: run until Ctrl-C)",
    )
    worker = subparsers.add_parser(
        "shard-worker",
        help="run one shard-execution worker for remote mining",
    )
    worker.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:0",
        help="address to serve the shard-worker protocol on (default "
             "127.0.0.1:0 — loopback, free port); the worker executes "
             "pickled kernels, so bind only trusted interfaces",
    )
    worker.add_argument(
        "--serve-seconds", type=float, default=None,
        help="stop after this many seconds (default: run until Ctrl-C)",
    )
    worker.add_argument(
        "--block-cache-bytes", type=int, default=None,
        help="bound on fetched colfile blocks kept in the worker's "
             "block cache (default: REPRO_WORKER_BLOCK_CACHE_BYTES "
             "or 256 MiB)",
    )
    worker.add_argument(
        "--no-local-files", action="store_true",
        help="never open colfiles from this worker's own filesystem; "
             "fetch every block from the driver (the shared-nothing "
             "stance for workers without the driver's storage)",
    )
    return parser


def _load(args):
    dimensions = None
    if args.dimensions:
        dimensions = [d.strip() for d in args.dimensions.split(",")]
    return read_csv(args.csv, measure=args.measure, dimensions=dimensions)


def _print_result(table, result, out):
    out.write(result.rule_set.to_markdown(table) + "\n\n")
    out.write("rules: %d\n" % len(result.rule_set))
    out.write("kl_divergence: %.6g\n" % result.final_kl)
    out.write("information_gain: %.6g\n" % result.information_gain)
    out.write("simulated_cluster_seconds: %.3f\n" % result.simulated_seconds)


def _parse_listen(listen):
    host, sep, port = listen.rpartition(":")
    if not sep or not host:
        raise ReproError(
            "--listen expects HOST:PORT, got %r" % listen
        )
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(
            "--listen port must be an integer, got %r" % port
        ) from None


def _service_config(args):
    from repro.service import ServiceConfig

    shard_workers = None
    if getattr(args, "shard_workers", None):
        shard_workers = [
            w.strip() for w in args.shard_workers.split(",") if w.strip()
        ]
    return ServiceConfig(
        num_workers=args.workers, max_queue_depth=args.queue_depth,
        engine_parallelism=args.parallelism,
        engine_executor=args.executor,
        max_engine_workers=args.max_engine_workers,
        shard_workers=shard_workers,
    )


def _run_listen(args, table, out):
    """Serve the CSV as dataset ``data`` over the framed protocol."""
    import time

    from repro.net import NetConfig, ServiceServer, TenantPolicy
    from repro.service import RuleMiningService

    host, port = _parse_listen(args.listen)
    service = RuleMiningService(_service_config(args))
    server = None
    try:
        service.register_dataset("data", table)
        server = ServiceServer(service, NetConfig(
            host=host, port=port,
            default_tenant=TenantPolicy(max_inflight=args.tenant_quota),
        ))
        server.start()
        out.write(
            "serving dataset 'data' (%d rows) on %s:%d "
            "(tenant quota %d, %d workers)\n" % (
                len(table), host, server.port, args.tenant_quota,
                args.workers,
            )
        )
        try:
            if args.serve_seconds is not None:
                time.sleep(args.serve_seconds)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            out.write("interrupted\n")
        out.write("draining...\n")
        drained = server.drain(timeout=30.0)
        net = server.net_stats()
        out.write(
            "drained (all jobs flushed: %s); served %d connections, "
            "%d jobs (%d coalesced, %d quota rejections)\n" % (
                drained, net["connections_opened"],
                net["jobs_submitted"], net["coalesce_hits"],
                net["quota_rejections"],
            )
        )
    finally:
        if server is not None:
            server.stop()
        service.close()


def _run_shard_worker(args, out):
    """Run one shard-execution worker until interrupted."""
    import os
    import time

    from repro.net.worker import ShardWorker, parse_address

    host, port = parse_address(args.listen)
    with ShardWorker(host=host, port=port,
                     block_cache_bytes=args.block_cache_bytes,
                     local_files=not args.no_local_files) as worker:
        out.write(
            "shard worker serving on %s (pid %d)\n"
            % (worker.address, os.getpid())
        )
        out.flush()
        try:
            if args.serve_seconds is not None:
                time.sleep(args.serve_seconds)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            out.write("interrupted\n")
        stats = worker.stats()
        out.write(
            "served %d stages, %d tasks\n"
            % (stats["stages"], stats["tasks"])
        )


def _run_serve(args, table, out):
    from repro.bench.harness import (
        build_service_workload,
        latency_summary,
        run_serial_reference,
        run_service_workload,
        service_results_match,
    )
    from repro.service import RuleMiningService

    requests = build_service_workload(
        "data", list(table.schema.dimensions), table.schema.measure,
        num_requests=args.requests, k=args.k,
        sample_size=args.sample_size, seed=args.seed,
    )
    service = RuleMiningService(_service_config(args))
    try:
        service.register_dataset("data", table)
        run = run_service_workload(
            service, "data", requests, num_clients=args.clients
        )
        stats = service.stats()
    finally:
        service.close()
    summary = latency_summary(run["latencies"])
    out.write(
        "served %d requests from %d clients in %.3fs (%.1f req/s)\n" % (
            len(requests), args.clients, run["wall_seconds"],
            run["throughput_rps"],
        )
    )
    out.write(
        "latency: mean=%.4fs p50=%.4fs p95=%.4fs max=%.4fs\n" % (
            summary["mean"], summary["p50"], summary["p95"], summary["max"],
        )
    )
    out.write(
        "cache: %d hits / %d misses; coalesced: %d; rejected: %d\n" % (
            stats["cache"]["hits"], stats["cache"]["misses"],
            stats["coalesce_hits"], stats["queue"]["rejections"],
        )
    )
    out.write(
        "jobs: %d submitted, %d executed, %d failed\n" % (
            stats["jobs"]["submitted"], stats["jobs"]["completed"],
            stats["jobs"]["failed"],
        )
    )
    budget = stats["budget"]
    out.write(
        "engine budget: %d workers, peak %d in use; %d grants "
        "(%d degraded), %.3fs total wait\n" % (
            budget["max_engine_workers"], budget["peak_in_use"],
            budget["grants"], budget["degraded_grants"],
            budget["total_wait_seconds"],
        )
    )
    if args.compare_serial:
        serial = run_serial_reference(table, "data", requests)
        match = service_results_match(run["results"], serial["results"])
        out.write(
            "serial uncached: %.3fs (%.1f req/s); speedup %.2fx; "
            "results identical: %s\n" % (
                serial["wall_seconds"], serial["throughput_rps"],
                serial["wall_seconds"] / run["wall_seconds"]
                if run["wall_seconds"] > 0 else float("inf"),
                match,
            )
        )


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "shard-worker":
            _run_shard_worker(args, out)
            return 0
        table = _load(args)
        if args.command == "serve":
            if args.listen is not None:
                _run_listen(args, table, out)
            else:
                _run_serve(args, table, out)
        elif args.command == "sql":
            engine = SqlEngine()
            engine.register_table("data", table)
            if args.explain:
                out.write(engine.explain(args.query) + "\n")
            else:
                result = engine.query(args.query)
                out.write(result.pretty(max_rows=args.max_rows) + "\n")
                out.write("(%d rows)\n" % len(result))
        elif args.command == "mine":
            executor = args.executor
            workers = None
            if args.shard_workers:
                workers = [
                    w.strip() for w in args.shard_workers.split(",")
                    if w.strip()
                ]
                executor = "remote"
            result = mine(
                table, k=args.k, variant=args.variant,
                sample_size=args.sample_size, seed=args.seed,
                parallelism=args.parallelism, executor=executor,
                workers=workers,
            )
            _print_result(table, result, out)
        elif args.command == "explore":
            prior = None
            if args.prior:
                prior = [d.strip() for d in args.prior.split(",")]
            result = explore_cube(
                table, k=args.k, prior_dimensions=prior,
                variant=args.variant, seed=args.seed,
                parallelism=args.parallelism, executor=args.executor,
            )
            _print_result(table, result, out)
        else:
            result, findings = diagnose_dirty_records(
                table, k=args.k, variant=args.variant,
                sample_size=args.sample_size, seed=args.seed,
                parallelism=args.parallelism, executor=args.executor,
            )
            _print_result(table, result, out)
            out.write("\ntop deviations from the overall dirty rate:\n")
            for finding in findings[:10]:
                out.write(
                    "  %s  rate=%.3f  count=%d\n"
                    % (" | ".join(finding.decode(table)),
                       finding.avg_measure, finding.count)
                )
    except ReproError as exc:
        out.write("error: %s\n" % exc)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
