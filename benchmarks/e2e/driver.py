"""The load generator: set-up, the timed closed loop, teardown.

One call of :func:`measure` is one run of one workload: it computes the
oracle's references, sets the SUT up (several times when ``setup_s`` is
wanted, keeping the last), opens the timed window, tears everything
down with leak checks, and returns the raw material — per-op records,
``stats()`` before and after the window, spans when traced — that
:mod:`benchmarks.e2e.metrics` turns into named numbers.
"""

import os
import shutil
import socket
import statistics
import tempfile
import threading
import time

from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from repro.data.colfile import write_colfile
from repro.net.client import ServiceClient

from benchmarks.e2e import REPO_ROOT, trace
from benchmarks.e2e.oracle import build_table, fingerprint, references
from benchmarks.e2e.sut import Child, ChildError
from benchmarks.e2e.workloads import (
    mine_pool,
    op_stream,
    query_pool,
    warmup_ops,
)

#: Scratch space inside the checkout (``.gitignore`` names it).
WORK_ROOT = os.path.join(REPO_ROOT, ".e2e_work")

#: Seconds one client waits for one reply before the op counts as failed.
OP_TIMEOUT = 60.0

#: Consecutive failed ops after which a client stops issuing more — a
#: dead connection would otherwise fail thousands of ops per second.
MAX_FAILURE_RUN = 20


#: One timed op.  ``failure`` is None or a one-line reason; ``executed``
#: says the reply was computed for this op (no cache hit, not
#: coalesced); ``result`` is kept only for executed mining replies,
#: whose work counters the per-layer metrics read; ``fingerprint`` is
#: the digest of the reply as received.
Record = namedtuple(
    "Record",
    "kind subkind index seconds failure executed result fingerprint",
)


class Rig:
    """One set-up system under test and everything to drive it."""

    def __init__(self, name, workload, workdir):
        self.name = name
        self.workload = workload
        self.workdir = workdir
        self.service = None
        self.workers = []
        self.clients = []
        self.paths = {}
        self.capacity = {}
        self.ports = []
        self.write_colfile_seconds = 0.0
        self.mine_pool = mine_pool(workload)
        self.query_pool = query_pool(workload)

    def children(self):
        return ([self.service] if self.service else []) + self.workers

    def register(self, dataset):
        spec = self.workload["datasets"][dataset]
        return self.service.call(
            "register", name=dataset, path=self.paths[dataset],
            storage=spec["storage"], capacity_bytes=self.capacity[dataset],
        )

    def perform(self, client, op):
        """Issue one op and wait for its decoded reply.

        Returns ``(seconds, result, job)``; ``result`` and ``job`` are
        None for a registration.
        """
        kind, index = op
        started = time.perf_counter()
        if kind == "mine":
            job = client.submit_mine("income", **self.mine_pool[index])
        elif kind == "query":
            job = client.submit_query(self.query_pool[index][1])
        else:
            self.register("income")
            return time.perf_counter() - started, None, None
        result = job.result(timeout=OP_TIMEOUT)
        return time.perf_counter() - started, result, job

    def subkind(self, op):
        kind, index = op
        return self.query_pool[index][0] if kind == "query" else kind


def _new_workdir():
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="%d-" % os.getpid(), dir=WORK_ROOT)


def set_up(name, workload, traced):
    """Generate data, start the children, register, connect, warm up."""
    rig = Rig(name, workload, _new_workdir())
    try:
        colfile_bytes = 0
        for dataset, spec in sorted(workload["datasets"].items()):
            table = build_table(spec)
            path = os.path.join(rig.workdir, dataset + ".col")
            started = time.perf_counter()
            write_colfile(table, path,
                          block_rows=spec.get("block_rows", 4096))
            rig.write_colfile_seconds += time.perf_counter() - started
            rig.paths[dataset] = path
            rig.capacity[dataset] = (
                int(table.estimated_bytes() * spec["pool_fraction"])
                if spec["storage"] == "file" else None
            )
            colfile_bytes += os.path.getsize(path)

        def trace_path(label):
            if not traced:
                return None
            return os.path.join(rig.workdir, "spans-%s.json" % label)

        for i in range(workload["shard_workers"]):
            rig.workers.append(Child("worker", {
                "block_cache_bytes": max(1, int(
                    colfile_bytes * workload["worker_cache_fraction"])),
                "trace_path": trace_path("worker%d" % i),
            }))
        service_config = dict(workload["service"])
        if rig.workers:
            service_config["shard_workers"] = [
                w.ready["address"] for w in rig.workers
            ]
        rig.service = Child("service", {
            "service": service_config,
            "trace_path": trace_path("service"),
        })
        rig.ports = [child.ready["port"] for child in rig.children()]
        for dataset in sorted(workload["datasets"]):
            rig.register(dataset)
        for i in range(workload["clients"]):
            rig.clients.append(ServiceClient(
                "127.0.0.1", rig.service.ready["port"],
                tenant="tenant%d" % i, timeout=OP_TIMEOUT,
            ))
        for i, client in enumerate(rig.clients):
            for op in warmup_ops(name, i):
                rig.perform(client, op)
        return rig
    except BaseException:
        tear_down(rig)
        raise


def tear_down(rig):
    """Stop everything; returns ``(reports, spans, leaks)``.

    ``reports`` are the children's final words (rusage, worker stats),
    ``spans`` what traced children wrote, ``leaks`` one sentence per
    thing that should be gone and is not.
    """
    leaks = []
    reports = {"service": None, "workers": []}
    for client in rig.clients:
        client.close()
    # The service first: its drain waits for jobs that still hold
    # connections to the workers.
    for child in rig.children():
        try:
            report = child.shutdown()
        except ChildError as exc:
            leaks.append(str(exc))
            continue
        if child is rig.service:
            reports["service"] = report
        else:
            reports["workers"].append(report)
    span_files = [
        os.path.join(rig.workdir, entry)
        for entry in sorted(os.listdir(rig.workdir))
        if entry.startswith("spans-")
    ]
    spans = trace.load(span_files)
    for port in rig.ports:
        try:
            socket.create_connection(("127.0.0.1", port), 0.5).close()
        except OSError:
            continue
        leaks.append("port %d still accepts connections" % port)
    shutil.rmtree(rig.workdir, ignore_errors=True)
    if os.path.exists(rig.workdir):
        leaks.append("work directory %s survived" % rig.workdir)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run's directory is still in there
    return reports, spans, leaks


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _client_loop(rig, index, seed, seconds, max_ops, expected, barrier):
    """One client's closed loop; returns (start, end, its records)."""
    client = rig.clients[index]
    records = []
    failure_run = 0
    barrier.wait()
    started = time.perf_counter()
    for op in op_stream(rig.name, seed, index):
        if max_ops is not None and len(records) >= max_ops:
            break
        if max_ops is None and time.perf_counter() - started >= seconds:
            break
        kind = op[0]
        failure, executed, kept, got = None, kind == "register", None, None
        begin = time.perf_counter()
        try:
            elapsed, result, job = rig.perform(client, op)
            if job is not None:
                executed = not (job.cache_hit or job.coalesced)
                got = fingerprint(kind, result)
                if got != expected[op]:
                    failure = "reply differs from the reference"
                elif executed and kind == "mine":
                    kept = result
        except Exception as exc:  # counted, reported, and the loop goes on
            elapsed = time.perf_counter() - begin
            failure = "%s: %s" % (type(exc).__name__, exc)
        failure_run = failure_run + 1 if failure else 0
        records.append(Record(kind, rig.subkind(op), op[1], elapsed,
                              failure, executed, kept, got))
        if failure_run >= MAX_FAILURE_RUN:
            break
    return started, time.perf_counter(), records


def run_window(rig, seed, seconds, max_ops, expected):
    """The timed window: every client loops until time or ops run out."""
    clients = len(rig.clients)
    per_client = None if max_ops is None else max(1, max_ops // clients)
    barrier = threading.Barrier(clients)
    with ThreadPoolExecutor(max_workers=clients,
                            thread_name_prefix="e2e-client") as pool:
        futures = [
            pool.submit(_client_loop, rig, i, seed, seconds, per_client,
                        expected, barrier)
            for i in range(clients)
        ]
        outcomes = [future.result() for future in futures]
    return {
        "start": min(o[0] for o in outcomes),
        "end": max(o[1] for o in outcomes),
        "records": [record for o in outcomes for record in o[2]],
    }


def _snapshot(rig):
    return {
        "service": rig.service.call("stats"),
        "workers": [w.call("stats")["stats"] for w in rig.workers],
    }


@contextmanager
def _generator_tracing(enabled):
    """Trace this process's client calls for the length of one run."""
    if not enabled:
        yield None
        return
    recorder = trace.Recorder()
    patches = trace.install(recorder)
    try:
        yield recorder
    finally:
        trace.uninstall(patches)


def measure(name, workload, seed, seconds=None, max_ops=None,
            traced=False, setup_repeats=1, expected=None):
    """One run of one workload; see the module docstring."""
    oracle_seconds = 0.0
    if expected is None:
        started = time.perf_counter()
        tables = {dataset: build_table(spec)
                  for dataset, spec in workload["datasets"].items()}
        expected = references(workload, tables)
        del tables
        oracle_seconds = time.perf_counter() - started

    shm_before = _shm_entries()
    leaks = []
    setup_seconds = []
    rig = None
    with _generator_tracing(traced) as recorder:
        for repeat in range(setup_repeats):
            if rig is not None:
                leaks.extend(tear_down(rig)[2])
            started = time.perf_counter()
            rig = set_up(name, workload, traced)
            setup_seconds.append(time.perf_counter() - started)
        try:
            before = _snapshot(rig)
            window = run_window(rig, seed, seconds, max_ops, expected)
            after = _snapshot(rig)
        finally:
            reports, spans, more = tear_down(rig)
            leaks.extend(more)
        if recorder is not None:
            spans.extend(trace.as_dicts(os.getpid(), recorder.spans))
    leaked_shm = sorted(_shm_entries() - shm_before)
    if leaked_shm:
        leaks.append("new /dev/shm entries: %s" % ", ".join(leaked_shm))

    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "expected": expected,
        "oracle_seconds": oracle_seconds,
        "setup_seconds": setup_seconds,
        "setup_s": statistics.median(setup_seconds),
        "write_colfile_seconds": rig.write_colfile_seconds,
        "window": window,
        "before": before,
        "after": after,
        "reports": reports,
        "spans": spans,
        "pids": {"generator": os.getpid(),
                 "service": rig.service.pid,
                 "workers": [w.pid for w in rig.workers]},
        "leaks": leaks,
    }
