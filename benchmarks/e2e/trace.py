"""Timing wrappers around each layer's public entry points, and the
arithmetic that turns the recorded spans into per-layer self time.

``install(recorder)`` replaces, in the calling process, each target of
:data:`TARGETS` *at the name its caller resolves* — ``from x import f``
copies a reference, so a function is patched in every module that
imported it, a method on its class.  Nothing under ``src/`` changes and
nothing is installed unless a traced run asks for it.

A span is ``(name, start, end, id, parent, thread, value)``: ``parent``
is the enclosing span on the same thread, ``value`` whatever the
target's extractor exposes (frame bytes, a job id, a client op index).
Spans stay in memory until the process writes them out on shutdown.
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock for
every process on the host, so spans of different processes compare.

Kernels are not wrapped (they must stay picklable); a process-pool
child forked from a traced SUT inherits the wrappers but its spans die
with it, so kernel time there shows as the driver's ``run_stage`` wait.
"""

import bisect
import functools
import importlib
import itertools
import json
import os
import threading
import time


def _frame_bytes(args, kwargs, result):
    return len(result)


def _fed_bytes(args, kwargs, result):
    return len(args[1])


def _job_id_arg(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("job_id")


def _job_id_result(args, kwargs, result):
    return getattr(result, "job_id", None)


def _fallback_stages(args, kwargs, result):
    return args[0].fallback_stages


#: (module, attribute path, span name, value extractor).  The span
#: name's prefix is its layer.
TARGETS = (
    ("repro.net.client", "ServiceClient.submit_mine",
     "net.client_submit", _job_id_result),
    ("repro.net.client", "ServiceClient.submit_query",
     "net.client_submit", _job_id_result),
    ("repro.net.client", "ServiceClient.result",
     "net.client_result", _job_id_arg),
    ("repro.net.client", "result_from_wire", "net.result_from_wire", None),
    ("repro.net.server", "result_to_wire", "net.result_to_wire", None),
    ("repro.net.client", "encode_frame", "net.frame_encode", _frame_bytes),
    ("repro.net.server", "encode_frame", "net.frame_encode", _frame_bytes),
    ("repro.net.worker", "encode_frame", "net.frame_encode", _frame_bytes),
    ("repro.net.protocol", "FrameDecoder.feed",
     "net.frame_decode", _fed_bytes),
    ("repro.net.worker", "ShardWorkerClient.run_stage",
     "net.worker_run_stage", None),
    ("repro.service.service", "RuleMiningService.submit_mine",
     "service.submit", _job_id_result),
    ("repro.service.service", "RuleMiningService.submit_query",
     "service.submit", _job_id_result),
    ("repro.service.service", "RuleMiningService.register_dataset",
     "service.register", None),
    ("repro.service.service", "make_default_cluster",
     "engine.cluster_build", None),
    ("repro.engine.cluster", "ClusterContext.run_stage",
     "engine.run_stage", None),
    ("repro.engine.cluster", "ClusterContext.close",
     "engine.cluster_close", _fallback_stages),
    ("repro.core.miner", "Sirum.mine", "core.mine", None),
    ("repro.core.miner", "lca_aggregates_packed", "core.lca", None),
    ("repro.core.miner", "lca_aggregates_fast", "core.lca", None),
    ("repro.core.miner", "lca_aggregates_baseline", "core.lca", None),
    ("repro.core.miner", "generate_ancestors_packed",
     "core.ancestors", None),
    ("repro.core.miner", "match_counts_packed", "core.match_counts", None),
    ("repro.core.miner", "iterative_scale", "core.scaling", None),
    ("repro.core.miner", "iterative_scale_rct", "core.scaling", None),
    ("repro.sql.engine", "SqlEngine.plan", "sql.plan", None),
    ("repro.sql.engine", "parse", "sql.parse", None),
    ("repro.service.fingerprint", "parse", "sql.parse", None),
    ("repro.sql.vectorized", "VectorizedExecutor.run", "sql.exec", None),
    ("repro.data.table", "Table.open_colfile", "data.open_colfile", None),
    ("repro.data.table", "Table.partition_blocks",
     "data.partition_blocks", None),
    ("repro.data.table", "FileBackedTable.partition_blocks",
     "data.partition_blocks", None),
    ("repro.data.bufferpool", "BufferPool.pin", "data.pin", None),
    ("repro.data.colfile", "ColFileHandle.read_rows",
     "data.read_rows", None),
    ("repro.net.worker", "RemoteColFile.read_rows",
     "data.read_rows", None),
    ("repro.data.colfile", "ColFileHandle.block_raw_bytes",
     "data.block_raw_bytes", None),
)

#: Client-side root spans: their self time is the wait for the SUT,
#: which the SUT's own spans account for.
ROOT_SPANS = ("net.client_submit", "net.client_result")


class Recorder:
    """In-memory span store of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name, extract):
        ids, spans, local = self._ids, self.spans, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = getattr(local, "current", 0)
            local.current = span_id
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                local.current = parent
                value = None
                if extract is not None and result is not None:
                    value = extract(args, kwargs, result)
                spans.append((name, start, end, span_id, parent,
                              threading.get_ident(), value))

        return traced

    def write(self, path):
        """Dump this process's spans as one JSON document."""
        with open(path, "w") as out:
            json.dump({"pid": os.getpid(), "spans": self.spans}, out)


def install(recorder):
    """Wrap every target in this process; returns what to undo."""
    patches = []
    for module_name, path, span_name, extract in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = owner.__dict__[attribute] if parents else getattr(
            owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                recorder.wrap(raw.__func__, span_name, extract))
        else:
            wrapped = recorder.wrap(raw, span_name, extract)
        patches.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)
    return patches


def uninstall(patches):
    """Put back what :func:`install` replaced."""
    for owner, attribute, raw in reversed(patches):
        setattr(owner, attribute, raw)


# ----------------------------------------------------------------------
# Analysis (generator side)
# ----------------------------------------------------------------------

def as_dicts(pid, spans):
    """Recorded span tuples of process ``pid`` as dicts."""
    return [
        {"name": name, "start": start, "end": end, "id": span_id,
         "parent": parent, "pid": pid, "thread": thread, "value": value}
        for name, start, end, span_id, parent, thread, value in spans
    ]


def load(paths):
    """Spans written by several processes, each carrying its ``pid``."""
    spans = []
    for path in paths:
        with open(path) as source:
            document = json.load(source)
        spans.extend(as_dicts(document["pid"], document["spans"]))
    return spans


def _inside(spans, window, pids):
    begin, finish = window
    return [
        s for s in spans
        if s["start"] >= begin and s["end"] <= finish
        and (pids is None or s["pid"] in pids)
    ]


def _self_seconds(inside):
    """``(pid, id) -> duration minus direct children`` for ``inside``.

    Children run on the parent's thread, so they never overlap one
    another and their durations simply add.
    """
    own = {(s["pid"], s["id"]): s["end"] - s["start"] for s in inside}
    for span in inside:
        parent = (span["pid"], span["parent"])
        if parent in own:
            own[parent] -= span["end"] - span["start"]
    return own


def summarise(spans, window, pids=None):
    """Per span name: count, inclusive and self seconds, summed value.

    Only spans inside ``window = (start, end)`` (and of ``pids``, when
    given) count.
    """
    inside = _inside(spans, window, pids)
    own = _self_seconds(inside)
    summary = {}
    for span in inside:
        entry = summary.setdefault(
            span["name"],
            {"count": 0, "total": 0.0, "self": 0.0, "value": 0},
        )
        entry["count"] += 1
        entry["total"] += span["end"] - span["start"]
        entry["self"] += own[(span["pid"], span["id"])]
        if isinstance(span["value"], (int, float)):
            entry["value"] += span["value"]
    return summary


def _union_seconds(intervals):
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def blocking_path_layers(spans, window, pids):
    """Self seconds per layer, and per span name, along the path a
    lone client waits on.

    Two corrections to a plain sum of self times.  The client's own
    root spans are left out: their self time is the wait for the SUT,
    which the SUT's spans account for.  And a stage that fans out to
    threads (the remote executor drives each shard worker from its own
    thread) is charged once: the fan-out spans' *union* comes off the
    enclosing ``engine.run_stage`` and is shared among them in
    proportion, instead of the stage's wait and every parallel call
    each counting in full.
    """
    inside = _inside(spans, window, pids)
    own = _self_seconds(inside)
    by_key = {(s["pid"], s["id"]): s for s in inside}

    def thread_root(span):
        while (span["pid"], span["parent"]) in by_key:
            span = by_key[(span["pid"], span["parent"])]
        return span

    stages = {}
    for span in inside:
        if span["name"] == "engine.run_stage":
            stages.setdefault(span["pid"], []).append(span)
    starts = {}
    for pid, per_pid in stages.items():
        per_pid.sort(key=lambda s: s["start"])
        starts[pid] = [s["start"] for s in per_pid]
    fanned = {}  # run_stage key -> thread-root spans running inside it
    for span in inside:
        if span["parent"] or span["pid"] not in stages:
            continue
        per_pid = stages[span["pid"]]
        at = bisect.bisect_right(starts[span["pid"]], span["start"]) - 1
        if at < 0:
            continue
        stage = per_pid[at]
        if stage["thread"] != span["thread"] and span["end"] <= stage["end"]:
            fanned.setdefault((stage["pid"], stage["id"]), []).append(span)
    weight = {}
    for stage_key, roots in fanned.items():
        union = _union_seconds([(r["start"], r["end"]) for r in roots])
        total = sum(r["end"] - r["start"] for r in roots)
        own[stage_key] -= union
        for root in roots:
            weight[(root["pid"], root["id"])] = union / total if total else 0.0
    layers, names = {}, {}
    for span in inside:
        if span["name"] in ROOT_SPANS:
            continue
        root = thread_root(span)
        seconds = (own[(span["pid"], span["id"])]
                   * weight.get((root["pid"], root["id"]), 1.0))
        layer = span["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
        names[span["name"]] = names.get(span["name"], 0.0) + seconds
    return layers, names
