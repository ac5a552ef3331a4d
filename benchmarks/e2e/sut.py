"""The system under test as child processes, and the handle that owns one.

Two roles run from this file, each its own process group::

    python -m benchmarks.e2e.sut service '<json config>'
    python -m benchmarks.e2e.sut worker  '<json config>'

``service`` is a :class:`RuleMiningService` behind a
:class:`ServiceServer` on a loopback port; ``worker`` is one
shared-nothing :class:`ShardWorker`.  The generator talks to a child
over its stdin/stdout, one JSON object per line — a control channel
beside the wire, for what the front door has no op for (registering a
dataset, reading ``stats()`` without adding frames, shutting down).
The first line a child writes is its ``ready`` report; end of input
means shut down.

:class:`Child` is the generator's end: it starts the process, speaks
the line protocol with a deadline on every read, and on shutdown checks
that the whole process group is gone.
"""

import json
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time

from benchmarks.e2e import REPO_ROOT, SRC_DIR

#: Seconds a child gets to answer one control request before the
#: generator gives up and kills its process group.
CONTROL_TIMEOUT = 120.0

#: Seconds the rest of a child's process group gets to follow it out.
GROUP_EXIT_GRACE = 5.0

#: Seconds a child gives its own shutdown before killing its group.
SHUTDOWN_DEADLINE = 60.0


# ----------------------------------------------------------------------
# Generator side
# ----------------------------------------------------------------------

class ChildError(RuntimeError):
    """A child died, hung or answered a control request with an error."""


class Child:
    """One SUT process and the control channel to it."""

    def __init__(self, role, config):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC_DIR
        self.role = role
        self._buffer = b""
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.sut", role,
             json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=REPO_ROOT, env=env, start_new_session=True,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self):
        return self.process.pid

    def _read(self):
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + CONTROL_TIMEOUT
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [],
                                                   remaining)[0]:
                raise ChildError("%s child did not answer within %.0fs"
                                 % (self.role, CONTROL_TIMEOUT))
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ChildError("%s child closed its control channel "
                                 "(exit code %s)"
                                 % (self.role, self.process.poll()))
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        reply = json.loads(line)
        if "error" in reply:
            raise ChildError("%s child: %s" % (self.role, reply["error"]))
        return reply

    def call(self, op, **payload):
        """One control request; returns the child's reply dict."""
        payload["op"] = op
        self.process.stdin.write(json.dumps(payload).encode() + b"\n")
        self.process.stdin.flush()
        return self._read()

    def shutdown(self):
        """Ask the child to stop; returns its final report.

        Raises :class:`ChildError` when the process, or anything left
        in its process group (pool children), outlives the request.
        """
        try:
            report = self.call("shutdown")
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                raise ChildError("%s child did not exit" % self.role) \
                    from None
            if self.process.returncode != 0:
                raise ChildError("%s child exited with code %d"
                                 % (self.role, self.process.returncode))
            # multiprocessing's resource tracker notices its parent is
            # gone and follows it; give it a moment before calling
            # whatever is left a leak.
            deadline = time.monotonic() + GROUP_EXIT_GRACE
            while self._group_alive():
                if time.monotonic() > deadline:
                    raise ChildError("%s child left processes behind"
                                     % self.role)
                time.sleep(0.01)
            return report
        finally:
            self.kill()

    def _group_alive(self):
        try:
            os.killpg(self.process.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def kill(self):
        """Make sure nothing of this child survives (idempotent)."""
        if self._group_alive():
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"maxrss_kib": own, "children_maxrss_kib": reaped}


def _control_lines():
    """Lines of the control channel, read from the raw descriptor.

    Not ``sys.stdin``: a thread blocked in a buffered read holds the
    buffer's lock, and a pool child forked meanwhile deadlocks on it
    when multiprocessing closes the child's ``sys.stdin``.
    """
    pending = b""
    while True:
        chunk = os.read(0, 1 << 16)
        if not chunk:
            return
        pending += chunk
        while b"\n" in pending:
            line, _, pending = pending.partition(b"\n")
            yield line


def _serve_control(handlers):
    """Answer control lines until ``shutdown`` or end of input."""
    for line in _control_lines():
        request = json.loads(line)
        op = request.pop("op")
        if op == "shutdown":
            break
        try:
            reply = handlers[op](**request)
        except Exception as exc:  # reported to the generator, which fails
            reply = {"error": "%s: %s" % (type(exc).__name__, exc)}
        _say(reply)
    # Whatever happens from here on, this process group ends: a stuck
    # drain must not outlive a generator that is no longer listening.
    watchdog = threading.Timer(SHUTDOWN_DEADLINE, os.killpg,
                               (os.getpgrp(), signal.SIGKILL))
    watchdog.daemon = True
    watchdog.start()


def _say(message):
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _start_trace(config):
    if not config.get("trace_path"):
        return None
    from benchmarks.e2e import trace

    recorder = trace.Recorder()
    trace.install(recorder)
    return recorder


def run_service(config):
    """The ``service`` role: service + front door until told to stop."""
    recorder = _start_trace(config)

    from repro.data.colfile import read_colfile
    from repro.data.table import FileBackedTable, Table
    from repro.net import NetConfig, ServiceServer
    from repro.net.wire import sanitize
    from repro.service import RuleMiningService, ServiceConfig

    service = RuleMiningService(ServiceConfig(**config["service"]))
    server = ServiceServer(service, NetConfig(port=0))
    # Buffer-pool counters die with each re-registered table; keep the
    # running total so a window that spans registrations can read it.
    retired = {"hits": 0, "misses": 0, "evictions": 0}

    def register(name, path, storage, capacity_bytes=None):
        previous = (service.dataset(name) if name in service.datasets()
                    else None)
        if storage == "file":
            table = Table.open_colfile(path, capacity_bytes=capacity_bytes)
        else:
            table = read_colfile(path)
        handle = service.register_dataset(name, table)
        if previous is not None and isinstance(previous.table,
                                               FileBackedTable):
            pool = previous.table.buffer_pool.stats()
            for key in retired:
                retired[key] += pool[key]
            previous.table.close()
        return {"version": handle.version}

    def stats():
        snapshot = service.stats()
        pools = dict(retired)
        for pool in snapshot["buffer_pool"].get("datasets", {}).values():
            for key in pools:
                pools[key] += pool[key]
        return {"stats": sanitize(snapshot), "pools": pools}

    server.start()
    try:
        _say({"ready": True, "port": server.port, "pid": os.getpid()})
        _serve_control({"register": register, "stats": stats})
        drained = server.drain(timeout=30.0)
    finally:
        server.stop()
        service.close()
        for name in service.datasets():
            table = service.dataset(name).table
            if isinstance(table, FileBackedTable):
                table.close()
    if recorder is not None:
        recorder.write(config["trace_path"])
    _say(dict(_rusage(), drained=drained))


def run_worker(config):
    """The ``worker`` role: one shared-nothing shard worker."""
    recorder = _start_trace(config)

    from repro.net.worker import ShardWorker

    worker = ShardWorker(block_cache_bytes=config["block_cache_bytes"],
                         local_files=False)
    worker.start()
    try:
        _say({"ready": True, "port": worker.port,
              "address": worker.address, "pid": os.getpid()})
        _serve_control({"stats": lambda: {"stats": worker.stats()}})
        final = worker.stats()
    finally:
        worker.stop()
    if recorder is not None:
        recorder.write(config["trace_path"])
    _say(dict(_rusage(), stats=final))


def main(argv):
    role, config = argv[0], json.loads(argv[1])
    {"service": run_service, "worker": run_worker}[role](config)


if __name__ == "__main__":
    main(sys.argv[1:])
