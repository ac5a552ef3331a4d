"""Remote shard worker: one placed shard executing on another host.

The shard map makes a shard addressable — an
:class:`~repro.data.shm.MmapTableBlock` is ``(path, file_key, row
range)``, which any process that can *reach the bytes* can resolve.
This module is the network leg of that story: a :class:`ShardWorker`
listens on the existing framed protocol (:mod:`repro.net.protocol`)
and executes stage tasks shipped to it by a
``ClusterContext(executor="remote", workers=[...])`` driver — whose
stage executor, :class:`RemoteExecutor`, also lives here — fetching any
colfile blocks it cannot open locally back from the driver over the
same connection.

Driver-initiated ops (``KIND_REQUEST`` frames with an ``op`` field,
mirroring the front-door server's convention):

- ``worker_hello`` — identity/liveness: pid, protocol version,
  attachment-cache and block-cache sizes.
- ``heartbeat`` — minimal liveness probe; the driver's health checks
  use it with a short deadline (:meth:`ShardWorkerClient.heartbeat`).
- ``run_stage`` — one batch of the stage, in the codec a process-pool
  child speaks over its pipe (:mod:`repro.engine.executors`): the
  ``batch`` blob is a :func:`~repro.engine.executors.batch_request`,
  which the worker runs through
  :func:`~repro.engine.executors.serve_batch` and answers with one
  ``reply`` blob.  Tasks run in ascending shard order through the one
  task body every mode uses (:func:`repro.engine.task.run_task`), so
  each returns ``(output, charges)`` — the driver applies charges to
  driver-side contexts in partition order and results stay
  bit-identical to serial.  On the first failing task the batch stops
  (abort semantics).  A batch that does not cross — a kernel or
  partition that does not load here, an output or exception that does
  not pickle or load — makes the stage unshippable, and the driver
  reruns it on its local thread pool, exactly like process mode.

Bytes cross this channel as bytes.  Every pickle and every shipped
block is a *blob* of its frame (``FLAG_BLOBS``,
:mod:`repro.net.protocol`): raw segments after the JSON payload, which
says only "this field is blob *i*" — a ``run_stage`` request's
``batch``, its answer's ``reply`` and ``block_fetch`` replies (each
block's ``data``).  Receivers unpickle and read rows from views into
the frame body; only the block cache, which outlives the frame, copies.
A frame over ``WORKER_MAX_FRAME_BYTES`` in either direction makes the
*stage* unshippable — the worker answers with a typed error and keeps
the connection, the driver reruns that stage on threads — never the
worker dead.

Worker-initiated ops (``DRIVER_OPS`` — the *reverse* direction, sent
while a ``run_stage`` is executing and answered by the driver's
client from inside its own wait for that stage).  Each end speaks
through a :class:`~repro.net.client.FrameConnection`; the worker's
counts request ids up from ``WORKER_CALLBACK_ID_BASE + 1``, so the
two id spaces on the shared socket never meet:

- ``block_fetch`` — colfile block shipping.  A worker that cannot
  resolve an :class:`~repro.data.shm.MmapTableBlock` locally (no
  shared filesystem, or ``local_files=False``) asks the driver for the
  raw bytes of the block indices it needs, plus the file's layout meta
  on first contact.  The driver serves them from its own live mmap
  (:func:`repro.data.shm.resolve_local_handle` — which works even if
  the file has since been deleted), and the worker caches them in a
  bounded LRU :class:`WorkerBlockCache` keyed by ``(path, file_key,
  block)``, so repeat stages over the same dataset version hit warm
  cache instead of the wire.  :class:`RemoteColFile` rebuilds
  ``read_rows`` from those bytes with the exact block-boundary
  semantics of :class:`~repro.data.colfile.ColFileHandle`, so remote
  arrays are bit-identical to a local mmap.

Trust model: ``run_stage`` executes **pickled code**.  That is the
same trust process-pool workers extend to the driver, but over TCP it
means a shard worker must only ever listen on a trusted network —
loopback, or a cluster-private interface.  There is no tenant layer
here; the front door (:mod:`repro.net.server`) stays the only
untrusted-facing endpoint.
"""

import os
import socket
import socketserver
import threading

from concurrent.futures import ThreadPoolExecutor, wait

from repro.common.env import positive_env_number
from repro.common.errors import (
    DataError,
    EngineError,
    FrameTooLargeError,
    ProtocolError,
    to_wire,
)
from repro.common.eviction import EvictionIndex
from repro.common.metrics import MetricsRegistry
from repro.data.colfile import read_row_range
from repro.data.shardmap import ShardMap
from repro.data.shm import (
    attachment_cache_stats,
    block_fetcher,
    resolve_local_handle,
)
from repro.engine.executors import (
    EXECUTOR_REMOTE,
    StageUnshippable,
    batch_reply,
    batch_request,
    register_executor,
    serve_batch,
    shippable,
)
from repro.engine.task import job_state_stats
from repro.net.client import FrameConnection
from repro.net.protocol import (
    KIND_ERROR,
    KIND_REQUEST,
    PROTOCOL_VERSION,
    FrameError,
)
# FrameConnection encodes; benchmarks/e2e/trace.py resolves this name.
from repro.net.protocol import encode_frame  # noqa: F401

#: Stage outputs (rule aggregates, packed key arrays) are bigger than
#: front-door payloads; shard frames get a roomier cap.
WORKER_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Ops a *worker* may initiate against the driver mid-stage (reverse
#: RPC on the stage connection); everything else flows driver→worker.
DRIVER_OPS = ("block_fetch",)

#: Worker-initiated request ids start far above any driver-side id
#: (drivers count up from 1), so the two id spaces on the shared
#: socket can never collide.
WORKER_CALLBACK_ID_BASE = 1 << 20

#: Default bound on bytes of fetched colfile blocks a worker keeps.
DEFAULT_BLOCK_CACHE_BYTES = 256 * 1024 * 1024

#: Default request deadline (seconds) for driver↔worker calls.
DEFAULT_WORKER_TIMEOUT = 120.0


def default_block_cache_bytes():
    """Worker block-cache bound from ``REPRO_WORKER_BLOCK_CACHE_BYTES``.

    Unset/empty means :data:`DEFAULT_BLOCK_CACHE_BYTES`.
    """
    return positive_env_number(
        "REPRO_WORKER_BLOCK_CACHE_BYTES", DEFAULT_BLOCK_CACHE_BYTES, int,
        EngineError, "an integer", "at least 1",
    )


def default_worker_timeout():
    """Shard-call deadline from ``REPRO_WORKER_TIMEOUT`` (seconds).

    Unset/empty means :data:`DEFAULT_WORKER_TIMEOUT`.  The deadline is
    the driver's hang detector: a worker that does not answer within
    it is treated as dead and its shards are re-placed.  It becomes a
    socket timeout, so it may not exceed ``threading.TIMEOUT_MAX``.
    """
    timeout = positive_env_number(
        "REPRO_WORKER_TIMEOUT", DEFAULT_WORKER_TIMEOUT, float,
        EngineError, "a number of seconds", "positive",
    )
    if timeout > threading.TIMEOUT_MAX:
        raise EngineError(
            "REPRO_WORKER_TIMEOUT must be at most %g seconds, got %g"
            % (threading.TIMEOUT_MAX, timeout)
        )
    return timeout


def _blob_at(blobs, index, field):
    """The frame segment a payload field names, as a view into it."""
    if type(index) is not int or not 0 <= index < len(blobs):
        raise ProtocolError(
            "%s names blob %r of a frame that carries %d"
            % (field, index, len(blobs))
        )
    return blobs[index]


def parse_address(address):
    """``"host:port"`` or ``(host, port)`` as a ``(host, port)`` tuple."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    text = str(address)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise EngineError(
            "worker address must be 'host:port', got %r" % address
        )
    try:
        return host, int(port)
    except ValueError:
        raise EngineError(
            "worker address must be 'host:port', got %r" % address
        ) from None


# ----------------------------------------------------------------------
# Worker-local block cache and remote colfile reader
# ----------------------------------------------------------------------


class WorkerBlockCache:
    """Bounded worker-local cache of shipped colfile blocks (LRU).

    Keys are ``(path, file_key, block_index)`` — the file *state*, not
    just the path, so a rewritten dataset never serves stale bytes.
    Values are the raw block payloads exactly as shipped, each its own
    ``bytes`` (a block arrives as a view into a whole frame body, which
    a cached view would keep alive); byte accounting and recency run on
    the shared
    :class:`~repro.common.eviction.EvictionIndex` ledger, and the
    ``worker_block_cache_*`` counters land in a
    :class:`~repro.common.metrics.MetricsRegistry` (hits, misses,
    evictions, fetched bytes).
    """

    def __init__(self, capacity_bytes=None, metrics=None):
        if capacity_bytes is None:
            capacity_bytes = default_block_cache_bytes()
        if capacity_bytes < 1:
            raise EngineError("block cache capacity must be at least 1 byte")
        self.capacity_bytes = int(capacity_bytes)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._blocks = {}
        self._index = EvictionIndex()
        self._lock = threading.Lock()

    def get(self, key):
        """The cached bytes for ``key``, or None (counted hit/miss)."""
        with self._lock:
            data = self._blocks.get(key)
            if data is None:
                self.metrics.increment("worker_block_cache_misses")
                return None
            self._index.touch(key)
            self.metrics.increment("worker_block_cache_hits")
            return data

    def put(self, key, data):
        """Insert freshly fetched bytes, evicting cold blocks to fit."""
        size = len(data)
        with self._lock:
            if key in self._blocks:
                self._index.touch(key)
                return
            self.metrics.increment("worker_block_cache_fetched_bytes", size)
            if size > self.capacity_bytes:
                return  # larger than the whole cache: never cached
            self._blocks[key] = bytes(data)
            self._index.add(key, size)
            while self._index.total_bytes > self.capacity_bytes:
                victim = self._index.pop_coldest()
                if victim is None:
                    break
                self._blocks.pop(victim[0], None)
                self.metrics.increment("worker_block_cache_evictions")

    def stats(self):
        """Capacity, residency and counters, one dict."""
        with self._lock:
            counters = dict(self.metrics.counters)
            return {
                "capacity_bytes": self.capacity_bytes,
                "resident_bytes": self._index.total_bytes,
                "blocks": len(self._blocks),
                "hits": counters.get("worker_block_cache_hits", 0),
                "misses": counters.get("worker_block_cache_misses", 0),
                "evictions": counters.get("worker_block_cache_evictions", 0),
                "fetched_bytes": counters.get(
                    "worker_block_cache_fetched_bytes", 0
                ),
            }


class RemoteColFile:
    """``read_rows`` over the wire: a colfile read without the file.

    The shared-nothing counterpart of
    :class:`~repro.data.colfile.ColFileHandle`: block payloads arrive
    as the raw bytes the driver mmaps (via ``block_fetch`` on the stage
    connection) and :meth:`read_rows` hands them to the same
    :func:`~repro.data.colfile.read_row_range` the handle reads its
    mmap through, so remote arrays are bit-identical to a local mmap.
    What is remote lives here: the meta fetch, the length check on
    received bytes, and the worker's :class:`WorkerBlockCache` —
    missing blocks for one ``read_rows`` call are fetched in a single
    round trip.
    """

    def __init__(self, path, file_key, cache, connection, meta=None,
                 timeout=None):
        self.path = str(path)
        self.file_key = tuple(file_key)
        self._cache = cache
        self._connection = connection
        self._timeout = timeout
        self.num_rows = None
        self.block_rows = None
        self.num_dimensions = None
        if meta is not None:
            self._apply_meta(meta)

    def _apply_meta(self, meta):
        try:
            self.num_rows = int(meta["num_rows"])
            self.block_rows = int(meta["block_rows"])
            self.num_dimensions = int(meta["num_dimensions"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                "malformed block_fetch meta: %s" % exc
            ) from None
        if self.block_rows < 1 or self.num_rows < 0 \
                or self.num_dimensions < 0:
            raise ProtocolError("malformed block_fetch meta")

    @property
    def row_bytes(self):
        return 8 * (self.num_dimensions + 1)

    def fetch_meta(self):
        """Layout meta for this file state, fetched if not yet known."""
        if self.num_rows is None:
            self._fetch_blocks(())
        return {
            "num_rows": self.num_rows,
            "block_rows": self.block_rows,
            "num_dimensions": self.num_dimensions,
        }

    # -- wire ----------------------------------------------------------

    def _fetch_blocks(self, indices):
        """One ``block_fetch`` round trip; returns index -> raw bytes
        (views into the reply frame)."""
        try:
            answer = self._connection.call("block_fetch", {
                "path": self.path,
                "file_key": list(self.file_key),
                "blocks": [int(i) for i in indices],
                "want_meta": self.num_rows is None,
            }, timeout=self._timeout)
        except (EOFError, OSError) as exc:  # timed out, closed or reset
            raise EngineError(
                "driver did not answer block_fetch: %s" % exc
            ) from exc
        reply, blobs = answer.payload, answer.blobs
        if self.num_rows is None:
            self._apply_meta(reply.get("meta") or {})
        fetched = {}
        for entry in reply.get("blocks", ()):
            fetched[int(entry["index"])] = _blob_at(
                blobs, entry["data"], "block_fetch data"
            )
        missing = set(indices) - set(fetched)
        if missing:
            raise ProtocolError(
                "driver answered block_fetch without blocks %s"
                % sorted(missing)
            )
        return fetched

    # -- blocks through the cache --------------------------------------

    def _block_nbytes(self, index):
        start = index * self.block_rows
        rows = min(start + self.block_rows, self.num_rows) - start
        return rows * self.row_bytes

    def _block_buffers(self, first, last):
        """``(bytes, 0)`` per block ``first..last``, through the cache."""
        indices = range(first, last + 1)
        got = {}
        wanted = []
        for index in indices:
            data = self._cache.get((self.path, self.file_key, index))
            if data is None:
                wanted.append(index)
            else:
                got[index] = data
        if wanted:
            for index, data in self._fetch_blocks(wanted).items():
                if len(data) != self._block_nbytes(index):
                    raise ProtocolError(
                        "block %d of %s arrived with %d bytes, expected %d"
                        % (index, self.path, len(data),
                           self._block_nbytes(index))
                    )
                self._cache.put((self.path, self.file_key, index), data)
                got[index] = data
        return [(got[index], 0) for index in indices]

    def read_rows(self, start, stop):
        """(columns, measure) for [start, stop); see ColFileHandle."""
        if self.num_rows is None:
            self.fetch_meta()
        return read_row_range(
            start, stop, self.num_rows, self.block_rows,
            self.num_dimensions, self._block_buffers,
        )

    def __repr__(self):
        return "RemoteColFile(%r, key=%r)" % (self.path, self.file_key)


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------


class _WorkerConnection(socketserver.BaseRequestHandler):
    """One driver connection: read frames, dispatch ops, answer.

    The connection is also the worker's path *back* to the driver:
    while ``run_stage`` executes, a shard that cannot resolve its
    colfile locally calls ``block_fetch`` over this same socket
    (``self.connection.call``), and the driver answers from inside its
    own ``run_stage`` wait — one socket, two directions, no extra
    listener on the driver.  Driver requests that arrive during such a
    call wait in the connection's inbox for this loop.
    """

    def setup(self):
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connection = FrameConnection(
            self.request, WORKER_MAX_FRAME_BYTES, blobs=True,
            first_id=WORKER_CALLBACK_ID_BASE + 1,
        )

    def handle(self):
        worker = self.server.shard_worker
        connection = self.connection
        try:
            while not worker.closing:
                frame = connection.next_frame()
                if worker.closing:
                    # Stopped while this connection was idle: refuse
                    # the just-arrived request by closing — the driver
                    # reads EOF, marks the worker dead and re-places
                    # its shards.
                    return
                if isinstance(frame, FrameError):
                    connection.send(KIND_ERROR, frame.request_id,
                                    to_wire(frame.exception))
                elif frame.kind == KIND_REQUEST:
                    connection.answer(
                        frame.request_id,
                        lambda: self._dispatch(worker, frame),
                    )
        except (EOFError, OSError, ProtocolError):
            return  # driver gone, or a protocol version we cannot read

    def _dispatch(self, worker, frame):
        op = frame.payload.get("op")
        handler = worker.ops.get(op)
        if handler is None:
            raise ProtocolError("unknown worker op %r" % op)
        return handler(frame, self.connection)


class _WorkerServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ShardWorker:
    """A TCP shard worker: start, serve stage batches, stop.

    Runs its accept loop on a daemon thread (``start`` returns once the
    socket is bound, so the bound ``port`` is immediately usable with
    ``host='127.0.0.1', port=0`` in tests).  Each connection is served
    by its own thread; stage batches within a connection run serially.

    ``block_cache_bytes`` bounds the worker-local cache of colfile
    blocks fetched from the driver (default
    ``REPRO_WORKER_BLOCK_CACHE_BYTES``, else 256 MiB).
    ``local_files=False`` runs the worker *shared-nothing*: every mmap
    block resolves through ``block_fetch``, never the worker's own
    filesystem — the correct stance when driver and worker do not
    share storage, even if equal paths happen to exist on both.
    """

    def __init__(self, host="127.0.0.1", port=0, block_cache_bytes=None,
                 local_files=True):
        self.host = host
        self.port = int(port)
        self.local_files = bool(local_files)
        self.fetch_timeout = default_worker_timeout()
        self.closing = False
        self.metrics = MetricsRegistry()
        self.block_cache = WorkerBlockCache(
            block_cache_bytes, metrics=self.metrics
        )
        self._meta_cache = {}  # (path, file_key) -> layout meta
        self._server = None
        self._thread = None
        self._stages = 0
        self._tasks = 0
        self._lock = threading.Lock()
        self.ops = {
            "worker_hello": self._op_hello,
            "heartbeat": self._op_heartbeat,
            "run_stage": self._op_run_stage,
        }

    # -- lifecycle -----------------------------------------------------

    def start(self):
        if self._server is not None:
            raise EngineError("shard worker is already running")
        self._server = _WorkerServer(
            (self.host, self.port), _WorkerConnection
        )
        self._server.shard_worker = self
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-shard-worker",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self):
        self.closing = True
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def address(self):
        return "%s:%d" % (self.host, self.port)

    def stats(self):
        """Stage/task counters and block-cache state served so far."""
        with self._lock:
            stages, tasks = self._stages, self._tasks
        return {
            "stages": stages,
            "tasks": tasks,
            "local_files": self.local_files,
            "block_cache": self.block_cache.stats(),
            "job_state": job_state_stats(),
        }

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # -- ops -----------------------------------------------------------

    def _op_hello(self, frame, connection):
        with self._lock:
            stages, tasks = self._stages, self._tasks
        return {
            "ok": True,
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "stages": stages,
            "tasks": tasks,
            "local_files": self.local_files,
            "attachments": attachment_cache_stats(),
            "block_cache": self.block_cache.stats(),
        }, ()

    def _op_heartbeat(self, frame, connection):
        """Minimal liveness probe: no caches touched, no locks held
        beyond the counter read — answers even while stages grind."""
        return {"ok": True, "pid": os.getpid(), "closing": self.closing}, ()

    def _op_run_stage(self, frame, connection):
        request = _blob_at(frame.blobs, frame.payload.get("batch"),
                           "run_stage batch")

        def fetch(path, file_key):
            return self._remote_source(connection, path, file_key)

        with block_fetcher(fetch, local_files=self.local_files):
            reply, tasks_run = serve_batch(request)
        with self._lock:
            self._stages += 1
            self._tasks += tasks_run
        return {"reply": 0}, [reply]

    def _remote_source(self, connection, path, file_key):
        """A :class:`RemoteColFile` for one unresolvable mmap block.

        Layout meta is cached per file state on the worker, so only the
        first contact with a dataset version pays the meta round trip;
        block payloads live in the shared :class:`WorkerBlockCache`
        across stages and connections.
        """
        key = (str(path), tuple(file_key))
        with self._lock:
            meta = self._meta_cache.get(key)
        source = RemoteColFile(
            path, file_key, self.block_cache, connection,
            meta=meta, timeout=self.fetch_timeout,
        )
        if meta is None:
            fetched = source.fetch_meta()
            with self._lock:
                self._meta_cache[key] = fetched
        return source


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


class ShardWorkerClient:
    """Blocking client a driver holds per remote shard worker.

    One connection, used from one driver thread at a time
    (:class:`RemoteExecutor` routes each worker's batches through its
    own thread-pool slot).  Connects lazily on first use and verifies
    the peer with ``worker_hello``.  While waiting for a ``run_stage``
    answer the client services the worker's reverse ``block_fetch``
    requests inline (:meth:`_on_frame`), counting ``blocks_shipped`` /
    ``bytes_shipped``.

    ``healthy`` is the executor's routing flag: :meth:`mark_dead` clears
    it when a call times out or the connection drops, and the retry
    loop re-places the dead worker's shards onto the survivors.
    ``timeout`` (default ``REPRO_WORKER_TIMEOUT``, else 120 s) is the
    per-call deadline that turns a hung worker into a dead one; it
    covers the whole call, the block fetches it serves included.
    """

    def __init__(self, address, timeout=None):
        self.host, self.port = parse_address(address)
        self.timeout = (default_worker_timeout() if timeout is None
                        else timeout)
        self.healthy = True
        self.blocks_shipped = 0
        self.bytes_shipped = 0
        self._connection = None

    # -- connection ----------------------------------------------------

    def _connect(self):
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise EngineError(
                "cannot reach shard worker %s:%d: %s"
                % (self.host, self.port, exc)
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._connection = FrameConnection(
            sock, WORKER_MAX_FRAME_BYTES, blobs=True
        )
        if not self._call("worker_hello", {}).payload.get("ok"):
            raise EngineError(
                "shard worker %s:%d refused hello" % (self.host, self.port)
            )

    def close(self):
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()

    def mark_dead(self):
        """Flag the worker unusable and drop the connection.

        The executor's retry loop calls this on a timed-out or
        connection-lost ``run_stage``; a dead client is skipped by all
        further routing for the executor's lifetime.
        """
        self.healthy = False
        self.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- request/response ----------------------------------------------

    def _call(self, op, payload, blobs=()):
        """Send one request; the answering frame (payload and blobs)."""
        if self._connection is None:
            self._connect()
        try:
            return self._connection.call(
                op, payload, blobs, timeout=self.timeout,
                on_frame=self._on_frame,
            )
        except socket.timeout:
            raise EngineError(
                "shard worker %s:%d did not answer within %.3gs"
                % (self.host, self.port, self.timeout)
            ) from None
        except (EOFError, OSError) as exc:
            self.close()
            raise EngineError(
                "connection to shard worker %s:%d lost: %s"
                % (self.host, self.port, exc)
            ) from exc

    # -- reverse RPC: the worker fetches blocks from us ----------------

    def _on_frame(self, frame):
        """Answer a worker-initiated request (``DRIVER_OPS``) or refuse
        one that did not decode; anything else is stale here."""
        if isinstance(frame, FrameError):
            self._connection.send(KIND_ERROR, frame.request_id,
                                  to_wire(frame.exception))
        elif frame.kind == KIND_REQUEST:
            self._connection.answer(
                frame.request_id,
                lambda: self._serve_block_fetch(frame.payload),
            )

    def _serve_block_fetch(self, payload):
        if payload.get("op") != "block_fetch":
            raise ProtocolError(
                "unknown worker-initiated op %r" % payload.get("op")
            )
        try:
            path = payload["path"]
            file_key = tuple(payload["file_key"])
            indices = [int(i) for i in payload.get("blocks", ())]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                "malformed block_fetch payload: %s" % exc
            ) from None
        handle = resolve_local_handle(path, file_key)
        blocks, blobs = [], []
        for index in indices:
            if not 0 <= index < handle.num_blocks:
                raise DataError(
                    "block %d out of range for %s (%d blocks)"
                    % (index, path, handle.num_blocks)
                )
            data = handle.block_raw_bytes(index)
            blocks.append({"index": index, "data": len(blobs)})
            blobs.append(data)
            self.blocks_shipped += 1
            self.bytes_shipped += len(data)
        reply = {"blocks": blocks}
        if payload.get("want_meta"):
            reply["meta"] = handle.wire_meta()
        return reply, blobs

    # -- API the executor consumes -------------------------------------

    def hello(self):
        return self._call("worker_hello", {}).payload

    def heartbeat(self, timeout=5.0):
        """Liveness probe under its own (short) deadline.

        Returns True iff the worker answers in time — reconnecting
        first if the client has no live socket.  Never raises: a
        refused, lost or silent worker is simply ``False``, which is
        what the executor's health check wants to know.
        """
        previous = self.timeout
        if timeout is not None:
            self.timeout = timeout
        try:
            return bool(self._call("heartbeat", {}).payload.get("ok"))
        except EngineError:
            return False
        finally:
            self.timeout = previous

    def run_stage(self, request):
        """Run one :func:`~repro.engine.executors.batch_request` on the
        worker; the reply blob, for
        :func:`~repro.engine.executors.batch_reply`."""
        answer = self._call("run_stage", {"batch": 0}, [request])
        return _blob_at(answer.blobs, answer.payload.get("reply"),
                        "run_stage reply")

    def __repr__(self):
        return "ShardWorkerClient(%s:%d)" % (self.host, self.port)


class RemoteExecutor:
    """The ``"remote"`` stage executor (:mod:`repro.engine.executors`):
    one batch of pickled kernel and shard descriptors out per worker
    per round, ``(output, charges)`` records back in partition order.

    Routing is by range among the live workers: of the shards a round
    still has to run, each worker takes one contiguous run
    (:meth:`~repro.data.shardmap.ShardMap.placement_for`), the same run
    stage after stage, so a worker reads each storage block under its
    run once per job.  Remote stages always cross the wire (even a
    single shard), so every stage that reaches this executor counts as
    placed; metering stages that read no data run on the driver
    (``ClusterContext.run_stage(on_driver=True)``) and never get here.
    Each call carries one
    :func:`~repro.engine.executors.batch_request` and its reply reads
    through :func:`~repro.engine.executors.batch_reply` — the codec a
    process-pool child speaks.  The lowest-index failing shard's
    exception propagates; anything that cannot cross the wire (a
    kernel, partition, output or exception instance that does not
    pickle or does not load, a frame over the channel's cap) makes the
    stage unshippable.  A call that fails any other way (a typed error
    the worker answered, a malformed reply) raises once every call of
    its round is back, the lowest slot's first.

    A worker that times out or drops its connection mid-stage is
    marked dead (:meth:`ShardWorkerClient.mark_dead`) and its
    unfinished shards re-place onto the surviving workers on the next
    round, again one contiguous run per survivor — counted as a
    :meth:`~repro.engine.placement.PlacementTracker.worker_failure`
    — repeating until the stage resolves or no worker survives
    (unshippable too).  Re-running a dead worker's shards is safe
    at-most-once: a failed ``run_stage`` call merges *nothing* and
    kernels are pure, so the retried result is bit-identical.  Clients
    connect on the first stage; at most ``width`` calls are in flight.
    """

    def __init__(self, addresses, width, placement):
        self._addresses = list(addresses)
        self._width = width
        self._placement = placement
        self._clients = None
        self._pool = None

    def run(self, kernel, partitions):
        self._placement.record_stage()
        kernel_bytes = shippable(kernel)
        if self._clients is None:
            self._clients = [ShardWorkerClient(a) for a in self._addresses]
            self._pool = ThreadPoolExecutor(
                max_workers=self._width, thread_name_prefix="repro-stage"
            )
        clients = self._clients
        remaining = list(range(len(partitions)))
        records = {}
        failure = None  # (index, exception) of the lowest failing shard
        had_death = False
        while remaining:
            alive = [slot for slot, c in enumerate(clients) if c.healthy]
            if had_death and alive:
                # A death this stage makes the survivor list suspect
                # (a partitioned network rarely takes exactly one
                # host); probe before committing shards to a peer that
                # would only time out too.
                for slot in alive:
                    if not clients[slot].heartbeat():
                        clients[slot].mark_dead()
                        self._placement.worker_failure()
                alive = [slot for slot in alive if clients[slot].healthy]
            if not alive:
                raise StageUnshippable
            batches = {}  # slot -> ascending shard indices
            for rank, i in enumerate(remaining):
                slot = alive[ShardMap.placement_for(
                    rank, len(remaining), len(alive))]
                self._placement.record(i, slot)
                batches.setdefault(slot, []).append(i)
            # Every batch pickles before any is sent: a stage that
            # cannot cross costs no worker a call.
            requests = {
                slot: batch_request(kernel_bytes,
                                    [(i, partitions[i]) for i in batch])
                for slot, batch in batches.items()
            }
            futures = {
                slot: self._pool.submit(clients[slot].run_stage, request)
                for slot, request in requests.items()
            }
            # Every call of the round is back before any outcome is
            # read, so whatever one of them raises, the next stage
            # finds no client mid-call; the lowest slot's surfaces.
            wait(futures.values())
            unshippable = had_death = False
            for slot, future in sorted(futures.items()):
                try:
                    batch_records, batch_failure = batch_reply(
                        future.result()
                    )
                except (FrameTooLargeError, StageUnshippable):
                    # A frame over the cap, or a batch that did not
                    # cross: the worker is fine and its connection in
                    # step, the stage is what cannot cross.
                    unshippable = True
                    continue
                except EngineError:
                    # Timed out, refused or dropped mid-call: the
                    # worker is dead to this stage.  Nothing of its
                    # batch merged, so its shards re-place onto the
                    # survivors next round.
                    clients[slot].mark_dead()
                    self._placement.worker_failure(batches[slot])
                    had_death = True
                    continue
                records.update(zip(batches[slot], batch_records))
                if batch_failure is not None and (
                        failure is None or batch_failure[0] < failure[0]):
                    failure = batch_failure
            if unshippable:
                # Raised only here, with every call of the round back:
                # the next stage must find no client mid-call.
                raise StageUnshippable
            if not had_death:
                # Each batch ran ascending up to its own first failure,
                # so every shard below the lowest one has resolved.
                break
            # The lowest-index-failure contract: a dead worker's shards
            # *below* the lowest failure seen so far must still resolve
            # (one may fail at an even lower index, which is the
            # exception a serial run would surface); the rest are moot.
            remaining = [
                i for i in remaining if i not in records
                and (failure is None or i < failure[0])
            ]
        if failure is not None:
            if isinstance(failure[1], FrameTooLargeError):
                # A shard's shipped blocks did not survive the wire:
                # rerun locally, like an unshippable batch.
                raise StageUnshippable
            raise failure[1]
        return [records[i] for i in range(len(partitions))]

    def stats(self):
        """Fleet health and block-shipping counters (none before the
        first stage connects the clients)."""
        clients = self._clients
        if not clients:
            return {}
        return {
            "healthy_workers": sum(1 for c in clients if c.healthy),
            "blocks_shipped": sum(c.blocks_shipped for c in clients),
            "bytes_shipped": sum(c.bytes_shipped for c in clients),
        }

    def close(self, wait=True):
        for client in self._clients or ():
            client.close()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        if wait:
            self._clients = self._pool = None


register_executor(EXECUTOR_REMOTE, RemoteExecutor)
