"""Asyncio TCP front door for :class:`~repro.service.RuleMiningService`.

Architecture
------------
The server runs one asyncio event loop on its own thread (the service
itself is thread-based and blocking).  Each connection is a
:class:`ClientSession`; each request frame dispatches as its own task,
so a ``result`` wait never stalls the connection's read loop.
No thread waits on a job: the server adds a done callback to each job
it admits, and the job's own completion — on the service thread that
finished it — serializes the outcome once and hands it to the loop,
which retires the job and wakes every ``result`` fetcher.  A small
fixed codec pool takes what would otherwise block the loop: serializing
a job already done at admission (a cache hit) and ``service.stats()``.

Multi-tenancy
-------------
A session belongs to a *tenant* (declared by ``hello``; ``"default"``
otherwise).  Each tenant's :class:`TenantPolicy` carries a quota of
in-flight jobs — counted per *submission*, across all of the tenant's
connections — and a priority class that feeds the service's admission
queue.  Quota overflow rejects with
:class:`~repro.common.errors.TenantQuotaError` before the scheduler
ever sees the request.

Protocol-level coalescing
-------------------------
Which requests are the same is the service's decision alone: every
submission goes to ``service.submit_*``, and a handle the service
coalesced carries its leader's job id.  The server keys its
:class:`ServerJob` table on that id, so concurrent identical requests
— *from any connection* — attach to one :class:`ServerJob` (one
execution, one result serialization).  Hits surface as
``stats()["net"]["coalesce_hits"]``.

Drain
-----
``drain()`` stops the listener, sends a GOAWAY frame to idle
connections, and waits for every accepted job to finish; sessions that
still have undelivered results stay connected so nothing accepted is
ever lost.  ``stop()`` then tears the loop down.

This front door is the only untrusted-facing endpoint: its ops (the
``_OPS`` table) accept data, never code.  Shard workers
(:mod:`repro.net.worker`) speak the same frame layer but execute
pickled kernels, and must stay on trusted networks.  The normative
wire spec for both endpoints is ``docs/protocol.md``.
"""

import asyncio
import itertools
import threading

from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor

from repro.common.errors import (
    ProtocolError,
    ResultTimeoutError,
    ServiceClosedError,
    ServiceError,
    TenantQuotaError,
    from_wire,
    to_wire,
)
from repro.common.metrics import MetricsRegistry
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    KIND_ERROR,
    KIND_EVENT,
    KIND_GOAWAY,
    KIND_REQUEST,
    KIND_RESPONSE,
    Frame,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.net.wire import result_to_wire, sanitize
from repro.service.jobs import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
)

#: Priority classes a tenant (or request) may name on the wire.
PRIORITY_CLASSES = {
    "high": PRIORITY_HIGH,
    "normal": PRIORITY_NORMAL,
    "low": PRIORITY_LOW,
}

DEFAULT_TENANT = "default"

#: Finished jobs kept addressable for late ``result`` fetches (e.g.
#: after a client reconnects); the oldest completion is evicted first.
COMPLETED_JOB_RETENTION = 1024

#: Threads serializing cache-hit replies and ``stats()`` snapshots off
#: the loop; both are short and GIL-bound.
CODEC_THREADS = 2

#: Capabilities this server advertises in its ``hello`` response, so a
#: client can discover surface without probing: ``stats.placement``
#: (``stats()`` carries the shard-placement section) and
#: ``stats.buffer_pool.attachments`` (worker attachment-cache
#: counters).  Shard *execution* workers are a separate, trusted-only
#: endpoint (:mod:`repro.net.worker`) and are deliberately not part of
#: this untrusted-facing front door.
SERVER_FEATURES = ("stats.placement", "stats.buffer_pool.attachments")


class TenantPolicy:
    """Per-tenant admission policy: in-flight quota + priority class."""

    def __init__(self, max_inflight=8, priority="normal"):
        if max_inflight < 1:
            raise ServiceError("max_inflight must be at least 1")
        if priority not in PRIORITY_CLASSES:
            raise ServiceError(
                "priority must be one of %s, got %r"
                % (", ".join(sorted(PRIORITY_CLASSES)), priority)
            )
        self.max_inflight = max_inflight
        self.priority = priority

    @property
    def priority_value(self):
        return PRIORITY_CLASSES[self.priority]

    def __repr__(self):
        return "TenantPolicy(max_inflight=%d, priority=%r)" % (
            self.max_inflight, self.priority,
        )


class NetConfig:
    """Tunables for :class:`ServiceServer`."""

    def __init__(self, host="127.0.0.1", port=0, tenants=None,
                 default_tenant=None, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        self.host = host
        #: Port 0 binds an ephemeral port; read it back from
        #: ``ServiceServer.port`` after ``start()``.
        self.port = port
        #: tenant name -> :class:`TenantPolicy`.  Unlisted tenants get
        #: ``default_tenant``'s policy.
        self.tenants = dict(tenants or {})
        self.default_tenant = default_tenant or TenantPolicy()
        self.max_frame_bytes = max_frame_bytes

    def policy_for(self, tenant):
        return self.tenants.get(tenant, self.default_tenant)


class ServerJob:
    """One distinct in-flight (or retained finished) wire job.

    Keyed by the service's job id.  Many submissions — across
    connections and tenants — may attach to one ServerJob; ``attached``
    counts them per tenant so quota release on completion mirrors quota
    charge on submission.  ``handle`` is the service's job handle while
    the job runs and None once it has finished: a retained finished job
    keeps only its serialised ``payload``, not the ``MiningResult``
    behind the handle as well.
    """

    __slots__ = (
        "job_id", "handle", "label", "done_event", "ok", "payload",
        "attached", "finished", "cache_hit",
    )

    def __init__(self, handle, label):
        self.job_id = handle.job_id
        self.handle = handle
        self.label = label
        self.done_event = asyncio.Event()
        self.ok = None
        self.payload = None          # wire form of the result, or error
        self.attached = Counter()
        self.finished = False
        self.cache_hit = handle.cache_hit


class ClientSession:
    """Per-connection state: tenant, unfinished jobs, stream flag."""

    __slots__ = (
        "session_id", "tenant", "writer", "write_lock", "subscribed",
        "jobs", "goaway_sent", "closed",
    )

    def __init__(self, session_id, writer):
        self.session_id = session_id
        self.tenant = DEFAULT_TENANT
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.subscribed = False
        self.jobs = set()
        self.goaway_sent = False
        self.closed = False


class ServiceServer:
    """Framed-protocol TCP server over one :class:`RuleMiningService`."""

    def __init__(self, service, config=None):
        self.service = service
        self.config = config or NetConfig()
        self.port = None
        self._loop = None
        self._thread = None
        self._listener = None
        self._started = threading.Event()
        self._start_error = None
        self._shutdown = None        # asyncio.Event, created on the loop
        self._draining = False
        self._stopped = False
        self._sessions = {}
        self._tasks = set()          # the loop holds tasks only weakly
        self._session_ids = itertools.count(1)
        self._jobs = {}              # job_id -> ServerJob
        self._finished = deque()     # finished job ids, oldest first
        self._tenant_inflight = Counter()
        self._tenant_counters = {}   # tenant -> Counter of event names
        self._metrics = MetricsRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=CODEC_THREADS, thread_name_prefix="net-codec",
        )

    # ------------------------------------------------------------------
    # Threaded lifecycle
    # ------------------------------------------------------------------

    def start(self, timeout=10.0):
        """Bind and serve on a background thread; returns the port."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="net-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceError("server failed to start within %.1fs"
                               % timeout)
        if self._start_error is not None:
            raise self._start_error
        self.service.register_stats_section("net", self.net_stats)
        return self.port

    def _run_loop(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start() or stop()
            self._start_error = exc
            self._started.set()

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            self._listener = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        except OSError as exc:
            self._start_error = ServiceError(
                "cannot bind %s:%d: %s"
                % (self.config.host, self.config.port, exc)
            )
            self._started.set()
            return
        self.port = self._listener.sockets[0].getsockname()[1]
        self._started.set()
        await self._shutdown.wait()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        for session in list(self._sessions.values()):
            await self._close_session(session)

    def drain(self, timeout=None):
        """Stop accepting, flush in-flight jobs, GOAWAY idle clients.

        Returns True when every accepted job finished inside
        ``timeout`` (None: wait indefinitely).  Connected clients with
        undelivered results stay connected either way — drain never
        discards an accepted job's outcome.
        """
        self._require_running()
        future = asyncio.run_coroutine_threadsafe(
            self._drain(timeout), self._loop
        )
        return future.result()

    def stop(self):
        """Tear the server down (idempotent).  Drain first for grace."""
        if self._thread is None or self._stopped:
            return
        self._stopped = True
        try:
            self.service.unregister_stats_section("net")
        except ServiceError:
            pass
        if self._start_error is None and self._loop is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout=30.0)
        self._executor.shutdown(wait=False)

    def _require_running(self):
        if self._thread is None or self._start_error is not None:
            raise ServiceError("server is not running")

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        if self._draining:
            # Refuse politely: a GOAWAY, then close.
            try:
                writer.write(encode_frame(KIND_GOAWAY, 0,
                                          {"reason": "draining"}))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        session = ClientSession(next(self._session_ids), writer)
        self._sessions[session.session_id] = session
        self._metrics.increment("net_connections_opened")
        decoder = FrameDecoder(self.config.max_frame_bytes)
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                try:
                    events = decoder.feed(data)
                except ProtocolError as exc:
                    # Unknown version: answer once, then hang up — the
                    # stream cannot be re-delimited.
                    self._metrics.increment("net_protocol_errors")
                    await self._send(session, KIND_ERROR, 0, to_wire(exc))
                    break
                for event in events:
                    if isinstance(event, FrameError):
                        self._metrics.increment("net_protocol_errors")
                        await self._send(
                            session, KIND_ERROR, event.request_id,
                            to_wire(event.exception),
                        )
                        continue
                    self._metrics.increment("net_frames_in")
                    if event.kind != KIND_REQUEST:
                        self._metrics.increment("net_protocol_errors")
                        await self._send(
                            session, KIND_ERROR, event.request_id,
                            to_wire(ProtocolError(
                                "clients may only send REQUEST frames, "
                                "got kind %d" % event.kind
                            )),
                        )
                        continue
                    # Each request runs as its own task so a blocking
                    # `result` wait never stalls this read loop.
                    self._spawn(self._dispatch(session, event))
        except (ConnectionError, OSError):
            pass  # abrupt disconnect: jobs keep running (see below)
        except asyncio.CancelledError:
            # Loop teardown (stop()).  Swallowing the cancel lets the
            # task end cleanly instead of tripping asyncio.streams'
            # connection_made callback into logging a spurious
            # traceback; nothing outside awaits this task.
            pass
        finally:
            await self._close_session(session)

    def _spawn(self, coroutine):
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _close_session(self, session):
        if session.closed:
            return
        session.closed = True
        self._sessions.pop(session.session_id, None)
        self._metrics.increment("net_connections_closed")
        # In-flight jobs deliberately survive their submitter: the
        # service computes them anyway and caches the result, so a
        # reconnecting client (or a coalesced peer) still gets it.
        try:
            session.writer.close()
        except (ConnectionError, OSError):
            pass

    async def _send(self, session, kind, request_id, payload):
        if session.closed:
            return
        try:
            frame = encode_frame(kind, request_id, payload,
                                 self.config.max_frame_bytes)
        except ProtocolError as exc:
            frame = encode_frame(KIND_ERROR, request_id, to_wire(exc))
        async with session.write_lock:
            if session.closed:
                return
            try:
                session.writer.write(frame)
                await session.writer.drain()
                self._metrics.increment("net_frames_out")
            except (ConnectionError, OSError):
                await self._close_session(session)

    # ------------------------------------------------------------------
    # Request dispatch (loop thread)
    # ------------------------------------------------------------------

    async def _dispatch(self, session, frame):
        op = None
        try:
            payload = frame.payload
            if not isinstance(payload, dict):
                raise ProtocolError("request payload must be an object")
            op = payload.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise ProtocolError("unknown op %r" % op)
            response = await handler(self, session, payload)
            await self._send(session, KIND_RESPONSE, frame.request_id,
                             response)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if op in ("submit_mine", "submit_query"):
                self._metrics.increment("net_submit_rejections")
            await self._send(session, KIND_ERROR, frame.request_id,
                             to_wire(exc))

    async def _op_hello(self, session, payload):
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("tenant must be a non-empty string")
        session.tenant = tenant
        policy = self.config.policy_for(tenant)
        return {
            "tenant": tenant,
            "max_inflight": policy.max_inflight,
            "priority": policy.priority,
            "features": list(SERVER_FEATURES),
        }

    async def _op_submit_mine(self, session, payload):
        dataset = payload.get("dataset")
        if not isinstance(dataset, str):
            raise ProtocolError("submit_mine needs a dataset name")
        params = dict(payload.get("params") or {})

        def submit(priority, deadline_seconds):
            return self.service.submit_mine(
                dataset, priority=priority,
                deadline_seconds=deadline_seconds, **params
            )

        return self._admit(session, payload, "mine:%s" % dataset, submit)

    async def _op_submit_query(self, session, payload):
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("submit_query needs sql text")

        def submit(priority, deadline_seconds):
            return self.service.submit_query(
                sql, priority=priority, deadline_seconds=deadline_seconds
            )

        return self._admit(session, payload, "sql", submit)

    def _admit(self, session, payload, label, submit):
        """Shared submission path: quota, coalescing, service handoff."""
        if self._draining:
            raise ServiceClosedError("server is draining; job rejected")
        tenant = session.tenant
        policy = self.config.policy_for(tenant)
        if self._tenant_inflight[tenant] >= policy.max_inflight:
            self._metrics.increment("net_quota_rejections")
            self._tenant_counter(tenant)["quota_rejections"] += 1
            raise TenantQuotaError(
                "tenant %r has %d jobs in flight (quota %d); job rejected"
                % (tenant, self._tenant_inflight[tenant],
                   policy.max_inflight)
            )
        priority = policy.priority_value
        requested = payload.get("priority")
        if requested is not None:
            if requested not in PRIORITY_CLASSES:
                raise ProtocolError(
                    "priority must be one of %s"
                    % ", ".join(sorted(PRIORITY_CLASSES))
                )
            # A request may only lower its urgency below the tenant
            # class, never raise it above.
            priority = max(priority, PRIORITY_CLASSES[requested])
        deadline_seconds = payload.get("deadline_seconds")
        handle = submit(priority, deadline_seconds)
        # A coalesced handle carries its leader's id: when this server
        # already tracks that job, the submission attaches to it.
        job = self._jobs.get(handle.job_id)
        net_coalesced = job is not None
        if net_coalesced:
            self._metrics.increment("net_coalesce_hits")
        else:
            job = self._jobs[handle.job_id] = ServerJob(handle, label)
            handle.add_done_callback(lambda: self._on_job_done(job))
            if deadline_seconds is not None and not handle.done():
                # Nobody may be blocked in `result` to notice a queued
                # job's start deadline lapse; this timer is.
                self._loop.call_later(deadline_seconds + 0.005,
                                      self._expire, job)
        if not job.finished:  # else: caught its leader mid-completion
            job.attached[tenant] += 1
            self._tenant_inflight[tenant] += 1
            session.jobs.add(job.job_id)
        self._tenant_counter(tenant)["submitted"] += 1
        self._metrics.increment("net_jobs_submitted")
        return {
            "job_id": job.job_id,
            "cache_hit": handle.cache_hit,
            "coalesced": handle.coalesced,
            "net_coalesced": net_coalesced,
        }

    def _tenant_counter(self, tenant):
        counter = self._tenant_counters.get(tenant)
        if counter is None:
            counter = self._tenant_counters[tenant] = Counter()
        return counter

    # ------------------------------------------------------------------
    # Job completion (completing thread -> loop thread)
    # ------------------------------------------------------------------

    def _expire(self, job):
        if job.handle is not None:
            job.handle.expire()

    def _on_job_done(self, job):
        """``job.handle``'s done callback: serialize the outcome — once,
        never on the loop thread — and hand it to the loop to retire.

        Runs on the service thread that completed the job, or on the
        loop thread itself when the handle was already done at
        admission (a cache hit), which takes one hop to the codec pool.
        """
        if threading.current_thread() is self._thread:
            self._executor.submit(self._on_job_done, job)
            return
        result, exception = job.handle.outcome()
        ok, payload = exception is None, None
        try:
            payload = result_to_wire(result) if ok else to_wire(exception)
        except Exception as exc:
            ok, payload = False, to_wire(exc)
        try:
            self._loop.call_soon_threadsafe(self._retire, job, ok, payload)
        except RuntimeError:
            pass  # stop() closed the loop: nobody is left to tell

    def _retire(self, job, ok, payload):
        # Single-threaded from here (loop thread): retire atomically.
        job.ok, job.payload = ok, payload
        job.finished = True
        job.handle = None
        for tenant, count in job.attached.items():
            self._tenant_inflight[tenant] -= count
            if self._tenant_inflight[tenant] <= 0:
                del self._tenant_inflight[tenant]
        job.done_event.set()
        self._metrics.increment(
            "net_jobs_completed" if ok else "net_jobs_failed"
        )
        self._finished.append(job.job_id)
        if len(self._finished) > COMPLETED_JOB_RETENTION:
            del self._jobs[self._finished.popleft()]
        event = {
            "event": "job_done",
            "job_id": job.job_id,
            "label": job.label,
            "ok": ok,
        }
        if not ok:
            event["error"] = payload
        for session in self._sessions.values():
            session.jobs.discard(job.job_id)
            if session.subscribed:
                self._spawn(self._send(session, KIND_EVENT, 0, event))

    # ------------------------------------------------------------------
    # Remaining ops
    # ------------------------------------------------------------------

    def _job_or_raise(self, payload):
        job = self._jobs.get(payload.get("job_id"))
        if job is None:
            raise ServiceError(
                "unknown job id %r (finished jobs are retained for the "
                "last %d completions)" % (
                    payload.get("job_id"), COMPLETED_JOB_RETENTION,
                )
            )
        return job

    async def _op_poll(self, session, payload):
        job = self._job_or_raise(payload)
        response = {"job_id": job.job_id, "done": job.finished}
        if job.finished:
            response["ok"] = job.ok
        return response

    async def _op_result(self, session, payload):
        job = self._job_or_raise(payload)
        timeout = payload.get("timeout")
        if timeout is not None:
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout)
            except (asyncio.TimeoutError, TimeoutError):
                raise ResultTimeoutError(
                    "timed out after %.3fs waiting for job %d"
                    % (timeout, job.job_id)
                ) from None
        else:
            await job.done_event.wait()
        if not job.ok:
            # Re-raise the job's own typed error so the client sees the
            # same exception type an in-process caller would.
            raise from_wire(job.payload)
        return {
            "job_id": job.job_id,
            "result": job.payload,
            "cache_hit": job.cache_hit,
        }

    async def _op_stats(self, session, payload):
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(
            self._executor, self.service.stats
        )
        return sanitize(stats)

    async def _op_stream(self, session, payload):
        session.subscribed = bool(payload.get("subscribe", True))
        return {"subscribed": session.subscribed}

    _OPS = {
        "hello": _op_hello,
        "submit_mine": _op_submit_mine,
        "submit_query": _op_submit_query,
        "poll": _op_poll,
        "result": _op_result,
        "stats": _op_stats,
        "stream": _op_stream,
    }

    # ------------------------------------------------------------------
    # Drain (loop thread)
    # ------------------------------------------------------------------

    async def _drain(self, timeout):
        self._draining = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        # GOAWAY idle connections: no in-flight jobs of theirs remain
        # undelivered and they aren't waiting on a stream.
        for session in list(self._sessions.values()):
            if not session.jobs and not session.subscribed:
                session.goaway_sent = True
                await self._send(session, KIND_GOAWAY, 0,
                                 {"reason": "draining"})
        pending = [
            job.done_event.wait()
            for job in self._jobs.values() if not job.finished
        ]
        if pending:
            try:
                await asyncio.wait_for(asyncio.gather(*pending), timeout)
            except (asyncio.TimeoutError, TimeoutError):
                return False
        return True

    # ------------------------------------------------------------------
    # Introspection (any thread)
    # ------------------------------------------------------------------

    def net_stats(self):
        """The ``stats()["net"]`` section (see ISSUE acceptance)."""
        counters = dict(self._metrics.counters)
        tenants = {}
        for tenant in set(self._tenant_counters) | set(
                self._tenant_inflight):
            policy = self.config.policy_for(tenant)
            counter = self._tenant_counters.get(tenant, {})
            tenants[tenant] = {
                "inflight": self._tenant_inflight.get(tenant, 0),
                "max_inflight": policy.max_inflight,
                "priority": policy.priority,
                "submitted": counter.get("submitted", 0),
                "quota_rejections": counter.get("quota_rejections", 0),
            }
        return {
            "listening": self._listener is not None,
            "draining": self._draining,
            "connections": len(self._sessions),
            "connections_opened": counters.get("net_connections_opened", 0),
            "connections_closed": counters.get("net_connections_closed", 0),
            "frames_in": counters.get("net_frames_in", 0),
            "frames_out": counters.get("net_frames_out", 0),
            "jobs_submitted": counters.get("net_jobs_submitted", 0),
            "jobs_completed": counters.get("net_jobs_completed", 0),
            "jobs_failed": counters.get("net_jobs_failed", 0),
            "coalesce_hits": counters.get("net_coalesce_hits", 0),
            "quota_rejections": counters.get("net_quota_rejections", 0),
            "protocol_errors": counters.get("net_protocol_errors", 0),
            "tenants": tenants,
        }
