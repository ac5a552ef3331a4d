"""Clients for the framed protocol.

:class:`FrameConnection` is the one blocking framed socket: the
front-door :class:`ServiceClient` below, the driver's
:class:`~repro.net.worker.ShardWorkerClient` and the shard worker's
per-connection handler each hold one, so all three read frames, match
replies to requests and apply a call's deadline the same way.

:class:`ServiceClient` is a plain-socket blocking client whose methods
mirror the in-process service façade
(``submit_mine`` / ``submit_query`` / ``mine`` / ``query`` / ``poll``
/ ``result`` / ``stats``) and raise the *same typed exceptions* a
local caller would (the server ships them as stable wire codes, see
:mod:`repro.common.errors`).  Results come back as real
:class:`~repro.core.result.MiningResult` /
:class:`~repro.sql.result.ResultSet` objects, bit-identical to
in-process execution.

Reconnect semantics: when ``reconnect=True`` (default) a dropped
connection is re-established once per call and the request retried.
Every protocol op is safe to retry — submissions land on the server's
coalescer/result cache rather than re-executing, and job ids remain
addressable across connections because the server's job registry is
global, not per-session.
"""

import itertools
import socket
import time

from collections import deque

from repro.common.errors import (
    ServiceClosedError,
    ServiceError,
    from_wire,
    to_wire,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    KIND_ERROR,
    KIND_EVENT,
    KIND_GOAWAY,
    KIND_REQUEST,
    KIND_RESPONSE,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.net.wire import result_from_wire

#: Extra socket slack past a server-side blocking wait, so the server's
#: own (typed) timeout answer beats the client's socket timeout.
_TIMEOUT_SLACK = 5.0

_ANSWERS = (KIND_RESPONSE, KIND_ERROR)


class FrameConnection:
    """One blocking socket with its frame decoder and an inbox.

    :meth:`call` sends a request and waits for the frame answering it:
    a ``KIND_RESPONSE``, a ``KIND_ERROR`` or a :class:`FrameError`
    under the request's id.  Every other frame that arrives meanwhile
    goes to ``on_frame`` when the caller passes one; otherwise a
    request, event, GOAWAY or :class:`FrameError` waits in the inbox,
    in arrival order, for :meth:`next_frame`, and a stale response or
    error (the answer to a call that already gave up) is dropped.
    ``timeout`` covers the whole call — the send, every chunk of the
    answer and whatever ``on_frame`` does meanwhile — and is on the
    socket before the send.  Request ids count up from ``first_id``:
    a shard worker starts above ``WORKER_CALLBACK_ID_BASE``, so its
    calls back to the driver never share an id with the driver's.

    The class lives here, not in :mod:`repro.net.protocol`, because the
    traced benchmark run (``benchmarks/e2e/trace.py``) times encodes by
    wrapping ``encode_frame`` in the module that calls it: through this
    module's name, client, driver and worker encodes all count.
    """

    def __init__(self, sock, max_frame_bytes, blobs=False, first_id=1):
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        self._reassembly = FrameDecoder(max_frame_bytes, blobs=blobs)
        self._inbox = deque()
        self._next_ids = itertools.count(first_id)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def send(self, kind, request_id, payload, blobs=()):
        self.sock.sendall(encode_frame(
            kind, request_id, payload, self.max_frame_bytes, blobs
        ))

    def answer(self, request_id, handler):
        """Send ``handler()``'s ``(payload, blobs)`` as the response to
        ``request_id``; anything it raises, and an answer over the
        frame cap, leaves as a typed error under that id instead."""
        try:
            payload, blobs = handler()
            frame = encode_frame(KIND_RESPONSE, request_id, payload,
                                 self.max_frame_bytes, blobs)
        except Exception as exc:  # typed errors cross as wire codes
            frame = encode_frame(KIND_ERROR, request_id, to_wire(exc),
                                 self.max_frame_bytes)
        self.sock.sendall(frame)

    def call(self, op, payload, blobs=(), timeout=None, on_frame=None):
        """Send one request; the response :class:`Frame` answering it.

        An error answer raises its typed exception.  Raises
        ``socket.timeout`` once ``timeout`` seconds have passed,
        ``EOFError`` when the peer closes.
        """
        request_id = next(self._next_ids)
        body = dict(payload)
        body["op"] = op
        deadline = None if timeout is None else time.monotonic() + timeout
        # A call's deadline must not outlive it: the worker answers its
        # running request on this socket after a block fetch returns.
        previous = self.sock.gettimeout()
        self.sock.settimeout(timeout)
        try:
            self.send(KIND_REQUEST, request_id, body, blobs)
            answer = None
            while answer is None:
                for event in self._read(deadline):
                    if answer is None and event.request_id == request_id \
                            and (isinstance(event, FrameError)
                                 or event.kind in _ANSWERS):
                        answer = event
                    elif on_frame is not None:
                        on_frame(event)
                    else:
                        self._keep(event)
        finally:
            self.sock.settimeout(previous)
        if isinstance(answer, FrameError):
            raise answer.exception
        if answer.kind == KIND_ERROR:
            raise from_wire(answer.payload)
        return answer

    def next_frame(self, deadline=None):
        """The oldest inbox frame, reading the socket until there is
        one; ``deadline`` is a ``time.monotonic()`` instant or None."""
        while not self._inbox:
            for event in self._read(deadline):
                self._keep(event)
        return self._inbox.popleft()

    def _keep(self, event):
        if isinstance(event, FrameError) or event.kind not in _ANSWERS:
            self._inbox.append(event)

    def _read(self, deadline):
        """The frames and frame errors completed by the next chunk."""
        if deadline is None:
            self.sock.settimeout(None)
        else:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("timed out")
            self.sock.settimeout(remaining)
        data = self.sock.recv(64 * 1024)
        if not data:
            raise EOFError("peer closed the connection")
        return self._reassembly.feed(data)


class RemoteJob:
    """Client-side handle to one server job (mirrors ``JobHandle``)."""

    __slots__ = ("_client", "job_id", "cache_hit", "coalesced",
                 "net_coalesced")

    def __init__(self, client, payload):
        self._client = client
        self.job_id = payload["job_id"]
        self.cache_hit = payload.get("cache_hit", False)
        self.coalesced = payload.get("coalesced", False)
        self.net_coalesced = payload.get("net_coalesced", False)

    def done(self):
        return self._client.poll(self.job_id)["done"]

    def result(self, timeout=None):
        return self._client.result(self.job_id, timeout=timeout)

    def __repr__(self):
        return "RemoteJob(%d)" % self.job_id


class ServiceClient:
    """Blocking framed-protocol client; one connection, retry on reconnect."""

    def __init__(self, host, port, tenant=None, timeout=30.0,
                 reconnect=True, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self.reconnect = reconnect
        self.max_frame_bytes = max_frame_bytes
        self.goaway_received = False
        self._events = deque()
        self._connection = None
        self._connect()

    # -- connection ----------------------------------------------------

    def _connect(self):
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._connection = FrameConnection(sock, self.max_frame_bytes)
        if self.tenant is not None:
            self._roundtrip("hello", {"tenant": self.tenant},
                            self.timeout)

    def close(self):
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- core request/response -----------------------------------------

    def _call(self, op, payload, timeout=None):
        if self._connection is None:
            raise ServiceError("client is closed")
        try:
            return self._roundtrip(op, payload, timeout)
        except (ConnectionError, OSError, EOFError) as exc:
            if not self.reconnect:
                raise ServiceError(
                    "connection to %s:%d lost: %s"
                    % (self.host, self.port, exc)
                ) from exc
            self.close()
            try:
                self._connect()
                return self._roundtrip(op, payload, timeout)
            except (ConnectionError, OSError, EOFError) as retry_exc:
                self.close()
                if self.goaway_received:
                    raise ServiceClosedError(
                        "server sent GOAWAY and is no longer accepting "
                        "connections"
                    ) from retry_exc
                raise ServiceError(
                    "connection to %s:%d lost and reconnect failed: %s"
                    % (self.host, self.port, retry_exc)
                ) from retry_exc

    def _roundtrip(self, op, payload, timeout):
        wait = self.timeout if timeout is None else timeout
        try:
            return self._connection.call(
                op, payload, timeout=wait, on_frame=self._on_frame
            ).payload
        except socket.timeout:
            raise ServiceError(
                "timed out waiting for a server response"
            ) from None

    def _on_frame(self, frame):
        """Record an EVENT or GOAWAY; anything else is stale here."""
        if isinstance(frame, FrameError):
            return
        if frame.kind == KIND_EVENT:
            self._events.append({"type": "event", **frame.payload})
        elif frame.kind == KIND_GOAWAY:
            self.goaway_received = True
            self._events.append({"type": "goaway", **frame.payload})

    # -- service façade ------------------------------------------------

    def hello(self, tenant):
        """Declare (or switch) this connection's tenant."""
        self.tenant = tenant
        return self._call("hello", {"tenant": tenant})

    def submit_mine(self, dataset, priority=None, deadline_seconds=None,
                    **params):
        """Enqueue a mining request; returns a :class:`RemoteJob`."""
        payload = {"dataset": dataset, "params": params}
        if priority is not None:
            payload["priority"] = priority
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return RemoteJob(self, self._call("submit_mine", payload))

    def submit_query(self, sql, priority=None, deadline_seconds=None):
        """Enqueue a SQL request; returns a :class:`RemoteJob`."""
        payload = {"sql": sql}
        if priority is not None:
            payload["priority"] = priority
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return RemoteJob(self, self._call("submit_query", payload))

    def poll(self, job_id):
        """Non-blocking completion check: ``{"done": ..., "ok": ...}``."""
        return self._call("poll", {"job_id": job_id})

    def result(self, job_id, timeout=None):
        """Block (server-side) for a job's result; raises its error."""
        wait = self.timeout if timeout is None else timeout
        payload = {"job_id": job_id}
        if wait is not None:
            payload["timeout"] = wait
        response = self._call(
            "result", payload,
            timeout=None if wait is None else wait + _TIMEOUT_SLACK,
        )
        return result_from_wire(response["result"])

    def mine(self, dataset, timeout=None, **params):
        """Submit a mining request and wait for its result."""
        job = self.submit_mine(dataset, **params)
        return job.result(timeout=timeout)

    def query(self, sql, timeout=None, **kwargs):
        """Submit a SQL request and wait for its :class:`ResultSet`."""
        job = self.submit_query(sql, **kwargs)
        return job.result(timeout=timeout)

    def stats(self):
        """The service's ``stats()`` dict (including the net section)."""
        return self._call("stats", {})

    def subscribe(self, subscribe=True):
        """Opt in/out of job-completion EVENT frames."""
        return self._call("stream", {"subscribe": subscribe})

    def next_event(self, timeout=None):
        """The next queued EVENT/GOAWAY, reading the socket as needed.

        Returns a dict with a ``"type"`` key (``"event"`` /
        ``"goaway"``); raises :class:`ServiceError` when ``timeout``
        passes without one or the client is closed.
        """
        wait = self.timeout if timeout is None else timeout
        deadline = None if wait is None else time.monotonic() + wait
        while not self._events:
            if self._connection is None:
                raise ServiceError("client is closed")
            try:
                frame = self._connection.next_frame(deadline)
            except socket.timeout:
                raise ServiceError(
                    "timed out waiting for a server event"
                ) from None
            except (EOFError, OSError):
                raise ServiceError(
                    "connection closed while waiting for an event"
                ) from None
            if isinstance(frame, FrameError):
                raise frame.exception
            self._on_frame(frame)
        return self._events.popleft()
