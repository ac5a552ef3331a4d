"""Client for the framed protocol.

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
    ProtocolError,
    ServiceClosedError,
    ServiceError,
    from_wire,
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
    """Blocking framed-protocol client; one socket, retry on reconnect."""

    def __init__(self, host, port, tenant=None, timeout=30.0,
                 reconnect=True, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self.reconnect = reconnect
        self.max_frame_bytes = max_frame_bytes
        self.goaway_received = False
        self._request_ids = itertools.count(1)
        self._events = deque()
        self._frames = deque()  # decoded but not yet consumed
        self._sock = None
        self._decoder = None
        self._connect()

    # -- connection ----------------------------------------------------

    def _connect(self):
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder(self.max_frame_bytes)
        self._frames.clear()
        if self.tenant is not None:
            self._roundtrip("hello", {"tenant": self.tenant},
                            self.timeout)

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- core request/response -----------------------------------------

    def _call(self, op, payload, timeout=None):
        if self._sock is None:
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
                self._sock = None
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
        request_id = next(self._request_ids)
        body = dict(payload)
        body["op"] = op
        self._sock.sendall(
            encode_frame(KIND_REQUEST, request_id, body,
                         self.max_frame_bytes)
        )
        wait = self.timeout if timeout is None else timeout
        deadline = None if wait is None else time.monotonic() + wait
        while True:
            frame = self._read_frame(deadline)
            if frame.kind == KIND_EVENT:
                self._events.append({"type": "event", **frame.payload})
                continue
            if frame.kind == KIND_GOAWAY:
                self.goaway_received = True
                self._events.append({"type": "goaway", **frame.payload})
                continue
            if frame.request_id != request_id:
                continue  # stale response from a pre-reconnect request
            if frame.kind == KIND_ERROR:
                raise from_wire(frame.payload)
            if frame.kind == KIND_RESPONSE:
                return frame.payload
            raise ProtocolError(
                "unexpected frame kind %d from server" % frame.kind
            )

    def _read_frame(self, deadline):
        while True:
            if self._frames:
                event = self._frames.popleft()
                if isinstance(event, FrameError):
                    raise event.exception
                return event
            remaining = (
                None if deadline is None
                else max(0.001, deadline - time.monotonic())
            )
            self._sock.settimeout(remaining)
            try:
                data = self._sock.recv(64 * 1024)
            except socket.timeout:
                raise ServiceError(
                    "timed out waiting for a server response"
                ) from None
            if not data:
                raise EOFError("server closed the connection")
            self._frames.extend(self._decoder.feed(data))

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
        passes without one.
        """
        if self._events:
            return self._events.popleft()
        wait = self.timeout if timeout is None else timeout
        deadline = None if wait is None else time.monotonic() + wait
        while not self._events:
            try:
                frame = self._read_frame(deadline)
            except EOFError:
                raise ServiceError(
                    "connection closed while waiting for an event"
                ) from None
            if frame.kind == KIND_EVENT:
                self._events.append({"type": "event", **frame.payload})
            elif frame.kind == KIND_GOAWAY:
                self.goaway_received = True
                self._events.append({"type": "goaway", **frame.payload})
            # RESPONSE/ERROR frames with no waiter are stale; drop them.
        return self._events.popleft()
