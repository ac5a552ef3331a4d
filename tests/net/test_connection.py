"""The blocking frame connection every blocking endpoint speaks through.

One end is a :class:`~repro.net.client.FrameConnection`; the other is
a raw socket of a ``socket.socketpair()`` that writes frames with
``encode_frame`` and reads them with a ``FrameDecoder``, so each test
scripts exactly which frames arrive, and in which order, around the
answer a call waits for.
"""

import pickle
import socket
import threading
import time

import numpy as np
import pytest

import repro.net.client as client_module
from repro.common.errors import (
    EngineError,
    FrameTooLargeError,
    ProtocolError,
    from_wire,
    to_wire,
)
from repro.data.colfile import write_colfile
from repro.data.table import Table
from repro.engine.executors import batch_reply, batch_request
from repro.net.client import FrameConnection
from repro.net.protocol import (
    KIND_ERROR,
    KIND_EVENT,
    KIND_GOAWAY,
    KIND_REQUEST,
    KIND_RESPONSE,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.net.worker import (
    WORKER_CALLBACK_ID_BASE,
    ShardWorker,
    ShardWorkerClient,
)

CAP = 4096


@pytest.fixture
def pair():
    ours, theirs = socket.socketpair()
    connection = FrameConnection(ours, CAP)
    yield connection, theirs
    connection.close()
    theirs.close()


def _write(sock, *frames):
    """Queue frames on the peer's side before the call that reads them."""
    for kind, request_id, payload in frames:
        sock.sendall(encode_frame(kind, request_id, payload, CAP))


def _read(sock, count):
    """The next ``count`` frames the peer receives."""
    decoder, frames = FrameDecoder(CAP), []
    while len(frames) < count:
        frames.extend(decoder.feed(sock.recv(1 << 16)))
    return frames


def _kinds(frames):
    return [(frame.kind, frame.request_id) for frame in frames]


class TestReplyMatching:
    def test_a_stale_response_is_dropped(self, pair):
        connection, peer = pair
        _write(peer, (KIND_RESPONSE, 99, {"stale": True}),
               (KIND_ERROR, 98, to_wire(ProtocolError("old"))),
               (KIND_RESPONSE, 1, {"n": 1}))
        assert connection.call("ping", {}, timeout=5.0).payload == {"n": 1}
        with pytest.raises(socket.timeout):
            connection.next_frame(time.monotonic() + 0.05)

    def test_requests_events_and_goaway_wait_in_arrival_order(self, pair):
        connection, peer = pair
        _write(peer, (KIND_EVENT, 0, {"e": 1}),
               (KIND_REQUEST, 7, {"op": "block_fetch"}),
               (KIND_RESPONSE, 50, {}),
               (KIND_GOAWAY, 0, {"reason": "bye"}),
               (KIND_RESPONSE, 1, {"n": 1}),
               (KIND_EVENT, 0, {"e": 2}))
        assert connection.call("ping", {}, timeout=5.0).payload == {"n": 1}
        deadline = time.monotonic() + 5.0
        got = [connection.next_frame(deadline) for _ in range(4)]
        assert _kinds(got) == [(KIND_EVENT, 0), (KIND_REQUEST, 7),
                               (KIND_GOAWAY, 0), (KIND_EVENT, 0)]
        assert [frame.payload for frame in got][-1] == {"e": 2}

    def test_on_frame_sees_every_frame_that_is_not_the_answer(self, pair):
        connection, peer = pair
        _write(peer, (KIND_EVENT, 0, {}), (KIND_RESPONSE, 99, {}),
               (KIND_REQUEST, 7, {"op": "block_fetch"}))
        peer.sendall(encode_frame(KIND_RESPONSE, 8, {"big": "x" * CAP}))
        _write(peer, (KIND_RESPONSE, 1, {"n": 1}))
        seen = []
        answer = connection.call("ping", {}, timeout=5.0,
                                 on_frame=seen.append)
        assert answer.payload == {"n": 1}
        assert [type(frame) for frame in seen] == [type(answer)] * 3 + [
            FrameError]
        assert _kinds(seen[:3]) == [(KIND_EVENT, 0), (KIND_RESPONSE, 99),
                                    (KIND_REQUEST, 7)]
        assert seen[3].request_id == 8
        # Nothing was left behind for next_frame.
        with pytest.raises(socket.timeout):
            connection.next_frame(time.monotonic() + 0.05)

    def test_a_frame_error_under_the_call_id_raises(self, pair):
        connection, peer = pair
        peer.sendall(encode_frame(KIND_RESPONSE, 1, {"big": "x" * CAP}))
        with pytest.raises(FrameTooLargeError):
            connection.call("ping", {}, timeout=5.0)

    def test_an_error_answer_raises_its_typed_exception(self, pair):
        connection, peer = pair
        _write(peer, (KIND_ERROR, 1, to_wire(EngineError("no worker"))))
        with pytest.raises(EngineError, match="no worker"):
            connection.call("ping", {}, timeout=5.0)

    def test_ids_start_at_first_id(self):
        ours, peer = socket.socketpair()
        first = WORKER_CALLBACK_ID_BASE + 1
        connection = FrameConnection(ours, CAP, first_id=first)
        try:
            _write(peer, (KIND_RESPONSE, first, {}))
            connection.call("a", {"x": 1}, timeout=5.0)
            _write(peer, (KIND_RESPONSE, first + 1, {}))
            connection.call("b", {}, timeout=5.0)
            sent = _read(peer, 2)
            assert _kinds(sent) == [(KIND_REQUEST, first),
                                    (KIND_REQUEST, first + 1)]
            assert sent[0].payload == {"x": 1, "op": "a"}
        finally:
            connection.close()
            peer.close()


class TestAnswers:
    def test_an_over_cap_answer_is_a_typed_error_on_a_live_connection(
            self, pair):
        connection, peer = pair
        connection.answer(5, lambda: ({"big": "x" * CAP}, ()))
        (refused,) = _read(peer, 1)
        assert (refused.kind, refused.request_id) == (KIND_ERROR, 5)
        assert isinstance(from_wire(refused.payload), FrameTooLargeError)
        # The connection is still in step both ways.
        connection.answer(6, lambda: ({"ok": True}, ()))
        (answered,) = _read(peer, 1)
        assert (answered.kind, answered.request_id,
                answered.payload) == (KIND_RESPONSE, 6, {"ok": True})
        _write(peer, (KIND_RESPONSE, 1, {"n": 1}))
        assert connection.call("ping", {}, timeout=5.0).payload == {"n": 1}

    def test_a_raising_handler_answers_with_its_typed_error(self, pair):
        connection, peer = pair

        def handler():
            raise ProtocolError("unknown op")

        connection.answer(9, handler)
        (refused,) = _read(peer, 1)
        assert (refused.kind, refused.request_id) == (KIND_ERROR, 9)
        with pytest.raises(ProtocolError, match="unknown op"):
            raise from_wire(refused.payload)


class TestDeadline:
    def test_the_deadline_covers_the_whole_call(self, pair):
        # An answer that trickles in a byte at a time keeps every recv
        # short; the call must still end at its own deadline.
        connection, peer = pair
        frame = encode_frame(KIND_RESPONSE, 1, {"n": "x" * 64}, CAP)
        stop = threading.Event()

        def trickle():
            for byte in frame:
                if stop.wait(0.05):
                    return
                peer.sendall(bytes([byte]))

        thread = threading.Thread(target=trickle)
        thread.start()
        started = time.monotonic()
        try:
            with pytest.raises(socket.timeout):
                connection.call("ping", {}, timeout=0.3)
            assert time.monotonic() - started < 1.0
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_a_call_leaves_the_socket_timeout_as_it_found_it(self, pair):
        connection, peer = pair
        _write(peer, (KIND_RESPONSE, 1, {}))
        connection.call("ping", {}, timeout=5.0)
        assert connection.sock.gettimeout() is None

    def test_a_closed_peer_is_eof(self, pair):
        connection, peer = pair
        peer.close()
        with pytest.raises((EOFError, OSError)):
            connection.call("ping", {}, timeout=5.0)


def _sum_kernel(tc, part):
    tc.add_records(part.num_rows)
    return float(np.sum(part.measure))


class TestTraceSeam:
    def test_every_blocking_endpoint_encodes_through_the_client_module(
            self, serve_stack, connect, flights, tmp_path, monkeypatch):
        # benchmarks/e2e/trace.py times frame encodes by wrapping
        # repro.net.client.encode_frame; every frame a blocking
        # endpoint writes must pass through that name.
        encoded = []

        def counting(kind, request_id, payload, *args, **kwargs):
            encoded.append((kind, request_id, payload.get("op")))
            return encode_frame(kind, request_id, payload, *args, **kwargs)

        monkeypatch.setattr(client_module, "encode_frame", counting)
        _, server = serve_stack()
        connect(server).stats()
        assert (KIND_REQUEST, 1, "stats") in encoded

        write_colfile(flights, tmp_path / "flights.col", block_rows=4)
        table = Table.open_colfile(tmp_path / "flights.col")
        (block,) = table.partition_blocks(1, shared=True)
        request = batch_request(
            pickle.dumps(_sum_kernel, pickle.HIGHEST_PROTOCOL), [(0, block)]
        )
        with ShardWorker(local_files=False) as worker:
            with ShardWorkerClient(worker.address) as driver:
                records, failure = batch_reply(driver.run_stage(request))
        assert failure is None and records[0][0] == float(
            np.sum(flights.measure))
        ops = {(kind, op) for kind, _, op in encoded}
        assert (KIND_REQUEST, "run_stage") in ops
        reverse = [(kind, op) for kind, request_id, op in encoded
                   if request_id > WORKER_CALLBACK_ID_BASE]
        assert (KIND_REQUEST, "block_fetch") in reverse   # the worker asks
        assert (KIND_RESPONSE, None) in reverse           # the driver answers
