"""Framing edge cases: the decoder must survive hostile byte streams."""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FrameTooLargeError, ProtocolError
from repro.net.protocol import (
    FLAG_BLOBS,
    HEADER_BYTES,
    KIND_ERROR,
    KIND_EVENT,
    KIND_GOAWAY,
    KIND_REQUEST,
    KIND_RESPONSE,
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    FrameError,
    encode_frame,
)


def decode_all(data, **kwargs):
    return FrameDecoder(**kwargs).feed(data)


class TestRoundTrip:
    def test_encode_decode(self):
        payload = {"op": "stats", "nested": {"a": [1, 2.5, None, "x"]}}
        events = decode_all(encode_frame(KIND_REQUEST, 7, payload))
        assert len(events) == 1
        frame = events[0]
        assert isinstance(frame, Frame)
        assert frame.kind == KIND_REQUEST
        assert frame.request_id == 7
        assert frame.payload == payload

    @pytest.mark.parametrize("kind", [
        KIND_REQUEST, KIND_RESPONSE, KIND_ERROR, KIND_EVENT, KIND_GOAWAY,
    ])
    def test_all_kinds(self, kind):
        (frame,) = decode_all(encode_frame(kind, 1, {}))
        assert frame.kind == kind

    def test_float_payloads_round_trip_bit_exactly(self):
        values = [0.1, 1e-300, 1e300, 2.0 ** -1074, 3.141592653589793]
        (frame,) = decode_all(encode_frame(KIND_RESPONSE, 1,
                                           {"v": values}))
        assert frame.payload["v"] == values
        assert [v.hex() for v in frame.payload["v"]] == [
            v.hex() for v in values
        ]

    def test_numpy_scalars_serialize(self):
        import numpy as np

        (frame,) = decode_all(encode_frame(KIND_RESPONSE, 1, {
            "i": np.int64(7), "f": np.float64(2.5), "b": np.bool_(True),
        }))
        assert frame.payload == {"i": 7, "f": 2.5, "b": True}

    def test_unserializable_payload_raises_typed(self):
        with pytest.raises(ProtocolError):
            encode_frame(KIND_REQUEST, 1, {"bad": object()})


class TestPartialFrames:
    """A frame may arrive split across arbitrary TCP segment bounds."""

    def test_byte_at_a_time(self):
        data = encode_frame(KIND_REQUEST, 42, {"op": "poll", "job_id": 3})
        decoder = FrameDecoder()
        events = []
        for i in range(len(data)):
            events.extend(decoder.feed(data[i:i + 1]))
            if i < len(data) - 1:
                assert not events, "frame completed early at byte %d" % i
        assert len(events) == 1
        assert events[0].payload["job_id"] == 3

    def test_split_inside_header(self):
        data = encode_frame(KIND_REQUEST, 1, {"x": 1})
        decoder = FrameDecoder()
        assert decoder.feed(data[:HEADER_BYTES - 3]) == []
        (frame,) = decoder.feed(data[HEADER_BYTES - 3:])
        assert frame.payload == {"x": 1}

    def test_many_frames_in_one_chunk(self):
        chunk = b"".join(
            encode_frame(KIND_REQUEST, i, {"i": i}) for i in range(5)
        )
        events = decode_all(chunk)
        assert [f.request_id for f in events] == list(range(5))

    def test_frame_boundary_straddles_chunks(self):
        a = encode_frame(KIND_REQUEST, 1, {"i": 1})
        b = encode_frame(KIND_REQUEST, 2, {"i": 2})
        decoder = FrameDecoder()
        events = decoder.feed(a + b[:5])
        assert len(events) == 1
        events.extend(decoder.feed(b[5:]))
        assert [f.request_id for f in events] == [1, 2]


class TestOversizedFrames:
    def test_encode_refuses_oversized(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(KIND_REQUEST, 1, {"x": "y" * 100},
                         max_frame_bytes=32)

    def test_decoder_skips_and_survives(self):
        """Oversized frame: typed error, then later frames still parse."""
        big = encode_frame(KIND_REQUEST, 9, {"x": "y" * 1000})
        after = encode_frame(KIND_REQUEST, 10, {"ok": True})
        decoder = FrameDecoder(max_frame_bytes=64)
        events = decoder.feed(big + after)
        assert len(events) == 2
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 9
        assert isinstance(events[0].exception, FrameTooLargeError)
        assert isinstance(events[1], Frame)
        assert events[1].payload == {"ok": True}

    def test_oversized_payload_drained_incrementally(self):
        big = encode_frame(KIND_REQUEST, 9, {"x": "y" * 1000})
        decoder = FrameDecoder(max_frame_bytes=64)
        events = []
        for i in range(0, len(big), 17):
            events.extend(decoder.feed(big[i:i + 17]))
        assert len(events) == 1
        assert isinstance(events[0], FrameError)
        # The decoder never buffered the oversized payload.
        assert len(decoder._buffer) == 0


class TestMalformedFrames:
    def test_unknown_version_is_fatal(self):
        data = bytearray(encode_frame(KIND_REQUEST, 1, {}))
        data[0] = PROTOCOL_VERSION + 1
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="version"):
            decoder.feed(bytes(data))
        # Fatal means fatal: the stream stays poisoned.
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(KIND_REQUEST, 2, {}))

    def test_unknown_kind_is_recoverable(self):
        body = b"{}"
        header = struct.pack(">BBHII", PROTOCOL_VERSION, 99, 0, 5,
                             len(body))
        events = decode_all(header + body
                            + encode_frame(KIND_REQUEST, 6, {}))
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 5
        assert isinstance(events[1], Frame)

    def test_nonzero_flags_rejected(self):
        body = b"{}"
        header = struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                             0xBEEF, 5, len(body))
        (event,) = decode_all(header + body)
        assert isinstance(event, FrameError)

    @pytest.mark.parametrize("flags", [0x0002, 0x8000, FLAG_BLOBS | 0x0004])
    def test_reserved_bits_rejected_where_blobs_are_taken(self, flags):
        # Only bit 0 means something, and only to a blob endpoint.
        blob_frame = bytearray(encode_frame(KIND_REQUEST, 5, {},
                                            blobs=[b"x"]))
        struct.pack_into(">H", blob_frame, 2, flags)
        events = decode_all(bytes(blob_frame)
                            + encode_frame(KIND_REQUEST, 6, {}), blobs=True)
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 5
        assert "reserved flags" in str(events[0].exception)
        assert events[1].request_id == 6

    def test_front_door_decoder_refuses_the_blob_flag(self):
        # The default decoder is the front door's: no op takes blobs,
        # so bit 0 is as reserved there as the other fifteen.
        events = decode_all(
            encode_frame(KIND_REQUEST, 5, {}, blobs=[b"x"])
            + encode_frame(KIND_REQUEST, 6, {})
        )
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 5
        assert str(events[0].exception) == (
            "reserved flags must be zero, got 0x1"
        )
        assert events[1].request_id == 6

    def test_malformed_json_is_recoverable(self):
        body = b"{not json"
        header = struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                             0, 3, len(body))
        events = decode_all(header + body
                            + encode_frame(KIND_REQUEST, 4, {"ok": 1}))
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 3
        assert events[1].payload == {"ok": 1}


def _blob_frame(request_id, body):
    """A hand-built ``FLAG_BLOBS`` frame around an arbitrary body."""
    return struct.pack(">BBHII", PROTOCOL_VERSION, KIND_REQUEST,
                       FLAG_BLOBS, request_id, len(body)) + body


def _blob_table(json_length, sizes):
    return (struct.pack(">II", json_length, len(sizes))
            + struct.pack(">%dI" % len(sizes), *sizes))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 53, 2 ** 53)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _blob_frames(draw):
    """(request id, payload, blobs): 0-6 blobs of 0-70 000 bytes."""
    blobs = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.sampled_from([0, 1, 7, 4096, 65536, 70000])
                    | st.integers(0, 70000))
        seed = draw(st.binary(min_size=1, max_size=16))
        blobs.append((seed * (size // len(seed) + 1))[:size])
    return (draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.dictionaries(st.text(max_size=8), _json_values,
                                 max_size=4)),
            blobs)


class TestBlobFrames:
    """``FLAG_BLOBS``: bytes ride as bytes beside the JSON payload."""

    def test_layout_is_the_documented_one(self):
        frame = encode_frame(KIND_RESPONSE, 9, {"a": 1},
                             blobs=[b"abc", b"", b"\x00\xff"])
        body = b'{"a":1}'
        assert frame == (
            struct.pack(">BBHII", PROTOCOL_VERSION, KIND_RESPONSE,
                        FLAG_BLOBS, 9, 8 + 12 + len(body) + 5)
            + struct.pack(">II", len(body), 3)
            + struct.pack(">III", 3, 0, 2)
            + body + b"abc" + b"\x00\xff"
        )
        assert FLAG_BLOBS == 1

    def test_blobs_decode_as_views_over_one_body(self):
        blobs = [b"kernel", bytes(range(256)) * 300, b""]
        (frame,) = decode_all(
            encode_frame(KIND_REQUEST, 3, {"kernel": 0}, blobs=blobs),
            blobs=True,
        )
        assert frame.payload == {"kernel": 0}
        assert all(isinstance(b, memoryview) for b in frame.blobs)
        assert [bytes(b) for b in frame.blobs] == blobs
        assert len({id(b.obj) for b in frame.blobs}) == 1

    def test_bytes_like_blobs_encode(self):
        source = bytearray(b"0123456789")
        (frame,) = decode_all(
            encode_frame(KIND_REQUEST, 1, {},
                         blobs=[memoryview(source)[2:6], source]),
            blobs=True,
        )
        assert [bytes(b) for b in frame.blobs] == [b"2345", b"0123456789"]

    @pytest.mark.parametrize("kind,payload", [
        (KIND_REQUEST, {"op": "stats", "nested": {"a": [1, 2.5, None]}}),
        (KIND_ERROR, {"code": 21, "error": "X", "message": "caf\u00e9"}),
        (KIND_RESPONSE, {}),
    ])
    def test_a_frame_without_blobs_is_the_plain_frame(self, kind, payload):
        # Byte for byte what every earlier build emitted: the header
        # with zero flags, then compact UTF-8 JSON.
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        plain = struct.pack(">BBHII", PROTOCOL_VERSION, kind, 0, 77,
                            len(body)) + body
        assert encode_frame(kind, 77, payload) == plain
        assert encode_frame(kind, 77, payload, blobs=()) == plain
        assert encode_frame(kind, 77, payload, blobs=[]) == plain
        (frame,) = decode_all(plain, blobs=True)
        assert frame.payload == payload
        assert len(frame.blobs) == 0

    @given(st.lists(_blob_frames(), min_size=1, max_size=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_decodes_to_the_same_frames(self, frames, data):
        stream = b"".join(
            encode_frame(KIND_REQUEST, request_id, payload, blobs=blobs)
            + encode_frame(KIND_EVENT, 5, {"plain": index})
            for index, (request_id, payload, blobs) in enumerate(frames)
        )
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(stream)), max_size=12, unique=True
        )))
        decoder = FrameDecoder(max_frame_bytes=1 << 20, blobs=True)
        events = []
        for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
            events.extend(decoder.feed(stream[lo:hi]))
        assert len(events) == 2 * len(frames)
        for index, (request_id, payload, blobs) in enumerate(frames):
            frame, plain = events[2 * index], events[2 * index + 1]
            assert isinstance(frame, Frame)
            assert frame.request_id == request_id
            assert frame.payload == payload
            assert [bytes(b) for b in frame.blobs] == blobs
            assert plain.payload == {"plain": index}
            assert len(plain.blobs) == 0
        assert len(decoder._buffer) == 0

    @pytest.mark.parametrize("body", [
        _blob_table(2, [4]) + b"{}abc",          # table overruns the body
        _blob_table(2, [2]) + b"{}abc",          # ...underruns it
        _blob_table(3, [3]) + b"{}abc",          # lies about json_length
        _blob_table(2, [3, 0, 1]) + b"{}abc",    # sizes past the end
        _blob_table(2, []) + b"{}abc",           # count 0, bytes left over
        _blob_table(2, [2 ** 32 - 1]) + b"{}abc",   # no frame holds that
        _blob_table(0, []),                      # adds up, but no JSON
        b"", b"\x00\x00\x00",                    # no room for the prefix
        struct.pack(">II", 2, 2 ** 32 - 1) + b"{}",   # count lies, hugely
        struct.pack(">II", 2, 3) + b"\x00" * 11,      # table cut short
    ])
    def test_a_table_that_does_not_add_up_is_recoverable(self, body):
        events = decode_all(
            _blob_frame(11, body)
            + encode_frame(KIND_REQUEST, 12, {"ok": 1}, blobs=[b"next"]),
            blobs=True,
        )
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 11
        assert isinstance(events[0].exception, ProtocolError)
        assert events[1].payload == {"ok": 1}
        assert bytes(events[1].blobs[0]) == b"next"

    def test_the_cap_counts_json_table_and_blobs(self):
        payload, blobs = {"k": 0}, [b"x" * 100, b"y" * 50]
        exact = len(encode_frame(KIND_REQUEST, 1, payload, None,
                                 blobs)) - HEADER_BYTES
        assert exact == len(b'{"k":0}') + 8 + 2 * 4 + 150
        encode_frame(KIND_REQUEST, 1, payload, exact, blobs)
        with pytest.raises(FrameTooLargeError):
            encode_frame(KIND_REQUEST, 1, payload, exact - 1, blobs)
        # The JSON alone fits a 64-byte cap; the blobs put it over.
        with pytest.raises(FrameTooLargeError):
            encode_frame(KIND_REQUEST, 1, payload, 64, blobs)

    def test_decoder_skips_an_over_cap_blob_frame(self):
        big = encode_frame(KIND_RESPONSE, 9, {}, blobs=[b"z" * 5000])
        after = encode_frame(KIND_RESPONSE, 10, {"ok": True},
                             blobs=[b"fine"])
        decoder = FrameDecoder(max_frame_bytes=1024, blobs=True)
        events = []
        for i in range(0, len(big + after), 333):
            events.extend(decoder.feed((big + after)[i:i + 333]))
        assert isinstance(events[0], FrameError)
        assert events[0].request_id == 9
        assert isinstance(events[0].exception, FrameTooLargeError)
        assert bytes(events[1].blobs[0]) == b"fine"
