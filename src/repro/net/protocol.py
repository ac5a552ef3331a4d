"""The wire protocol: length-prefixed frames, a JSON payload each,
raw byte segments beside it where an endpoint takes them.

Every frame is a fixed 12-byte header followed by ``length`` body
bytes::

    >B  version    protocol version (PROTOCOL_VERSION)
    >B  kind       frame kind (KIND_*)
    >H  flags      bit 0 FLAG_BLOBS; bits 1-15 reserved, must be zero
    >I  request_id caller-chosen id echoed on the response
    >I  length     body byte length

Frames are self-delimiting, so any number may share a TCP segment and
one may span many segments; :class:`FrameDecoder` reassembles them from
arbitrary chunks.  Payloads are compact JSON (msgpack is not in the
container's dependency set; JSON round-trips Python floats bit-exactly
via repr, which the result codec in :mod:`repro.net.wire` relies on).

A plain frame's body is the JSON payload.  With ``FLAG_BLOBS`` set the
body carries bytes *as bytes* beside it::

    >I  json_length
    >I  count
    >I  size        x count
    json_length bytes of JSON payload
    count raw segments, back to back, in table order

``length`` and the frame cap cover the whole body, and the table must
add up to ``length`` exactly.  The payload names a segment by its
0-based index (:attr:`Frame.blobs`).  Only the shard-worker channel
accepts the flag (``FrameDecoder(..., blobs=True)``); the front door
defines no op that takes bytes and keeps refusing any nonzero flags.

Error containment is per-frame where the header allows it: an
oversized-but-well-formed frame is *skipped* (its payload drained and
discarded) and surfaced as a :class:`FrameError` carrying the request
id, so the server can answer with a typed error and keep the
connection.  An unknown protocol version is fatal — later versions may
change the header layout, so nothing after the version byte can be
trusted — and raises :class:`~repro.common.errors.ProtocolError`.

The frame layer is direction-agnostic: on the shard-worker connection
(:mod:`repro.net.worker`) the *worker* also initiates ``KIND_REQUEST``
frames back at the driver (``block_fetch``, for colfile block
shipping), using request ids at or above ``WORKER_CALLBACK_ID_BASE``
so the two id spaces on the shared socket never collide.  The
normative wire spec — header layout, op tables for both directions,
error-code registry and bit-identity encoding rules — lives in
``docs/protocol.md``.
"""

import json
import struct

import numpy as np

from repro.common.errors import FrameTooLargeError, ProtocolError

PROTOCOL_VERSION = 1

#: Frame kinds.
KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3
KIND_EVENT = 4
KIND_GOAWAY = 5

_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR, KIND_EVENT, KIND_GOAWAY)

_HEADER = struct.Struct(">BBHII")
HEADER_BYTES = _HEADER.size

#: Header flag bit 0: the body is a blob table, the JSON payload, then
#: raw byte segments (module docstring).  The other 15 bits are reserved.
FLAG_BLOBS = 0x0001

_BLOB_PREFIX = struct.Struct(">II")  # json_length, count

#: Default cap on one frame's body.  Large enough for any result the
#: test/bench datasets produce, small enough that a hostile length
#: field cannot balloon the reassembly buffer.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024


def _json_default(value):
    # Numpy scalars leak into payloads (counts, measures); their Python
    # equivalents round-trip bit-exactly for int64/float64.
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(
        "payload value %r of type %s is not wire-serializable"
        % (value, type(value).__name__)
    )


def dumps(payload):
    """Encode one payload object as compact UTF-8 JSON bytes."""
    try:
        return json.dumps(
            payload, separators=(",", ":"), default=_json_default
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from None


def loads(data):
    """Decode payload bytes; raises ProtocolError on malformed JSON."""
    try:
        return json.loads(str(data, "utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("malformed frame payload: %s" % exc) from None


class Frame:
    """One decoded frame.

    ``blobs`` are the frame's raw segments as ``memoryview``s over the
    decoder's one copy of the body (empty for a plain frame); a holder
    that outlives the frame copies what it keeps.
    """

    __slots__ = ("kind", "request_id", "payload", "blobs")

    def __init__(self, kind, request_id, payload, blobs=()):
        self.kind = kind
        self.request_id = request_id
        self.payload = payload
        self.blobs = blobs

    def __repr__(self):
        return "Frame(kind=%d, request_id=%d)" % (self.kind, self.request_id)


class FrameError:
    """A recoverable per-frame decode failure (connection survives).

    Yielded by :meth:`FrameDecoder.feed` in place of a frame when the
    header was valid (so the stream stays delimited and the request id
    is known) but the frame itself must be rejected — oversized
    body, unknown kind, reserved flags, a blob table that does not add
    up, malformed JSON.
    """

    __slots__ = ("request_id", "exception")

    def __init__(self, request_id, exception):
        self.request_id = request_id
        self.exception = exception

    def __repr__(self):
        return "FrameError(request_id=%d, %r)" % (
            self.request_id, self.exception,
        )


def encode_frame(kind, request_id, payload,
                 max_frame_bytes=DEFAULT_MAX_FRAME_BYTES, blobs=()):
    """Serialize one frame; raises FrameTooLargeError over the cap.

    ``blobs`` are bytes-like segments that ride raw after the JSON
    (``FLAG_BLOBS``); the cap counts table, JSON and segments.
    """
    body = dumps(payload)
    parts, flags = [body], 0
    if blobs:
        sizes = [len(blob) for blob in blobs]
        parts = [
            _BLOB_PREFIX.pack(len(body), len(sizes)),
            struct.pack(">%dI" % len(sizes), *sizes),
            body,
            *blobs,
        ]
        flags = FLAG_BLOBS
    length = sum(len(part) for part in parts)
    if max_frame_bytes is not None and length > max_frame_bytes:
        raise FrameTooLargeError(
            "frame payload is %d bytes, over the %d-byte cap"
            % (length, max_frame_bytes)
        )
    header = _HEADER.pack(
        PROTOCOL_VERSION, kind, flags, request_id, length
    )
    return b"".join([header, *parts])


def _split_blobs(body):
    """``(json bytes, [segment views])`` of one ``FLAG_BLOBS`` body."""
    view = memoryview(body)
    try:
        json_length, count = _BLOB_PREFIX.unpack_from(view)
        sizes = struct.unpack_from(">%dI" % count, view, _BLOB_PREFIX.size)
    except struct.error:
        raise ProtocolError(
            "blob table overruns the %d-byte frame body" % len(view)
        ) from None
    start = _BLOB_PREFIX.size + 4 * count
    if start + json_length + sum(sizes) != len(view):
        raise ProtocolError(
            "blob table (%d JSON bytes, %d blobs of %d bytes) does not "
            "add up to the %d-byte frame body"
            % (json_length, count, sum(sizes), len(view))
        )
    end = start + json_length
    blobs = []
    for size in sizes:
        blobs.append(view[end:end + size])
        end += size
    return view[start:start + json_length], blobs


class FrameDecoder:
    """Incremental frame reassembly from arbitrary byte chunks.

    ``feed(data)`` returns the list of :class:`Frame` /
    :class:`FrameError` events completed by ``data`` — possibly empty
    (mid-frame), possibly several (coalesced segments).  The decoder
    never buffers more than one header plus ``max_frame_bytes``:
    oversized frames are drained chunk-by-chunk and reported as a
    :class:`FrameError` once fully skipped.
    """

    def __init__(self, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES,
                 blobs=False):
        self.max_frame_bytes = max_frame_bytes
        # Which flag bits this endpoint defines: the shard-worker
        # channel takes blob frames, the front door none.
        self._known_flags = FLAG_BLOBS if blobs else 0
        self._buffer = bytearray()
        self._header = None       # parsed (kind, request_id, length, flags)
        self._skip_remaining = 0  # bytes of an oversized payload left
        self._skip_request_id = 0
        self._skip_length = 0

    def feed(self, data):
        """Consume ``data``; returns completed Frame/FrameError events."""
        self._buffer.extend(data)
        events = []
        while True:
            if self._skip_remaining:
                drained = min(self._skip_remaining, len(self._buffer))
                del self._buffer[:drained]
                self._skip_remaining -= drained
                if self._skip_remaining:
                    return events  # oversized payload still arriving
                events.append(FrameError(
                    self._skip_request_id,
                    FrameTooLargeError(
                        "frame payload is %d bytes, over the %d-byte cap"
                        % (self._skip_length, self.max_frame_bytes)
                    ),
                ))
                continue
            if self._header is None:
                if len(self._buffer) < HEADER_BYTES:
                    return events
                version, kind, flags, request_id, length = _HEADER.unpack(
                    bytes(self._buffer[:HEADER_BYTES])
                )
                if version != PROTOCOL_VERSION:
                    # Fatal: a different version may not even share
                    # this header layout, so resynchronization is
                    # impossible.  Leave the buffer untouched for
                    # diagnostics and make every later feed fail too.
                    raise ProtocolError(
                        "unsupported protocol version %d (this end "
                        "speaks %d)" % (version, PROTOCOL_VERSION)
                    )
                del self._buffer[:HEADER_BYTES]
                if length > self.max_frame_bytes:
                    self._skip_remaining = length
                    self._skip_request_id = request_id
                    self._skip_length = length
                    continue
                self._header = (kind, request_id, length, flags)
            kind, request_id, length, flags = self._header
            if len(self._buffer) < length:
                return events
            with memoryview(self._buffer) as buffered:
                body = bytes(buffered[:length])  # the frame's one copy
            del self._buffer[:length]
            self._header = None
            if kind not in _KINDS:
                events.append(FrameError(request_id, ProtocolError(
                    "unknown frame kind %d" % kind
                )))
                continue
            if flags & ~self._known_flags:
                events.append(FrameError(request_id, ProtocolError(
                    "reserved flags must be zero, got %#x" % flags
                )))
                continue
            blobs = ()
            try:
                if flags & FLAG_BLOBS:
                    body, blobs = _split_blobs(body)
                payload = loads(body)
            except ProtocolError as exc:
                events.append(FrameError(request_id, exc))
                continue
            events.append(Frame(kind, request_id, payload, blobs))
