"""Network front door: framed-protocol server + client for the service.

    >>> from repro.net import ServiceServer, ServiceClient, NetConfig
    >>> server = ServiceServer(service, NetConfig(port=0))
    >>> server.start()
    >>> client = ServiceClient("127.0.0.1", server.port)
    >>> client.mine("flights", k=3)       # MiningResult, as in-process
    >>> client.stats()["net"]["connections"]

See :mod:`repro.net.protocol` for the wire format and
:mod:`repro.net.server` for the serving architecture.
"""

from repro.net.client import RemoteJob, ServiceClient
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
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
from repro.net.server import (
    NetConfig,
    ServiceServer,
    TenantPolicy,
)
from repro.net.wire import result_from_wire, result_to_wire
from repro.net.worker import ShardWorker, ShardWorkerClient

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "KIND_ERROR",
    "KIND_EVENT",
    "KIND_GOAWAY",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "NetConfig",
    "PROTOCOL_VERSION",
    "RemoteJob",
    "ServiceClient",
    "ServiceServer",
    "ShardWorker",
    "ShardWorkerClient",
    "TenantPolicy",
    "encode_frame",
    "result_from_wire",
    "result_to_wire",
]
