"""Client behaviour: reconnect-and-retry, typed errors."""

import socket

import pytest

from repro.common.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
)
from repro.net import ServiceClient

from .conftest import MINE_PARAMS


class TestReconnect:
    def test_call_retries_once_after_connection_loss(self, serve_stack,
                                                     connect):
        _, server = serve_stack()
        client = connect(server)
        assert client.query("SELECT COUNT(*) FROM flights").scalar() == 14
        # Kill the socket out from under the client: the next call
        # transparently reconnects and succeeds.
        client._connection.sock.shutdown(socket.SHUT_RDWR)
        assert client.query("SELECT COUNT(*) FROM flights").scalar() == 14

    def test_reconnect_repeats_the_tenant_hello(self, serve_stack,
                                                connect):
        _, server = serve_stack()
        client = connect(server, tenant="alice")
        client.query("SELECT COUNT(*) FROM flights")
        client._connection.sock.shutdown(socket.SHUT_RDWR)
        client.query("SELECT COUNT(*) FROM flights")
        # Both submissions were attributed to the tenant, so the hello
        # was re-sent on the new connection.
        tenants = client.stats()["net"]["tenants"]
        assert tenants["alice"]["submitted"] == 2

    def test_job_ids_survive_reconnect(self, serve_stack, connect):
        """The job registry is server-global, not per-connection."""
        _, server = serve_stack()
        client = connect(server)
        job = client.submit_mine("flights", **MINE_PARAMS)
        client._connection.sock.shutdown(socket.SHUT_RDWR)
        assert client.result(job.job_id, timeout=20.0) is not None

    def test_reconnect_disabled_surfaces_the_loss(self, serve_stack):
        _, server = serve_stack()
        client = ServiceClient("127.0.0.1", server.port,
                               reconnect=False, timeout=5.0)
        try:
            client._connection.sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ServiceError, match="lost"):
                client.stats()
        finally:
            client.close()

    def test_stopped_server_maps_to_service_closed(self, serve_stack,
                                                   connect):
        _, server = serve_stack()
        client = connect(server)
        client.query("SELECT COUNT(*) FROM flights")
        server.stop()
        with pytest.raises((ServiceClosedError, ServiceError)):
            client.stats()


class TestClosedClient:
    def test_next_event_on_a_closed_client(self, serve_stack, connect):
        _, server = serve_stack()
        client = connect(server)
        client.close()
        with pytest.raises(ServiceError, match="client is closed"):
            client.next_event(timeout=0.1)

    def test_next_event_after_a_failed_reconnect(self, serve_stack,
                                                 connect):
        _, server = serve_stack()
        client = connect(server)
        server.stop()
        client._connection.sock.shutdown(socket.SHUT_RDWR)
        with pytest.raises(ServiceError, match="reconnect failed"):
            client.stats()
        with pytest.raises(ServiceError, match="client is closed"):
            client.next_event(timeout=0.1)
        with pytest.raises(ServiceError, match="client is closed"):
            client.stats()


class TestErrorMapping:
    def test_unknown_dataset_is_a_service_error(self, serve_stack,
                                                connect):
        _, server = serve_stack()
        client = connect(server)
        with pytest.raises(ServiceError):
            client.submit_mine("missing", **MINE_PARAMS)

    def test_sql_errors_arrive_typed(self, serve_stack, connect):
        _, server = serve_stack()
        client = connect(server)
        with pytest.raises(ReproError, match="nope"):
            client.query("SELECT nope FROM flights", timeout=20.0)

    def test_bad_mining_params_arrive_typed(self, serve_stack, connect):
        _, server = serve_stack()
        client = connect(server)
        with pytest.raises(ServiceError, match="engine"):
            client.submit_mine("flights", engine="quantum")
