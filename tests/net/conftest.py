"""Shared fixtures for the network front-door tests.

Every test here boots a real server on an ephemeral localhost port and
talks to it over real sockets.  Concurrency tests reuse the service
suite's :class:`Deadline` budget idea (see ``tests/service/conftest``)
via generous per-call timeouts instead of unbounded waits.

``worker_gate`` is the determinism trick: with a single-worker service,
submitting one job that blocks on an Event occupies the worker, so
subsequent submissions *stay queued* (in flight) until the test
releases the gate — making quota, coalescing and drain windows exact
instead of racy.
"""

import threading

import pytest

from repro.data.generators import flight_table
from repro.net import NetConfig, ServiceClient, ServiceServer
from repro.service import Job, RuleMiningService, ServiceConfig

#: One canonical mining request, reused so tests coalesce predictably.
MINE_PARAMS = {"k": 3, "variant": "optimized", "sample_size": 16,
               "seed": 0}


@pytest.fixture(scope="module")
def flights():
    return flight_table()


@pytest.fixture(autouse=True)
def _leak_guard(no_leaked_workers):
    yield


@pytest.fixture
def serve_stack(flights):
    """Factory booting (service, server) pairs, torn down afterwards."""
    created = []

    def boot(num_workers=2, register=True, service_config=None,
             **net_kwargs):
        config = service_config or ServiceConfig(num_workers=num_workers)
        service = RuleMiningService(config)
        if register:
            service.register_dataset("flights", flights)
        net_kwargs.setdefault("port", 0)
        server = ServiceServer(service, NetConfig(**net_kwargs))
        server.start()
        created.append((service, server))
        return service, server

    yield boot
    for service, server in created:
        server.stop()
        service.close(wait=False)


@pytest.fixture
def connect():
    """Client factory; closes every client at teardown."""
    clients = []

    def _connect(server, **kwargs):
        kwargs.setdefault("timeout", 30.0)
        client = ServiceClient("127.0.0.1", server.port, **kwargs)
        clients.append(client)
        return client

    yield _connect
    for client in clients:
        client.close()


@pytest.fixture
def worker_gate():
    """Occupy a single-worker service's worker until released."""
    gates = []

    def block(service):
        gate = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            gate.wait(30.0)

        service._scheduler.submit(Job(blocker, label="test-gate"))
        assert started.wait(5.0), "gate job never started"
        gates.append(gate)
        return gate

    yield block
    for gate in gates:
        gate.set()
