"""Job completion reaching the wire, and graceful shutdown: drain mode
must lose zero accepted jobs."""

import logging
import socket
import threading
import time

import pytest

from repro.common.errors import DeadlineExceededError, ServiceClosedError
from repro.net import TenantPolicy
from repro.net.server import CODEC_THREADS

from .conftest import MINE_PARAMS
from .test_server import assert_mining_results_identical


def wait_until(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "%s never held" % what
        time.sleep(0.01)


class TestCompletion:
    """A job announces its own completion; nothing waits per job."""

    @pytest.fixture
    def stack(self, serve_stack):
        """One service worker, and room for 64 jobs in flight."""
        return serve_stack(
            num_workers=1, default_tenant=TenantPolicy(max_inflight=64))

    def test_cache_hit_is_not_stuck_behind_32_running_jobs(
            self, stack, connect, worker_gate):
        service, server = stack
        client = connect(server)
        client.mine("flights", **MINE_PARAMS)  # prime the result cache
        gate = worker_gate(service)
        queued = [client.submit_mine("flights", k=3, sample_size=16,
                                     seed=100 + i) for i in range(32)]
        hit = client.submit_mine("flights", **MINE_PARAMS)
        assert hit.cache_hit
        # The result exists; delivering it needs nothing the 32 hold.
        assert hit.result(timeout=1.0) is not None
        gate.set()
        for job in queued:
            assert job.result(timeout=30.0) is not None

    def test_no_thread_per_inflight_job(self, stack, connect,
                                        worker_gate):
        service, server = stack
        gate = worker_gate(service)
        client = connect(server)
        client.stats()
        before = set(threading.enumerate())
        queued = [client.submit_mine("flights", k=3, sample_size=16,
                                     seed=200 + i) for i in range(64)]
        assert client.stats()["net"]["tenants"]["default"]["inflight"] == 64
        grown = [t.name for t in set(threading.enumerate()) - before]
        assert all(name.startswith("net-codec") for name in grown), grown
        assert len(grown) <= CODEC_THREADS
        gate.set()
        for job in queued:
            assert job.result(timeout=30.0) is not None

    def test_start_deadline_enforced_with_no_client_waiting(
            self, stack, connect, worker_gate):
        service, server = stack
        worker_gate(service)
        watcher = connect(server)
        watcher.subscribe()
        submitter = connect(server)
        submitted = time.monotonic()
        job = submitter.submit_mine("flights", deadline_seconds=0.2,
                                    **MINE_PARAMS)
        # Nobody is blocked in `result`: the server itself notices the
        # queued job's deadline lapse, and says so.
        event = watcher.next_event(timeout=5.0)
        assert 0.2 <= time.monotonic() - submitted < 2.0
        assert event["job_id"] == job.job_id
        assert not event["ok"]
        assert event["error"]["error"] == "DeadlineExceededError"
        with pytest.raises(DeadlineExceededError):
            job.result(timeout=5.0)
        assert service.stats()["jobs"]["failed"] == 1


class TestDrain:
    def test_drain_flushes_inflight_and_loses_nothing(
            self, serve_stack, connect, worker_gate):
        service, server = serve_stack(num_workers=1)
        # An independent stack computes the reference result, so the
        # parity check below is not a result-cache tautology.
        ref_service, _ = serve_stack(num_workers=1)
        reference = ref_service.mine("flights", **MINE_PARAMS)

        gate = worker_gate(service)
        busy = connect(server)
        idle = connect(server)
        job = busy.submit_mine("flights", **MINE_PARAMS)

        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(server.drain(timeout=30.0)),
            daemon=True,
        )
        drainer.start()
        wait_until(lambda: server.net_stats()["draining"],
                   what="draining flag")

        # The idle connection is told to go away...
        assert idle.next_event(timeout=5.0)["type"] == "goaway"
        # ...the busy one keeps its seat but new work is refused...
        with pytest.raises(ServiceClosedError):
            busy.submit_mine("flights", k=2, sample_size=16, seed=99)
        # ...and the listener is gone: no new connections.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port),
                                     timeout=2.0)

        gate.set()
        drainer.join(30.0)
        assert drained == [True]

        # The accepted job survived the drain, bit-identically.
        result = job.result(timeout=10.0)
        assert_mining_results_identical(reference, result)
        assert service.stats()["jobs"]["completed"] == 1
        net = server.net_stats()
        assert net["jobs_submitted"] == 1
        assert net["jobs_completed"] == 1

    def test_drain_timeout_reports_false_but_job_still_lands(
            self, serve_stack, connect, worker_gate):
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        client = connect(server)
        job = client.submit_mine("flights", **MINE_PARAMS)
        assert server.drain(timeout=0.2) is False
        gate.set()
        # Even a timed-out drain never discards the accepted job.
        assert job.result(timeout=20.0) is not None

    def test_drain_with_no_work_is_immediate(self, serve_stack,
                                             connect):
        _, server = serve_stack()
        client = connect(server)
        client.query("SELECT COUNT(*) FROM flights")
        assert server.drain(timeout=5.0) is True

    def test_subscribed_session_is_not_told_to_go_away(
            self, serve_stack, connect, worker_gate):
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        watcher = connect(server)
        watcher.subscribe()
        submitter = connect(server)
        job = submitter.submit_mine("flights", **MINE_PARAMS)

        drainer = threading.Thread(target=server.drain, daemon=True)
        drainer.start()
        wait_until(lambda: server.net_stats()["draining"],
                   what="draining flag")
        gate.set()
        drainer.join(30.0)
        # The watcher stayed connected through the drain and saw the
        # job-completion event rather than a GOAWAY.
        event = watcher.next_event(timeout=10.0)
        assert event["type"] == "event"
        assert event["job_id"] == job.job_id
        assert event["ok"]


class TestStream:
    def test_subscriber_sees_completion_events(self, serve_stack,
                                               connect):
        _, server = serve_stack()
        watcher = connect(server)
        assert watcher.subscribe()["subscribed"]
        submitter = connect(server)
        job = submitter.submit_mine("flights", **MINE_PARAMS)
        event = watcher.next_event(timeout=20.0)
        assert event["type"] == "event"
        assert event["job_id"] == job.job_id
        assert event["ok"]
        assert event["label"] == "mine:flights"
        # Unsubscribing stops the stream.
        assert not watcher.subscribe(False)["subscribed"]

    def test_failed_job_event_carries_the_error(self, serve_stack,
                                                connect):
        _, server = serve_stack()
        watcher = connect(server)
        watcher.subscribe()
        submitter = connect(server)
        job = submitter.submit_query("SELECT nope FROM flights")
        event = watcher.next_event(timeout=20.0)
        assert event["type"] == "event"
        assert event["job_id"] == job.job_id
        assert not event["ok"]
        assert event["error"]["code"] >= 1
        assert event["error"]["message"]


class TestStop:
    def test_stop_closes_the_port_but_not_the_service(self, serve_stack,
                                                      connect):
        service, server = serve_stack()
        client = connect(server)
        assert client.query("SELECT COUNT(*) FROM flights").scalar() == 14
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port),
                                     timeout=2.0)
        # The in-process facade outlives its front door.
        assert service.query("SELECT COUNT(*) FROM flights").scalar() == 14

    def test_stop_is_idempotent(self, serve_stack):
        _, server = serve_stack()
        server.stop()
        server.stop()

    def test_stop_with_blocked_result_waiters_does_not_hang(
            self, serve_stack, connect, worker_gate):
        """Clients blocked in a `result` op must not wedge stop()."""
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        client = connect(server)
        job = client.submit_mine("flights", **MINE_PARAMS)

        failure = []

        def wait_forever():
            try:
                job.result(timeout=30.0)
            except Exception as exc:  # expected: server went away
                failure.append(exc)

        waiter = threading.Thread(target=wait_forever, daemon=True)
        waiter.start()
        time.sleep(0.2)  # let the result op reach its blocking wait
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 15.0
        gate.set()
        waiter.join(10.0)
        assert not waiter.is_alive()

    def test_stop_with_running_jobs_ignores_their_late_completion(
            self, serve_stack, connect, worker_gate, caplog):
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        client = connect(server)
        client.submit_mine("flights", **MINE_PARAMS)
        client.submit_query("SELECT COUNT(*) FROM flights")
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 15.0
        # The jobs finish after their front door is gone: each one's
        # completion callback finds the loop closed and returns.
        with caplog.at_level(logging.ERROR, logger="repro.service.jobs"):
            gate.set()
            wait_until(
                lambda: service.stats()["jobs"]["completed"] == 2,
                timeout=20.0, what="orphaned jobs finishing",
            )
        assert not caplog.records, caplog.text
