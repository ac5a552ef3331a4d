"""End-to-end server behaviour: parity, tenants, coalescing, errors."""

import gc
import socket
import struct
import threading
import time
import weakref

import numpy as np
import pytest

from repro.common.errors import (
    FrameTooLargeError,
    ProtocolError,
    ResultTimeoutError,
    ServiceError,
    TenantQuotaError,
)
from repro.net import TenantPolicy
from repro.net.protocol import (
    KIND_ERROR,
    KIND_REQUEST,
    FrameDecoder,
    encode_frame,
)

from repro.service import ServiceConfig

from .conftest import MINE_PARAMS


def assert_mining_results_identical(a, b):
    """The acceptance bar: bit-identical rules/lambdas/estimates."""
    assert [tuple(m.rule.values) for m in a.rule_set] == [
        tuple(m.rule.values) for m in b.rule_set
    ]
    assert [(int(m.count), float(m.avg_measure)) for m in a.rule_set] == [
        (int(m.count), float(m.avg_measure)) for m in b.rule_set
    ]
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.estimates, b.estimates)
    assert list(a.kl_trace) == list(b.kl_trace)


class TestWireParity:
    def test_mine_over_wire_is_bit_identical(self, serve_stack, connect):
        service, server = serve_stack()
        client = connect(server)
        local = service.mine("flights", **MINE_PARAMS)
        remote = client.mine("flights", **MINE_PARAMS)
        assert_mining_results_identical(local, remote)
        # The reconstructed result is a full MiningResult, not a stub.
        assert remote.information_gain == local.information_gain
        assert remote.metrics["counters"] == local.metrics["counters"]
        assert remote.config.k == MINE_PARAMS["k"]

    def test_query_over_wire_matches_in_process(self, serve_stack,
                                                connect):
        service, server = serve_stack()
        client = connect(server)
        sql = ("SELECT origin, COUNT(*) AS c, AVG(delay) AS a "
               "FROM flights GROUP BY origin ORDER BY c DESC, origin")
        local = service.query(sql)
        remote = client.query(sql)
        assert remote.columns == local.columns
        assert remote.rows == local.rows

    def test_sql_miner_engine_over_wire(self, serve_stack, connect):
        service, server = serve_stack()
        client = connect(server)
        local = service.mine("flights", k=2, engine="sql")
        remote = client.mine("flights", k=2, engine="sql")
        assert [tuple(m.rule.values) for m in local.rule_set] == [
            tuple(m.rule.values) for m in remote.rule_set
        ]
        assert np.array_equal(local.estimates, remote.estimates)
        assert list(local.kl_trace) == list(remote.kl_trace)
        assert remote.queries_issued == local.queries_issued

    def test_submit_poll_result_lifecycle(self, serve_stack, connect):
        _, server = serve_stack()
        client = connect(server)
        job = client.submit_mine("flights", **MINE_PARAMS)
        deadline = time.monotonic() + 20.0
        while not job.done():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert job.result(timeout=5.0) is not None

    def test_second_request_hits_the_result_cache(self, serve_stack,
                                                  connect):
        _, server = serve_stack()
        client = connect(server)
        client.mine("flights", **MINE_PARAMS)
        again = client.submit_mine("flights", **MINE_PARAMS)
        assert again.cache_hit
        assert again.result(timeout=5.0) is not None


class TestTenants:
    def test_quota_enforced_per_tenant(self, serve_stack, connect,
                                       worker_gate):
        service, server = serve_stack(
            num_workers=1,
            tenants={"a": TenantPolicy(max_inflight=2),
                     "b": TenantPolicy(max_inflight=8)},
        )
        gate = worker_gate(service)
        alice = connect(server, tenant="a")
        bob = connect(server, tenant="b")
        # Distinct jobs (per-seed) so nothing coalesces; the gated
        # worker keeps them all in flight.
        alice.submit_mine("flights", k=3, sample_size=16, seed=101)
        alice.submit_mine("flights", k=3, sample_size=16, seed=102)
        with pytest.raises(TenantQuotaError):
            alice.submit_mine("flights", k=3, sample_size=16, seed=103)
        # Tenant b is unaffected by a's full quota.
        bob.submit_mine("flights", k=3, sample_size=16, seed=104)
        stats = alice.stats()["net"]
        assert stats["quota_rejections"] == 1
        assert stats["tenants"]["a"]["inflight"] == 2
        assert stats["tenants"]["a"]["quota_rejections"] == 1
        assert stats["tenants"]["b"]["inflight"] == 1
        gate.set()

    def test_quota_releases_on_completion(self, serve_stack, connect,
                                          worker_gate):
        service, server = serve_stack(
            num_workers=1, tenants={"a": TenantPolicy(max_inflight=1)},
        )
        gate = worker_gate(service)
        client = connect(server, tenant="a")
        job = client.submit_mine("flights", k=3, sample_size=16, seed=7)
        with pytest.raises(TenantQuotaError):
            client.submit_mine("flights", k=3, sample_size=16, seed=8)
        gate.set()
        job.result(timeout=20.0)
        # Slot freed: the next submission is admitted.
        retry = client.submit_mine("flights", k=3, sample_size=16, seed=8)
        assert retry.result(timeout=20.0) is not None

    def test_quota_spans_connections_of_one_tenant(self, serve_stack,
                                                   connect, worker_gate):
        service, server = serve_stack(
            num_workers=1, tenants={"a": TenantPolicy(max_inflight=1)},
        )
        gate = worker_gate(service)
        first = connect(server, tenant="a")
        second = connect(server, tenant="a")
        first.submit_mine("flights", k=3, sample_size=16, seed=1)
        with pytest.raises(TenantQuotaError):
            second.submit_mine("flights", k=3, sample_size=16, seed=2)
        gate.set()

    def test_tenant_priority_feeds_admission_queue(self, serve_stack,
                                                   connect, worker_gate):
        from repro.service.jobs import PRIORITY_HIGH

        service, server = serve_stack(
            num_workers=1,
            tenants={"vip": TenantPolicy(max_inflight=8,
                                         priority="high"),
                     "batch": TenantPolicy(max_inflight=8,
                                           priority="low")},
        )
        gate = worker_gate(service)
        batch = connect(server, tenant="batch")
        vip = connect(server, tenant="vip")
        slow = batch.submit_mine("flights", k=3, sample_size=16, seed=11)
        fast = vip.submit_mine("flights", k=3, sample_size=16, seed=12)
        # While the gate holds the single worker, both jobs sit in the
        # admission heap: the vip job (submitted second) is at the root
        # because its tenant's priority class outranks batch.
        with service._scheduler._lock:
            heap = list(service._scheduler._heap)
        assert len(heap) == 2
        assert min(heap)[0] == PRIORITY_HIGH
        gate.set()
        fast.result(timeout=20.0)
        slow.result(timeout=20.0)


class TestCoalescing:
    def test_identical_requests_across_connections_coalesce(
            self, serve_stack, connect, worker_gate):
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        first = connect(server)
        second = connect(server)
        job_a = first.submit_mine("flights", **MINE_PARAMS)
        job_b = second.submit_mine("flights", **MINE_PARAMS)
        assert job_b.job_id == job_a.job_id
        assert job_b.net_coalesced
        stats = first.stats()["net"]
        assert stats["coalesce_hits"] >= 1
        gate.set()
        result_a = job_a.result(timeout=20.0)
        result_b = job_b.result(timeout=20.0)
        assert_mining_results_identical(result_a, result_b)
        # One service job served both submissions.
        assert service.stats()["jobs"]["completed"] == 1

    def test_spelled_out_defaults_coalesce_with_omitted_ones(
            self, serve_stack, connect, worker_gate):
        """Which requests are the same is the service's call alone —
        the front door holds no copy of ``submit_mine``'s defaults."""
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        terse = connect(server).submit_mine(
            "flights", sample_size=16, seed=0)
        explicit = connect(server).submit_mine(
            "flights", k=10, variant="optimized", engine="operators",
            sample_size=16, seed=0)
        assert explicit.job_id == terse.job_id
        assert explicit.net_coalesced and explicit.coalesced
        gate.set()
        assert_mining_results_identical(terse.result(timeout=20.0),
                                        explicit.result(timeout=20.0))
        assert service.stats()["jobs"]["completed"] == 1

    def test_wire_submission_coalesces_onto_an_in_process_job(
            self, serve_stack, connect, worker_gate):
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        local = service.submit_mine("flights", **MINE_PARAMS)
        client = connect(server)
        remote = client.submit_mine("flights", **MINE_PARAMS)
        # The service coalesced it onto a leader this server was not
        # tracking: same job id, but not a protocol-level hit.
        assert remote.job_id == local.job_id
        assert remote.coalesced and not remote.net_coalesced
        again = connect(server).submit_mine("flights", **MINE_PARAMS)
        assert again.job_id == local.job_id and again.net_coalesced
        assert client.stats()["net"]["coalesce_hits"] == 1
        gate.set()
        assert_mining_results_identical(local.result(timeout=20.0),
                                        remote.result(timeout=20.0))
        stats = client.stats()
        assert stats["jobs"]["completed"] == 1
        assert stats["net"]["jobs_completed"] == 1
        assert stats["net"]["tenants"]["default"]["inflight"] == 0

    def test_coalescing_onto_a_finished_job_charges_no_quota(
            self, serve_stack, connect, worker_gate, monkeypatch):
        """A leader caught mid-completion — this server has retired it,
        the service has not yet — is attached to without a quota charge
        nothing would ever release."""
        from repro.service import JobHandle

        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        client = connect(server)
        first = client.submit_mine("flights", **MINE_PARAMS)
        leader = server._jobs[first.job_id].handle._job
        gate.set()
        first.result(timeout=20.0)
        monkeypatch.setattr(
            service, "submit_mine",
            lambda *args, **kwargs: JobHandle(leader, coalesced=True))
        late = client.submit_mine("flights", **MINE_PARAMS)
        assert late.job_id == first.job_id and late.net_coalesced
        assert_mining_results_identical(first.result(timeout=5.0),
                                        late.result(timeout=5.0))
        net = client.stats()["net"]
        assert net["tenants"]["default"]["inflight"] == 0
        assert net["tenants"]["default"]["submitted"] == 2
        assert not next(iter(server._sessions.values())).jobs

    def test_acceptance_eight_clients_two_tenants(self, serve_stack,
                                                  connect, flights):
        """ISSUE acceptance: 8 concurrent wire clients, 2 tenants —
        quota enforcement and coalescing hits visible in stats()["net"],
        all delivered results bit-identical to in-process."""
        service, server = serve_stack(
            num_workers=2,
            tenants={"a": TenantPolicy(max_inflight=1),
                     "b": TenantPolicy(max_inflight=8)},
        )
        results = [None] * 8
        rejections = [0] * 8
        errors = []
        connected = threading.Barrier(8)

        def run_client(i):
            tenant = "a" if i % 2 == 0 else "b"
            try:
                client = connect(server, tenant=tenant)
                connected.wait(30.0)
                for attempt in range(60):
                    try:
                        job = client.submit_mine("flights", **MINE_PARAMS)
                        results[i] = job.result(timeout=30.0)
                        return
                    except TenantQuotaError:
                        rejections[i] += 1
                        time.sleep(0.02)
                errors.append("client %d never got through" % i)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run_client, args=(i,),
                                    daemon=True) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors, errors
        assert all(result is not None for result in results)
        # The reference comes after the concurrent phase: primed, every
        # request would be a finished cache hit with nothing in flight
        # to coalesce on.
        reference = service.mine("flights", **MINE_PARAMS)
        for result in results:
            assert_mining_results_identical(reference, result)
        net = service.stats()["net"]
        # 8 identical concurrent requests: the protocol layer coalesced
        # (or the cache served) all but the leaders...
        assert net["coalesce_hits"] + sum(
            1 for r in results if r is not None
        ) >= 8
        assert net["coalesce_hits"] >= 1
        # ...and tenant a's one-slot quota pushed back at least once
        # (4 clients, 1 slot), visible per-tenant and in the totals.
        assert net["quota_rejections"] == sum(rejections)
        assert net["tenants"]["a"]["quota_rejections"] >= 1
        assert net["tenants"]["a"]["inflight"] == 0
        assert net["tenants"]["b"]["inflight"] == 0


class TestDisconnects:
    def test_abrupt_disconnect_mid_job_completes_and_caches(
            self, serve_stack, connect, worker_gate):
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        doomed = connect(server)
        doomed.submit_mine("flights", **MINE_PARAMS)
        doomed._sock.close()  # abrupt: no goodbye, job is in flight
        doomed._sock = None
        gate.set()
        deadline = time.monotonic() + 20.0
        while service.stats()["jobs"]["completed"] < 1:
            assert time.monotonic() < deadline, "orphaned job never ran"
            time.sleep(0.02)
        # The orphan's result landed in the cache: a new client gets it
        # without re-execution, and no tenant slot leaked.
        survivor = connect(server)
        job = survivor.submit_mine("flights", **MINE_PARAMS)
        assert job.cache_hit
        assert job.result(timeout=5.0) is not None
        net = survivor.stats()["net"]
        assert all(t["inflight"] == 0 for t in net["tenants"].values())

    def test_result_wait_deadline(self, serve_stack, connect,
                                  worker_gate):
        service, server = serve_stack(num_workers=1)
        gate = worker_gate(service)
        client = connect(server)
        job = client.submit_mine("flights", **MINE_PARAMS)
        with pytest.raises(ResultTimeoutError):
            job.result(timeout=0.3)
        gate.set()
        assert job.result(timeout=20.0) is not None


class TestFinishedJobRetention:
    def test_session_tracks_only_unfinished_jobs(self, serve_stack,
                                                 connect):
        _, server = serve_stack()
        client = connect(server)
        for i in range(200):
            client.query("SELECT COUNT(*) + %d FROM flights" % (i % 7))
        (session,) = server._sessions.values()
        assert len(session.jobs) == 0
        assert client.stats()["net"]["jobs_completed"] == 200

    def test_oldest_finished_jobs_are_evicted_past_retention(
            self, serve_stack, connect, worker_gate, monkeypatch):
        from repro.net import server as server_module

        monkeypatch.setattr(server_module, "COMPLETED_JOB_RETENTION", 3)
        service, server = serve_stack(num_workers=1)
        client = connect(server)
        queries = ["SELECT COUNT(*) + %d FROM flights" % i
                   for i in range(1, 6)]
        for sql in queries:
            client.query(sql)  # prime the result cache
        gate = worker_gate(service)
        held = client.submit_query("SELECT COUNT(*) FROM flights")
        hits = []
        for sql in queries:
            hits.append(client.submit_query(sql))
            assert hits[-1].cache_hit
            hits[-1].result(timeout=20.0)
        # The last three completions stay, and the unfinished job.
        assert sorted(server._jobs) == (
            [held.job_id] + [hit.job_id for hit in hits[2:]])
        with pytest.raises(ServiceError, match="retained for the last 3"):
            hits[0].result(timeout=5.0)
        assert hits[4].result(timeout=5.0).scalar() == 14 + 5
        # Retention counts completions, not submissions: the oldest
        # job finishing last is the newest completion, and fetchable.
        gate.set()
        assert held.result(timeout=20.0).scalar() == 14
        assert sorted(server._jobs) == (
            [held.job_id] + [hit.job_id for hit in hits[3:]])

    def test_finished_job_keeps_payload_but_not_the_result(
            self, serve_stack, connect, worker_gate):
        """A retained finished job is its serialised payload only: the
        ``MiningResult`` behind it dies with the service cache entry."""
        service, server = serve_stack(service_config=ServiceConfig(
            num_workers=1, cache_capacity=1))
        gate = worker_gate(service)
        client = connect(server)
        job = client.submit_mine("flights", **MINE_PARAMS)
        server_job = server._jobs[job.job_id]
        handle = server_job.handle  # in flight: the server still waits
        assert handle is not None
        gate.set()
        assert job.result(timeout=20.0) is not None
        result_ref = weakref.ref(handle.result(timeout=5.0))
        del handle
        assert server_job.finished
        assert server_job.handle is None
        assert server_job.ok and server_job.payload is not None
        gc.collect()
        assert result_ref() is not None  # the one-entry cache holds it
        # A different request evicts it from the one-entry cache ...
        client.mine("flights", **dict(MINE_PARAMS, seed=1))
        deadline = time.monotonic() + 10.0
        while result_ref() is not None:
            assert time.monotonic() < deadline, (
                "finished job still pins its MiningResult: %r"
                % gc.get_referrers(result_ref())
            )
            gc.collect()
            time.sleep(0.02)
        # ... while the retained job still answers from its payload.
        assert server._jobs[job.job_id] is server_job
        assert_mining_results_identical(
            job.result(timeout=5.0), service.mine("flights", **MINE_PARAMS)
        )


class TestWireErrors:
    def test_unknown_dataset_raises_same_type_as_in_process(
            self, serve_stack, connect):
        service, server = serve_stack()
        client = connect(server)
        with pytest.raises(ServiceError, match="unknown dataset"):
            client.submit_mine("nope", **MINE_PARAMS)
        with pytest.raises(ServiceError, match="unknown dataset"):
            service.submit_mine("nope", **MINE_PARAMS)

    def test_unknown_op_is_a_protocol_error(self, serve_stack, connect):
        _, server = serve_stack()
        client = connect(server)
        with pytest.raises(ProtocolError, match="unknown op"):
            client._call("frobnicate", {})
        # The connection survived the bad op.
        assert client.stats()["net"]["connections"] >= 1

    def test_oversized_request_rejected_connection_survives(
            self, serve_stack, connect):
        _, server = serve_stack(max_frame_bytes=2048)
        client = connect(server)
        with pytest.raises(FrameTooLargeError):
            client.submit_query("SELECT '%s' FROM flights"
                                % ("x" * 4096))
        # Same socket still serves requests afterwards.
        assert client.query(
            "SELECT COUNT(*) FROM flights", timeout=10.0
        ).scalar() == 14

    def test_unknown_protocol_version_answered_then_closed(
            self, serve_stack):
        _, server = serve_stack()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            frame = bytearray(encode_frame(KIND_REQUEST, 1,
                                           {"op": "stats"}))
            frame[0] = 99  # future protocol version
            sock.sendall(bytes(frame))
            decoder = FrameDecoder()
            events = []
            while not events:
                data = sock.recv(65536)
                assert data, "server closed without answering"
                events = decoder.feed(data)
            assert events[0].kind == KIND_ERROR
            assert "version" in events[0].payload["message"]
            # ...and then the stream ends: the connection is dead.
            sock.settimeout(5.0)
            while True:
                tail = sock.recv(65536)
                if not tail:
                    break

    def test_blob_frame_refused_at_the_front_door(self, serve_stack):
        # FLAG_BLOBS belongs to the shard-worker channel; the front
        # door defines no op that takes bytes and refuses the bit like
        # any other reserved flag — typed, and the connection survives.
        from repro.net.protocol import FLAG_BLOBS, KIND_RESPONSE

        _, server = serve_stack()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            blob_frame = encode_frame(KIND_REQUEST, 7, {"op": "stats"},
                                      blobs=[b"\x00\x01raw"])
            assert struct.unpack_from(">H", blob_frame, 2) == (FLAG_BLOBS,)
            sock.sendall(blob_frame
                         + encode_frame(KIND_REQUEST, 8, {"op": "stats"}))
            decoder = FrameDecoder()
            events = []
            while len(events) < 2:
                data = sock.recv(65536)
                assert data, "server hung up on a refused frame"
                events.extend(decoder.feed(data))
            by_id = {event.request_id: event for event in events}
            assert by_id[7].kind == KIND_ERROR
            assert by_id[7].payload["error"] == "ProtocolError"
            assert by_id[7].payload["message"] == (
                "reserved flags must be zero, got 0x1"
            )
            assert by_id[8].kind == KIND_RESPONSE
            assert by_id[8].payload["net"]["protocol_errors"] >= 1

    def test_non_request_frame_from_client_rejected(self, serve_stack):
        from repro.net.protocol import KIND_RESPONSE

        _, server = serve_stack()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(encode_frame(KIND_RESPONSE, 5, {}))
            decoder = FrameDecoder()
            events = []
            while not events:
                data = sock.recv(65536)
                assert data
                events = decoder.feed(data)
            assert events[0].kind == KIND_ERROR
            assert events[0].request_id == 5


class TestStats:
    def test_net_section_shape(self, serve_stack, connect):
        _, server = serve_stack()
        client = connect(server, tenant="alice")
        client.query("SELECT COUNT(*) FROM flights")
        stats = client.stats()
        net = stats["net"]
        assert net["listening"]
        assert not net["draining"]
        assert net["connections"] == 1
        assert net["connections_opened"] >= 1
        assert net["frames_in"] >= 2
        assert net["frames_out"] >= 2
        assert net["jobs_submitted"] == 1
        assert net["jobs_completed"] == 1
        assert net["tenants"]["alice"]["submitted"] == 1
        assert net["tenants"]["alice"]["max_inflight"] == 8
        # The wire stats payload carries the regular sections too.
        assert "jobs" in stats and "budget" in stats

    def test_in_process_stats_show_net_section_too(self, serve_stack):
        service, server = serve_stack()
        assert service.stats()["net"]["listening"]

    def test_net_section_detaches_on_stop(self, serve_stack):
        service, server = serve_stack()
        server.stop()
        assert "net" not in service.stats()
