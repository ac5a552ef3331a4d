"""Remote shard worker: loopback execution of real placed shards.

A :class:`~repro.net.worker.ShardWorker` on 127.0.0.1 receives pickled
kernels plus :class:`~repro.data.shm.MmapTableBlock` shard
descriptors of a real colfile and executes them through the same task
body process-pool workers use — so these tests drive the entire remote
leg end-to-end over real sockets: stage batches, block shipping, charge
records, failure semantics and the full mining bit-identity check
against a serial run.
"""

import multiprocessing
import pickle
import socket
import threading
import time

import numpy as np
import pytest

import repro.net.worker as worker_module
from repro.common.errors import (
    EngineError,
    FrameTooLargeError,
    ProtocolError,
)
from repro.core.config import variant_config
from repro.core.miner import Sirum, make_default_cluster
from repro.data.colfile import write_colfile
from repro.data.generators import flight_table, income_table
from repro.data.table import Table
from repro.engine.executors import (
    DID_NOT_CROSS,
    StageUnshippable,
    batch_reply,
    batch_request,
    serve_batch,
)
from repro.engine.placement import PlacementTracker
from repro.net.protocol import KIND_RESPONSE, FrameDecoder, encode_frame
from repro.net.worker import (
    RemoteExecutor,
    ShardWorker,
    ShardWorkerClient,
    parse_address,
)
from tests.conftest import before_stage, between_iterations, mining_bytes


@pytest.fixture(scope="module")
def flights():
    return flight_table()


@pytest.fixture
def file_table(flights, tmp_path):
    path = tmp_path / "flights.col"
    write_colfile(flights, path, block_rows=64)
    return Table.open_colfile(path)


@pytest.fixture
def worker():
    with ShardWorker() as w:
        yield w


@pytest.fixture
def client(worker):
    with ShardWorkerClient(worker.address) as c:
        yield c


def _sum_kernel(tc, part):
    """Module-level (picklable) kernel: sum one shard's measure."""
    tc.add_records(part.num_rows)
    return float(np.sum(part.measure))


def _boom_kernel(tc, part):
    raise ValueError("boom on shard %d" % part.index)


class TestWorkerOps:
    def test_hello_reports_identity(self, client):
        hello = client.hello()
        assert hello["ok"]
        assert hello["pid"] > 0
        assert hello["stages"] == 0
        assert "attachments" in hello

    def test_unknown_op_is_a_protocol_error(self, client):
        with pytest.raises(ProtocolError, match="unknown worker op"):
            client._call("launch_missiles", {})

    def test_address_parsing(self):
        assert parse_address("127.0.0.1:7731") == ("127.0.0.1", 7731)
        assert parse_address(("h", 9)) == ("h", 9)
        with pytest.raises(EngineError):
            parse_address("no-port")
        with pytest.raises(EngineError):
            parse_address("host:http")

    def test_unreachable_worker_is_an_engine_error(self):
        client = ShardWorkerClient("127.0.0.1:1", timeout=0.5)
        with pytest.raises(EngineError, match="cannot reach"):
            client.hello()


def _run(client, kernel, tasks):
    """One batch of ``(index, partition)`` tasks on the worker, decoded."""
    request = batch_request(
        pickle.dumps(kernel, pickle.HIGHEST_PROTOCOL), tasks
    )
    return batch_reply(client.run_stage(request))


def _shard_tasks(file_table, num_shards):
    blocks = file_table.partition_blocks(num_shards, shared=True)
    return [(block.index, block) for block in blocks]


class TestRunStage:
    def test_executes_real_shards_end_to_end(self, client, file_table,
                                             flights):
        records, failure = _run(client, _sum_kernel,
                                _shard_tasks(file_table, 2))
        assert failure is None
        assert len(records) == 2
        outputs = [output for output, _charges in records]
        assert sum(outputs) == pytest.approx(float(np.sum(flights.measure)))
        # The charge records carry the per-task accounting back —
        # (ops, light_ops, records, disk_bytes, output_bytes, cache
        # requests), with ``records`` charged per shard row.
        charges = [charges for _output, charges in records]
        shard_rows = [s.num_rows for s in file_table.shard_map(2)]
        assert [c[2] for c in charges] == shard_rows
        assert client.hello()["stages"] == 1
        assert client.hello()["tasks"] == 2

    def test_kernel_failure_travels_back_typed(self, client, file_table):
        records, failure = _run(client, _boom_kernel,
                                _shard_tasks(file_table, 2))
        assert records == []
        # The batch stopped at its first (lowest-index) failure.
        index, exc = failure
        assert index == 0
        assert isinstance(exc, ValueError)
        assert "boom on shard 0" in str(exc)


#: Blob references no frame carrying two blobs can satisfy.
BAD_BLOB_REFERENCES = [-1, 2, "0", True, None, 1.0]


class TestBlobReferences:
    """A payload field that holds bytes holds a blob *index*; one that
    names a blob the frame does not carry is a typed protocol error on
    whichever side reads it, never an ``IndexError`` in a handler —
    each case below runs on the connection the previous one left."""

    def test_run_stage_request(self, client):
        request = batch_request(pickle.dumps(_identity_kernel), [(0, 7)])
        blobs = [request, b"spare"]
        for bad in BAD_BLOB_REFERENCES:
            with pytest.raises(ProtocolError,
                               match="run_stage batch names blob"):
                client._call("run_stage", {"batch": bad}, blobs)
        with pytest.raises(ProtocolError, match="carries 0"):
            client._call("run_stage", {"batch": 0})
        # Still in step: the well-formed request runs.
        records, failure = batch_reply(client.run_stage(request))
        assert (records[0][0], failure) == (7, None)

    def test_run_stage_request_in_the_old_shape(self, client):
        # The per-task kernel/partition blobs a worker once read: one
        # tree deploys both ends, so this is a protocol error, typed.
        kernel_bytes = pickle.dumps(_identity_kernel)
        with pytest.raises(ProtocolError,
                           match="run_stage batch names blob None"):
            client._call("run_stage", {
                "kernel": 0, "tasks": [{"index": 0, "partition": 1}],
            }, [kernel_bytes, pickle.dumps(7)])
        records, failure = _run(client, _identity_kernel, [(0, 7)])
        assert (records[0][0], failure) == (7, None)

    def test_run_stage_reply(self, client, worker, monkeypatch):
        request = batch_request(pickle.dumps(_identity_kernel), [(0, 7)])
        # A reply that did not cross on the worker, or that does not
        # load here, is an unshippable stage — not a kernel error.
        for reply in (DID_NOT_CROSS, b"not a pickle"):
            monkeypatch.setattr(worker_module, "serve_batch",
                                lambda request, reply=reply: (reply, 0))
            with pytest.raises(StageUnshippable):
                batch_reply(client.run_stage(request))
        for bad in BAD_BLOB_REFERENCES:
            monkeypatch.setitem(
                worker.ops, "run_stage",
                lambda frame, connection, bad=bad: (
                    {"reply": bad}, [b"a", b"b"]
                ),
            )
            with pytest.raises(ProtocolError,
                               match="run_stage reply names blob"):
                client.run_stage(request)
        assert client.hello()["ok"]

    def test_block_fetch_reply(self, file_table, monkeypatch):
        serve = ShardWorkerClient._serve_block_fetch
        lie = []

        def lying_serve(client, payload):
            reply, blobs = serve(client, payload)
            for entry in reply["blocks"]:
                entry["data"] = lie[-1]
            return reply, (blobs + [b"", b""])[:2]

        monkeypatch.setattr(ShardWorkerClient, "_serve_block_fetch",
                            lying_serve)
        (block,) = file_table.partition_blocks(1, shared=True)
        with ShardWorker(local_files=False) as worker:
            with ShardWorkerClient(worker.address) as client:
                for bad in BAD_BLOB_REFERENCES:
                    lie.append(bad)
                    records, (index, exc) = _run(client, _sum_kernel,
                                                 [(0, block)])
                    assert (records, index) == ([], 0)
                    assert isinstance(exc, ProtocolError)
                    assert "block_fetch data names blob" in str(exc)
            # Nothing a lying reply named was cached.
            assert worker.stats()["block_cache"]["blocks"] == 0
            assert worker.stats()["stages"] == len(BAD_BLOB_REFERENCES)


def _mine(table, **cluster_kwargs):
    cluster = make_default_cluster(
        num_executors=2, cores_per_executor=2, **cluster_kwargs
    )
    try:
        config = variant_config("optimized", k=3, sample_size=16, seed=0)
        result = Sirum(config).mine(table, cluster=cluster)
        return result, cluster.placement_stats()
    finally:
        cluster.close()


def _assert_identical(a, b):
    assert [tuple(m.rule.values) for m in a.rule_set] == [
        tuple(m.rule.values) for m in b.rule_set
    ]
    assert np.array_equal(a.lambdas, b.lambdas)
    assert a.kl_trace == b.kl_trace
    assert a.metrics == b.metrics


class TestRemoteMining:
    def test_remote_cluster_matches_serial_on_a_colfile(self, file_table,
                                                        flights, worker):
        serial, _ = _mine(flights, parallelism=1)
        remote, _ = _mine(file_table, executor="remote",
                          workers=[worker.address])
        _assert_identical(serial, remote)
        assert worker.stats()["stages"] > 0

    def test_metering_passes_never_reach_a_worker(self, file_table,
                                                  flights, worker):
        # Only the prune, ancestor-round and gain stages read data; the
        # load scan, the coverage passes and the RCT build and
        # write-back are metered on the driver, with the same charges.
        from repro.core import miner

        kernels = []

        def record(call, kernel):
            # A data stage wraps a partial of the module-level kernel.
            bound = getattr(kernel, "kernel", kernel)
            kernels.append(getattr(bound, "func", bound))

        serial, _ = _mine(flights, parallelism=1)
        cluster = before_stage(make_default_cluster(
            num_executors=2, cores_per_executor=2, executor="remote",
            workers=[worker.address],
        ), record)
        try:
            config = variant_config("optimized", k=3, sample_size=16,
                                    seed=0)
            remote = Sirum(config).mine(file_table, cluster=cluster)
            placed = cluster.placement_stats()["placed_stages"]
        finally:
            cluster.close()
        _assert_identical(serial, remote)
        data = [k for k in kernels if k in (
            miner._prune_kernel, miner._ancestor_packed_kernel,
            miner._match_counts_packed_kernel,
        )]
        assert remote.metrics["counters"]["stages"] == len(kernels)
        assert 0 < len(data) < len(kernels)
        assert worker.stats()["stages"] == placed == len(data)


def _serve_until_told(pipe):
    """Body of a shard worker in a process of its own: report the
    address, then answer any message with the store's statistics."""
    with ShardWorker() as worker:
        pipe.send(worker.address)
        while pipe.poll(None):
            pipe.recv()
            pipe.send(worker.stats()["job_state"])


def _serve_isolated(pipe):
    """Body of a shard worker that reaches neither the driver's files
    nor its shared memory, as on another host: blocks come only over
    the wire (``local_files=False``) and opening any shared-memory
    segment fails.  Reports its address, then answers any message with
    its statistics until the pipe closes."""
    from multiprocessing import shared_memory

    class NoSharedMemory:
        def __init__(self, *args, **kwargs):
            raise FileNotFoundError("no shared memory on this host")

    shared_memory.SharedMemory = NoSharedMemory
    with ShardWorker(local_files=False) as worker:
        pipe.send(worker.address)
        while True:
            try:
                pipe.recv()
            except EOFError:
                return
            stats = worker.stats()
            pipe.send({"stages": stats["stages"],
                       "fetched_bytes": stats["block_cache"]["fetched_bytes"]})


@pytest.fixture
def isolated_worker():
    """``(address, stats)`` of a :func:`_serve_isolated` worker in a
    process of its own; ``stats()`` asks it for its counters."""
    fork = multiprocessing.get_context("fork")
    ours, theirs = fork.Pipe()
    process = fork.Process(target=_serve_isolated, args=(theirs,),
                           daemon=True)
    process.start()
    theirs.close()

    def stats():
        ours.send("stats")
        assert ours.poll(30.0)
        return ours.recv()

    try:
        assert ours.poll(30.0)
        yield ours.recv(), stats
    finally:
        ours.close()
        process.join(10.0)
        if process.is_alive():
            process.kill()
            process.join(10.0)


def _slow_once_kernel(tc, part):
    """Sleeps on its first-ever invocation (module global), so exactly
    one worker of a fleet hangs past a short client deadline."""
    import time

    if _SLOW_ONCE and _SLOW_ONCE.pop() == "armed":
        time.sleep(1.5)
    tc.add_records(1)
    return part * 10


_SLOW_ONCE = []


class TestDeadline:
    def test_a_trickling_worker_times_out_at_the_call_deadline(self):
        # The fake worker answers worker_hello one byte every 0.2 s:
        # each read is short, so only a deadline over the whole call
        # ends it.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        stop = threading.Event()

        def trickle():
            sock, _ = listener.accept()
            with sock:
                decoder = FrameDecoder(worker_module.WORKER_MAX_FRAME_BYTES,
                                       blobs=True)
                frames = []
                while not frames:
                    frames = decoder.feed(sock.recv(1 << 16))
                answer = encode_frame(KIND_RESPONSE, frames[0].request_id,
                                      {"ok": True, "pad": "x" * 64})
                for byte in answer:
                    if stop.wait(0.2):
                        return
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:
                        return

        thread = threading.Thread(target=trickle)
        thread.start()
        client = ShardWorkerClient(
            "127.0.0.1:%d" % listener.getsockname()[1], timeout=0.5
        )
        started = time.monotonic()
        try:
            with pytest.raises(EngineError, match="within 0.5s"):
                client.hello()
            assert time.monotonic() - started < 2.0
        finally:
            client.close()
            stop.set()
            thread.join(timeout=5.0)
            listener.close()
        assert not thread.is_alive()


class TestHeartbeat:
    def test_heartbeat_answers_while_alive(self, client):
        assert client.heartbeat() is True
        assert client.healthy

    def test_heartbeat_of_a_dead_worker_is_false(self):
        client = ShardWorkerClient("127.0.0.1:1", timeout=0.5)
        assert client.heartbeat(timeout=0.5) is False

    def test_heartbeat_restores_the_call_timeout(self, client):
        before = client.timeout
        client.heartbeat(timeout=0.25)
        assert client.timeout == before

    def test_next_request_is_sent_under_its_own_deadline(self, client):
        # The probe's short deadline must not stay on the socket: the
        # request after a heartbeat is a re-placed run_stage, the
        # largest frame on the channel, and a survivor slow to drain it
        # would read as a second death.
        class SpySocket:
            def __init__(self, sock):
                self._sock = sock
                self.send_deadlines = []

            def sendall(self, data):
                self.send_deadlines.append(self._sock.gettimeout())
                return self._sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        client.hello()
        connection = client._connection
        spy = connection.sock = SpySocket(connection.sock)
        assert client.heartbeat(timeout=0.05) is True
        assert client.hello()["ok"]
        assert spy.send_deadlines == [0.05, client.timeout]

    def test_mark_dead_flags_and_disconnects(self, client):
        client.hello()
        client.mark_dead()
        assert not client.healthy
        assert client._connection is None


class TestWorkerBlockCache:
    def test_miss_then_hit(self):
        from repro.net.worker import WorkerBlockCache

        cache = WorkerBlockCache(capacity_bytes=1024)
        key = ("f.col", (1, 2), 0)
        assert cache.get(key) is None
        cache.put(key, b"x" * 10)
        assert cache.get(key) == b"x" * 10
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["fetched_bytes"] == 10
        assert stats["resident_bytes"] == 10

    def test_evicts_coldest_when_over_capacity(self):
        from repro.net.worker import WorkerBlockCache

        cache = WorkerBlockCache(capacity_bytes=25)
        for i in range(3):
            cache.put(("f", (1, 2), i), bytes(10))
        # 30 bytes inserted into 25: block 0 (coldest) was evicted.
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["blocks"] == 2
        assert stats["resident_bytes"] == 20
        assert cache.get(("f", (1, 2), 0)) is None
        assert cache.get(("f", (1, 2), 2)) is not None

    def test_touch_refreshes_recency(self):
        from repro.net.worker import WorkerBlockCache

        cache = WorkerBlockCache(capacity_bytes=25)
        cache.put(("f", (1, 2), 0), bytes(10))
        cache.put(("f", (1, 2), 1), bytes(10))
        assert cache.get(("f", (1, 2), 0)) is not None  # 0 now warmest
        cache.put(("f", (1, 2), 2), bytes(10))
        assert cache.get(("f", (1, 2), 1)) is None  # 1 was coldest
        assert cache.get(("f", (1, 2), 0)) is not None

    def test_oversized_block_is_never_cached(self):
        from repro.net.worker import WorkerBlockCache

        cache = WorkerBlockCache(capacity_bytes=8)
        cache.put(("f", (1, 2), 0), bytes(100))
        assert cache.stats()["blocks"] == 0
        assert cache.stats()["fetched_bytes"] == 100

    def test_a_view_is_stored_as_its_own_bytes(self):
        # Blocks arrive as views into a whole frame body; a cached view
        # would pin that body and ``resident_bytes`` would undercount.
        from repro.net.worker import WorkerBlockCache

        cache = WorkerBlockCache(capacity_bytes=1024)
        body = bytearray(b"x" * 50 + b"block-0000" + b"y" * 50)
        with memoryview(body) as view:
            cache.put(("f", (1, 2), 0), view[50:60])
        body[50:60] = b"overwrite!"   # the frame body is not the cache's
        cached = cache.get(("f", (1, 2), 0))
        assert type(cached) is bytes
        assert cached == b"block-0000"
        assert cache.stats()["resident_bytes"] == 10

    def test_env_override_and_validation(self, monkeypatch):
        from repro.net.worker import default_block_cache_bytes

        monkeypatch.setenv("REPRO_WORKER_BLOCK_CACHE_BYTES", "4096")
        assert default_block_cache_bytes() == 4096
        monkeypatch.setenv("REPRO_WORKER_BLOCK_CACHE_BYTES", "nope")
        with pytest.raises(EngineError):
            default_block_cache_bytes()
        monkeypatch.setenv("REPRO_WORKER_BLOCK_CACHE_BYTES", "0")
        with pytest.raises(EngineError):
            default_block_cache_bytes()

    def test_timeout_env_override(self, monkeypatch):
        from repro.net.worker import default_worker_timeout

        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "7.5")
        assert default_worker_timeout() == 7.5
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT",
                           repr(threading.TIMEOUT_MAX))
        assert default_worker_timeout() == threading.TIMEOUT_MAX
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "-1")
        with pytest.raises(EngineError):
            default_worker_timeout()

    @pytest.mark.parametrize("value", ["inf", "2e10"])
    def test_unusable_timeout_is_typed_before_first_contact(
            self, monkeypatch, worker, value):
        # A deadline no socket can take fails typed, naming the
        # variable, not as socket.create_connection's OverflowError.
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", value)
        with pytest.raises(EngineError, match="REPRO_WORKER_TIMEOUT"):
            with ShardWorkerClient(worker.address) as client:
                client.hello()


class TestBlockShipping:
    """The shared-nothing leg: workers fetch colfile blocks from the
    driver instead of their own filesystem."""

    def test_shared_nothing_worker_mines_a_deleted_colfile(
            self, flights, tmp_path):
        # The driver writes a colfile, opens it, deletes it.  A worker
        # with local_files=False can only get the bytes over the wire
        # — from the driver's still-live mmap.
        import os

        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=64)
        file_table = Table.open_colfile(path)
        os.unlink(path)
        serial, _ = _mine(flights, parallelism=1)
        with ShardWorker(local_files=False) as worker:
            remote, pstats = _mine(file_table, executor="remote",
                                   workers=[worker.address])
            wstats = worker.stats()
        _assert_identical(serial, remote)
        assert pstats["bytes_shipped"] > 0
        assert pstats["blocks_shipped"] >= 1
        cache = wstats["block_cache"]
        assert cache["fetched_bytes"] == pstats["bytes_shipped"]
        # Repeat stages over the same dataset version hit warm cache.
        assert cache["hits"] > 0

    def test_worker_in_a_different_directory_no_shared_paths(
            self, flights, tmp_path, monkeypatch):
        # Worker process serves from a different working directory and
        # the colfile path is *relative* — unresolvable on the worker
        # side even though driver and worker share a machine.  The
        # worker must take the block_fetch path, not the filesystem.
        import os

        driver_dir = tmp_path / "driver"
        worker_dir = tmp_path / "worker"
        driver_dir.mkdir()
        worker_dir.mkdir()
        monkeypatch.chdir(driver_dir)
        write_colfile(flights, "flights.col", block_rows=64)
        file_table = Table.open_colfile("flights.col")
        serial, _ = _mine(flights, parallelism=1)
        with ShardWorker(local_files=False) as worker:
            monkeypatch.chdir(worker_dir)
            remote, pstats = _mine(file_table, executor="remote",
                                   workers=[worker.address])
        _assert_identical(serial, remote)
        assert pstats["bytes_shipped"] > 0

    def test_isolated_worker_mines_a_colfile_byte_identically(
            self, flights, file_table, isolated_worker):
        # The session's measure, estimates and candidate keys reach the
        # worker as bytes in its batches, never as segment names.
        address, stats = isolated_worker
        serial = Sirum(variant_config("optimized", k=3, sample_size=16,
                                      seed=0)).mine(flights)
        cluster = make_default_cluster(executor="remote", workers=[address])
        try:
            remote = Sirum(variant_config("optimized", k=3, sample_size=16,
                                          seed=0)).mine(file_table,
                                                        cluster=cluster)
        finally:
            cluster.close()
        assert mining_bytes(remote) == mining_bytes(serial)
        served = stats()
        assert served["stages"] > 0 and served["fetched_bytes"] > 0

    def test_isolated_worker_mines_an_in_ram_table_byte_identically(
            self, flights, isolated_worker):
        # An in-RAM table's partitions cross as their rows in the batch,
        # like the session's arrays: no segment, no block fetch.
        address, stats = isolated_worker
        config = variant_config("optimized", k=3, sample_size=16, seed=0)
        serial = Sirum(config).mine(flights)
        cluster = make_default_cluster(executor="remote", workers=[address])
        try:
            remote = Sirum(config).mine(flights, cluster=cluster)
            fallbacks = cluster.fallback_stages
        finally:
            cluster.close()
        assert mining_bytes(remote) == mining_bytes(serial)
        served = stats()
        assert served["stages"] > 0 and served["fetched_bytes"] == 0
        assert fallbacks == 0

    @pytest.mark.parametrize("num_workers", [2, 3])
    def test_a_cold_job_ships_each_block_about_once(self, tmp_path,
                                                    num_workers):
        # Partitions smaller than a block: each worker reads the blocks
        # under its own run of shards, and only a block where two runs
        # meet ships twice.  Modulo placement shipped every block to
        # every worker.
        table = income_table(num_rows=2000, seed=3)
        path = tmp_path / "income.col"
        write_colfile(table, path, block_rows=256)
        file_table = Table.open_colfile(path)
        num_blocks = file_table._handle.num_blocks
        config = variant_config("optimized", k=3, sample_size=16, seed=0,
                                num_partitions=16)
        workers = [ShardWorker(local_files=False).start()
                   for _ in range(num_workers)]
        cluster = make_default_cluster(
            executor="remote", workers=[w.address for w in workers],
        )
        try:
            Sirum(config).mine(file_table, cluster=cluster)
            pstats = cluster.placement_stats()
        finally:
            cluster.close()
            for worker in workers:
                worker.stop()
        assert 1 < num_blocks < 16
        assert num_blocks <= pstats["blocks_shipped"]
        assert pstats["blocks_shipped"] <= num_blocks + num_workers - 1

    def test_remote_colfile_reads_bit_identically(self, flights,
                                                  tmp_path):
        # Drive RemoteColFile directly against a live client-served
        # worker via a real stage, comparing raw reads per shard.
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=64)
        file_table = Table.open_colfile(path)
        blocks = file_table.partition_blocks(3, shared=True)
        with ShardWorker(local_files=False) as worker:
            with ShardWorkerClient(worker.address) as client:
                records, failure = _run(
                    client, _raw_read_kernel,
                    [(block.index, block) for block in blocks],
                )
        assert failure is None
        for block, ((cols, measure), _charges) in zip(blocks, records):
            assert measure.tobytes() == block.measure.tobytes()
            for remote_col, local_col in zip(cols, block.columns):
                assert remote_col.tobytes() == local_col.tobytes()


    def test_cached_blocks_are_raw_bytes_the_cache_owns(self, flights,
                                                        tmp_path):
        # One read_rows over four blocks: one block_fetch reply whose
        # four blobs are views into a single frame body.
        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=4)   # 4 + 4 + 4 + 2 rows
        file_table = Table.open_colfile(path)
        (block,) = file_table.partition_blocks(1, shared=True)
        with ShardWorker(local_files=False) as worker:
            with ShardWorkerClient(worker.address) as client:
                records, failure = _run(client, _raw_read_kernel,
                                        [(0, block)])
                shipped = (client.blocks_shipped, client.bytes_shipped)
            cached = list(worker.block_cache._blocks.values())
            stats = worker.stats()["block_cache"]
        assert failure is None
        assert records[0][0][1].tobytes() == flights.measure.tobytes()
        handle = file_table._handle
        raw = sum(handle.block_nbytes(i) for i in range(handle.num_blocks))
        assert shipped == (4, raw)
        assert [type(data) for data in cached] == [bytes] * 4
        assert sum(len(data) for data in cached) == raw
        assert stats["resident_bytes"] == stats["fetched_bytes"] == raw


def _raw_read_kernel(tc, part):
    """Return the shard's raw column/measure arrays for comparison."""
    tc.add_records(part.num_rows)
    return [np.array(c) for c in part.columns], np.array(part.measure)


def _identity_kernel(tc, part):
    tc.add_records(1)
    return part


class TestWorkerFailure:
    """Fault injection: dead and hung workers mid-job."""

    def test_killed_worker_shards_replace_onto_survivor(self, flights):
        def run(kill=None, **cluster_kwargs):
            cluster = make_default_cluster(
                num_executors=2, cores_per_executor=2, **cluster_kwargs
            )
            try:
                # A warm-up stage lands shards on every worker (both
                # modes, so simulated metrics stay comparable); then
                # the kill fires and mining must re-place.
                outs = cluster.run_stage(_identity_kernel, [1, 2, 3, 4])
                assert outs.outputs == [1, 2, 3, 4]
                if kill is not None:
                    kill()
                config = variant_config("optimized", k=3,
                                        sample_size=16, seed=0)
                result = Sirum(config).mine(flights, cluster=cluster)
                return result, cluster.placement_stats()
            finally:
                cluster.close()

        serial, _ = run(parallelism=1)
        w1 = ShardWorker().start()
        w2 = ShardWorker().start()
        try:
            remote, pstats = run(
                kill=w2.stop, executor="remote",
                workers=[w1.address, w2.address],
            )
        finally:
            w1.stop()
            w2.stop()
        _assert_identical(serial, remote)
        assert pstats["worker_failures"] >= 1
        assert pstats["rebalances"] >= 1
        assert pstats["healthy_workers"] == 1

    def test_worker_process_killed_between_iterations(self, flights):
        # Workers in processes of their own, so the plans a worker kept
        # for the job die with it: the survivor rebuilds the re-placed
        # shards' plans from the pure kernels, and the full fingerprint
        # is the serial run's.
        serial, _ = _mine(flights, parallelism=1)
        fork = multiprocessing.get_context("fork")
        workers = []
        for _ in range(2):
            ours, theirs = fork.Pipe()
            process = fork.Process(target=_serve_until_told,
                                   args=(theirs,), daemon=True)
            process.start()
            assert ours.poll(30.0)
            workers.append((process, ours, ours.recv()))
        victim, survivor = workers[1][0], workers[0][1]

        def kill():
            victim.kill()
            victim.join(10.0)

        cluster = between_iterations(make_default_cluster(
            num_executors=2, cores_per_executor=2, executor="remote",
            workers=[address for _, _, address in workers],
        ), kill)
        try:
            config = variant_config("optimized", k=3, sample_size=16,
                                    seed=0)
            remote = Sirum(config).mine(flights, cluster=cluster)
            pstats = cluster.placement_stats()
            survivor.send("stats")
            assert survivor.poll(30.0)
            kept = survivor.recv()
        finally:
            cluster.close()
            for process, _, _ in workers:
                process.kill()
                process.join(10.0)
        assert not victim.is_alive()
        assert mining_bytes(remote) == mining_bytes(serial)
        assert pstats["worker_failures"] >= 1
        assert pstats["healthy_workers"] == 1
        # The survivor served iteration 2 from what it kept of
        # iteration 1 and built the dead worker's shards' plans anew;
        # nobody told it the job ended, and it holds it within bounds.
        assert kept["hits"] > 0 and kept["misses"] > 0
        assert kept["jobs"] == 1

    def test_hung_worker_times_out_and_replaces(self, flights,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0.4")
        _SLOW_ONCE.clear()
        _SLOW_ONCE.append("armed")
        w1 = ShardWorker().start()
        w2 = ShardWorker().start()
        try:
            cluster = make_default_cluster(
                num_executors=2, cores_per_executor=2,
                executor="remote", workers=[w1.address, w2.address],
            )
            try:
                result = cluster.run_stage(
                    _slow_once_kernel, [1, 2, 3, 4]
                )
                pstats = cluster.placement_stats()
            finally:
                cluster.close()
        finally:
            w1.stop()
            w2.stop()
        # One worker hung past the 0.4s deadline; its shards re-ran on
        # the survivor and the stage still resolved correctly.
        assert result.outputs == [10, 20, 30, 40]
        assert pstats["worker_failures"] >= 1
        assert pstats["healthy_workers"] == 1

    def test_all_workers_dead_degrades_to_local_threads(self, flights):
        serial, _ = _mine(flights, parallelism=1)
        w1 = ShardWorker().start()
        w1.stop()
        cluster = make_default_cluster(
            num_executors=2, cores_per_executor=2,
            executor="remote", workers=[w1.address],
        )
        try:
            config = variant_config("optimized", k=3, sample_size=16,
                                    seed=0)
            remote = Sirum(config).mine(flights, cluster=cluster)
            assert cluster.fallback_stages > 0
        finally:
            cluster.close()
        _assert_identical(serial, remote)

    def test_survivors_are_probed_after_a_death(self, monkeypatch):
        # Three workers, two shards: w1 dies holding shard 1 and the
        # idle w2 is dead too.  The heartbeat probe must find that out
        # *before* shard 1 is re-placed, so w2 never sees a batch.
        probed, staged = [], []
        heartbeat = ShardWorkerClient.heartbeat
        run_stage = ShardWorkerClient.run_stage

        def spy_heartbeat(client, timeout=5.0):
            probed.append(client.port)
            return heartbeat(client, timeout=0.5)

        def spy_run_stage(client, request):
            staged.append(client.port)
            return run_stage(client, request)

        monkeypatch.setattr(ShardWorkerClient, "heartbeat", spy_heartbeat)
        monkeypatch.setattr(ShardWorkerClient, "run_stage", spy_run_stage)
        workers = [ShardWorker().start() for _ in range(3)]
        try:
            cluster = make_default_cluster(
                executor="remote", workers=[w.address for w in workers],
            )
            try:
                assert cluster.run_stage(
                    _identity_kernel, [0, 1]
                ).outputs == [0, 1]
                workers[1].stop()
                workers[2].stop()
                del staged[:]
                assert cluster.run_stage(
                    _identity_kernel, [0, 1]
                ).outputs == [0, 1]
                pstats = cluster.placement_stats()
            finally:
                cluster.close()
        finally:
            for worker in workers:
                worker.stop()
        assert set(probed) == {workers[0].port, workers[2].port}
        assert workers[2].port not in staged
        assert pstats["worker_failures"] == 2
        assert pstats["healthy_workers"] == 1
        assert cluster.fallback_stages == 0

    def test_kernel_failure_contract_survives_a_death(self):
        # Worker death and a kernel failure in the same stage: the
        # lowest-index kernel exception must still surface once every
        # lower shard has resolved.
        w1 = ShardWorker().start()
        w2 = ShardWorker().start()
        try:
            cluster = make_default_cluster(
                num_executors=2, cores_per_executor=2,
                executor="remote", workers=[w1.address, w2.address],
            )
            try:
                assert cluster.run_stage(
                    _identity_kernel, [0, 1]
                ).outputs == [0, 1]
                w2.stop()
                with pytest.raises(ValueError, match="boom on shard"):
                    cluster.run_stage(
                        _boom_block_kernel, list(range(4))
                    )
                assert cluster.placement_stats()["worker_failures"] >= 1
            finally:
                cluster.close()
        finally:
            w1.stop()
            w2.stop()

    def test_a_failed_call_waits_for_the_rest_of_its_round(
            self, monkeypatch):
        # One worker's call raises something other than a death or an
        # unshippable batch while the other's is still running: run()
        # raises only once that call is back, so the next stage finds
        # no client mid-call.
        slow = _StubWorkerClient(delay=0.5)
        failing = _StubWorkerClient(error=ProtocolError("malformed reply"))
        stubs = {"failing": failing, "slow": slow}
        monkeypatch.setattr(worker_module, "ShardWorkerClient",
                            stubs.__getitem__)
        executor = RemoteExecutor(["failing", "slow"], width=2,
                                  placement=PlacementTracker())
        try:
            with pytest.raises(ProtocolError, match="malformed reply"):
                executor.run(_identity_kernel, [0, 1])
            raised = time.monotonic()
            assert slow.returned and slow.returned[0] <= raised
            records = executor.run(_identity_kernel, [0, 1, 2])
            assert [output for output, _ in records] == [0, 1, 2]
            assert slow.calls == failing.calls == 2
        finally:
            executor.close()


class _StubWorkerClient:
    """A worker client that runs batches in-process: after ``delay``
    seconds, or raising ``error`` on its first call instead."""

    healthy = True

    def __init__(self, delay=0.0, error=None):
        self.delay = delay
        self.error = error
        self.calls = 0
        self.returned = []

    def run_stage(self, request):
        self.calls += 1
        time.sleep(self.delay)
        error, self.error = self.error, None
        if error is not None:
            raise error
        reply, _ = serve_batch(request)
        self.returned.append(time.monotonic())
        return reply

    def close(self):
        pass


def _boom_block_kernel(tc, part):
    raise ValueError("boom on shard %d" % part)


def _big_output_kernel(tc, part):
    """A few bytes in, 800 KB out."""
    tc.add_records(1)
    return np.full(100_000, float(part))


def _slow_sum_kernel(tc, part):
    """Sum of the partition; slow where the partition is small."""
    if np.size(part) == 1:
        time.sleep(0.3)
    tc.add_records(1)
    return float(np.sum(part))


class TestFrameCap:
    """A frame over the cap is an unshippable *stage* — one rerun on
    the driver's threads — not a dead worker, and not a failed job."""

    CAP = 200_000

    @pytest.fixture
    def fleet(self, monkeypatch):
        # Before any decoder exists: both ends read the cap from here.
        monkeypatch.setattr(worker_module, "WORKER_MAX_FRAME_BYTES",
                            self.CAP)
        workers = [ShardWorker(local_files=False).start()
                   for _ in range(2)]
        cluster = make_default_cluster(
            num_executors=2, cores_per_executor=2, executor="remote",
            workers=[w.address for w in workers],
        )
        yield cluster, workers
        cluster.close()
        for worker in workers:
            worker.stop()

    def _assert_one_fallback_then_remote_again(self, cluster, workers):
        pstats = cluster.placement_stats()
        assert cluster.fallback_stages == 1
        assert pstats["worker_failures"] == 0
        assert pstats["healthy_workers"] == 2
        # The *next* stage crosses the wire again, on the same fleet.
        before = [w.stats()["stages"] for w in workers]
        assert cluster.run_stage(
            _identity_kernel, [1, 2, 3, 4]
        ).outputs == [1, 2, 3, 4]
        assert [w.stats()["stages"] for w in workers] == [
            n + 1 for n in before
        ]
        assert cluster.fallback_stages == 1

    def test_over_cap_reply_is_a_typed_error_on_a_live_connection(
            self, monkeypatch):
        monkeypatch.setattr(worker_module, "WORKER_MAX_FRAME_BYTES",
                            self.CAP)
        with ShardWorker() as worker:
            with ShardWorkerClient(worker.address) as client:
                with pytest.raises(FrameTooLargeError):
                    _run(client, _big_output_kernel, [(0, 3)])
                connection = client._connection
                assert client.hello()["stages"] == 1
                assert client._connection is connection  # one, kept

    def test_over_cap_reply_reruns_the_stage_locally(self, fleet):
        cluster, workers = fleet
        serial = make_default_cluster(parallelism=1)
        expected = serial.run_stage(_big_output_kernel, [1, 2, 3, 4])
        result = cluster.run_stage(_big_output_kernel, [1, 2, 3, 4])
        for ours, theirs in zip(result.outputs, expected.outputs):
            assert ours.tobytes() == theirs.tobytes()
        self._assert_one_fallback_then_remote_again(cluster, workers)

    def test_over_cap_request_reruns_the_stage_locally(self, fleet,
                                                       monkeypatch):
        cluster, workers = fleet
        in_flight = [0]
        at_fallback = []
        lock = threading.Lock()
        run_stage = ShardWorkerClient.run_stage
        run = RemoteExecutor.run

        def counting_run_stage(client, request):
            with lock:
                in_flight[0] += 1
            try:
                return run_stage(client, request)
            finally:
                with lock:
                    in_flight[0] -= 1

        def spying_run(executor, kernel, partitions):
            try:
                return run(executor, kernel, partitions)
            except StageUnshippable:
                at_fallback.append(in_flight[0])
                raise

        monkeypatch.setattr(ShardWorkerClient, "run_stage",
                            counting_run_stage)
        monkeypatch.setattr(RemoteExecutor, "run", spying_run)
        # Shard 0 (800 KB) cannot be framed, which its client finds out
        # at once; shard 1's call is still running on the other worker.
        partitions = [np.arange(100_000, dtype=np.float64), np.ones(1)]
        result = cluster.run_stage(_slow_sum_kernel, partitions)
        assert result.outputs == [float(np.sum(partitions[0])), 1.0]
        # No client was handed back to the cluster mid-call.
        assert at_fallback == [0]
        self._assert_one_fallback_then_remote_again(cluster, workers)

    def test_over_cap_block_shipment_reruns_the_stage_locally(
            self, fleet, tmp_path):
        # Kernel, partitions and outputs are tiny; what cannot cross is
        # the worker's block_fetch answer (3 000 rows x 80 B per shard).
        cluster, workers = fleet
        table = income_table(num_rows=6000, seed=3)
        path = tmp_path / "income.col"
        write_colfile(table, path, block_rows=512)
        blocks = Table.open_colfile(path).partition_blocks(2, shared=True)
        result = cluster.run_stage(_sum_kernel, blocks)
        assert result.outputs == [
            float(np.sum(table.measure[:3000])),
            float(np.sum(table.measure[3000:])),
        ]
        self._assert_one_fallback_then_remote_again(cluster, workers)
