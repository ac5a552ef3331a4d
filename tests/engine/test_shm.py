"""Table blocks that cross a process boundary: in-RAM blocks as their
rows, file-backed blocks as mmap descriptors, the attachment cache that
resolves those, and its fork safety."""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.data.generators import SyntheticSpec, generate
from repro.data.shm import MmapTableBlock
from repro.data.table import TableBlock


def small_table(num_rows=500, seed=3):
    spec = SyntheticSpec(
        num_rows=num_rows,
        cardinalities=[5, 4, 3],
        skew=0.3,
        num_planted_rules=2,
        planted_arity=2,
        effect_scale=10.0,
        noise_scale=1.0,
        base_measure=50.0,
    )
    table, _ = generate(spec, seed=seed)
    return table


def _sum_block(block):
    """Module-level worker body: attach and aggregate a shipped block."""
    return (
        [float(col.sum()) for col in block.columns],
        float(block.measure.sum()),
        block.num_rows,
    )


class TestInRamBlocks:
    """An in-RAM table's blocks are views whether or not they are to
    cross a process boundary, and they cross as their own rows."""

    def test_shared_blocks_are_the_plain_views(self):
        table = small_table()
        plain = table.partition_blocks(4)
        shared = table.partition_blocks(4, shared=True)
        assert len(plain) == len(shared)
        for p, s in zip(plain, shared):
            assert isinstance(s, TableBlock)
            assert (p.index, p.start, p.stop, p.size_bytes) == (
                s.index, s.start, s.stop, s.size_bytes
            )
            for pc, sc in zip(p.columns, s.columns):
                assert np.array_equal(pc, sc)
            assert np.array_equal(p.measure, s.measure)

    def test_block_pickles_as_its_rows(self):
        table = small_table()
        block = table.partition_blocks(4, shared=True)[2]
        payload = pickle.dumps(block)
        # The block's own rows, not the table it views.
        assert len(payload) < table.estimated_bytes() // 2
        clone = pickle.loads(payload)
        assert clone.start == block.start and clone.stop == block.stop
        for a, b in zip(clone.columns, block.columns):
            assert np.array_equal(a, b)
        assert np.array_equal(clone.measure, block.measure)

    def test_worker_process_reads_shipped_block(self):
        table = small_table()
        blocks = table.partition_blocks(3, shared=True)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = list(pool.map(_sum_block, blocks))
        for block, (col_sums, measure_sum, num_rows) in zip(blocks, remote):
            assert col_sums == [float(c.sum()) for c in block.columns]
            assert measure_sum == pytest.approx(float(block.measure.sum()))
            assert num_rows == block.num_rows

    def test_all_blocks_together_pickle_to_about_one_table(self):
        # Each partition carries only its own rows, so shipping every
        # partition of a stage costs one table's bytes, not one per
        # partition.
        table = small_table(num_rows=2000)
        blocks = table.partition_blocks(8, shared=True)
        total = sum(len(pickle.dumps(block)) for block in blocks)
        assert total < 1.5 * table.estimated_bytes()

    def test_a_clone_is_a_copy_not_a_view_of_the_table(self):
        table = small_table()
        block = table.partition_blocks(2, shared=True)[1]
        clone = pickle.loads(pickle.dumps(block))
        clone.measure[:] = -1.0
        assert not np.array_equal(block.measure, clone.measure)
        assert np.array_equal(
            block.measure, table.measure[block.start:block.stop]
        )


def _sum_bound(values, tc, part):
    return float(values.sum())


class TestBoundArraysCrossAsBytes:
    """Arrays bound into a kernel reach a process child as bytes in the
    batch, pickled when the stage is sent."""

    def test_driver_writes_reach_the_next_process_stage(self):
        import functools

        from repro.engine.cluster import ClusterContext

        values = np.zeros(100)
        kernel = functools.partial(_sum_bound, values)
        with ClusterContext(parallelism=2, executor="process") as cluster:
            first = cluster.run_stage(kernel, range(2)).outputs
            values[:] = 1.0  # as the miner updates its estimates
            second = cluster.run_stage(kernel, range(2)).outputs
            assert cluster.fallback_stages == 0
        assert first == [0.0, 0.0]
        assert second == [100.0, 100.0]


class TestMmapTableBlocks:
    @staticmethod
    def _file_backed(tmp_path, block_rows=64):
        from repro.data.colfile import write_colfile
        from repro.data.table import Table

        table = small_table()
        path = tmp_path / "t.col"
        write_colfile(table, path, block_rows=block_rows)
        return table, Table.open_colfile(path), path

    def test_mmap_blocks_match_plain_blocks(self, tmp_path):
        plain_table, file_table, _ = self._file_backed(tmp_path)
        plain = plain_table.partition_blocks(4)
        mapped = file_table.partition_blocks(4, shared=True)
        assert len(plain) == len(mapped)
        for p, m in zip(plain, mapped):
            assert isinstance(m, MmapTableBlock)
            assert (p.index, p.start, p.stop, p.size_bytes) == (
                m.index, m.start, m.stop, m.size_bytes
            )
            for pc, mc in zip(p.columns, m.columns):
                assert np.array_equal(pc, mc)
                assert mc.dtype == np.int64
            assert np.array_equal(p.measure, m.measure)

    def test_block_pickle_roundtrip(self, tmp_path):
        _, file_table, _ = self._file_backed(tmp_path)
        block = file_table.partition_blocks(4, shared=True)[2]
        clone = pickle.loads(pickle.dumps(block))
        assert clone.start == block.start and clone.stop == block.stop
        assert clone.file_key == block.file_key
        for a, b in zip(clone.columns, block.columns):
            assert np.array_equal(a, b)
        assert np.array_equal(clone.measure, block.measure)

    def test_worker_process_reads_mmap_block(self, tmp_path):
        _, file_table, _ = self._file_backed(tmp_path)
        blocks = file_table.partition_blocks(3, shared=True)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = list(pool.map(_sum_block, blocks))
        for block, (col_sums, measure_sum, num_rows) in zip(blocks, remote):
            assert col_sums == [float(c.sum()) for c in block.columns]
            assert measure_sum == pytest.approx(float(block.measure.sum()))
            assert num_rows == block.num_rows

    def test_single_colfile_block_partition_is_zero_copy_view(self,
                                                              tmp_path):
        # One colfile block covers the whole table, so any partition of
        # it resolves to read-only views of the mapped pages.
        _, file_table, _ = self._file_backed(tmp_path, block_rows=1000)
        block = file_table.partition_blocks(4, shared=True)[1]
        assert not block.measure.flags.writeable
        assert all(not c.flags.writeable for c in block.columns)

    def test_rewritten_file_is_refused(self, tmp_path):
        from repro.common.errors import DataError
        from repro.data.colfile import write_colfile
        from repro.data import shm

        table, file_table, path = self._file_backed(tmp_path)
        block = pickle.loads(
            pickle.dumps(file_table.partition_blocks(2, shared=True)[0])
        )
        # Rewrite the file with different contents (and size).
        write_colfile(table.slice(0, 100), path, block_rows=16)
        shm._handles.entries.clear()  # fresh attachment, as in a new worker
        with pytest.raises(DataError):
            block.columns


class TestAttachmentCache:
    """The open-outside-the-lock LRU that keeps colfile handles."""

    def test_stats_count_colfile_handles_only(self, tmp_path):
        from repro.data import shm
        from repro.data.colfile import write_colfile

        path = tmp_path / "t.col"
        write_colfile(small_table(), path, block_rows=64)
        info = os.stat(path)
        key = (info.st_size, info.st_mtime_ns)
        before = shm.attachment_cache_stats()
        assert set(before) == {"handle_hits", "handle_misses",
                               "handles_cached"}
        shm.attached_handle(path, key)
        shm.attached_handle(path, key)
        after = shm.attachment_cache_stats()
        assert after["handle_misses"] == before["handle_misses"] + 1
        assert after["handle_hits"] == before["handle_hits"] + 1

    def test_loser_of_an_open_race_is_closed(self):
        import threading

        from repro.data.shm import _AttachmentCache

        barrier = threading.Barrier(2, timeout=10.0)
        closed = []

        def opener(key):
            barrier.wait()  # both threads are past the miss check
            return object()

        cache = _AttachmentCache(opener, closed.append)
        got = []
        threads = [threading.Thread(target=lambda: got.append(cache.get("k")))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert got[0] is got[1] is cache.entries["k"]
        assert len(closed) == 1 and closed[0] is not got[0]
        assert (cache.hits, cache.misses) == (0, 2)
        assert cache.get("k") is got[0]
        assert (cache.hits, cache.misses) == (1, 2)

    def test_cold_entries_are_closed_past_the_cap(self):
        from repro.data import shm

        closed = []
        cache = shm._AttachmentCache(lambda key: "open-%d" % key,
                                     closed.append)
        for key in range(shm._ATTACHMENT_CAP):
            cache.get(key)
        cache.get(0)                        # 0 is now the warmest
        cache.get(shm._ATTACHMENT_CAP)      # one past the cap
        assert closed == ["open-1"]
        assert list(cache.entries)[-2:] == [0, shm._ATTACHMENT_CAP]

    def test_refused_key_is_not_cached(self):
        from repro.data.shm import _AttachmentCache

        def opener(key):
            raise ValueError("refused")

        cache = _AttachmentCache(opener, lambda entry: None)
        for _ in range(2):
            with pytest.raises(ValueError):
                cache.get("k")
        assert (cache.hits, cache.misses, len(cache.entries)) == (0, 2, 0)


def _write_colfile(tmp_path, num_rows=500):
    """A small table and the colfile it was written to, with its
    ``(size, mtime_ns)`` file key."""
    from repro.data.colfile import write_colfile

    table = small_table(num_rows=num_rows)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "t.col"
    write_colfile(table, path, block_rows=64)
    info = os.stat(path)
    return table, str(path), (info.st_size, info.st_mtime_ns)


class _TableSource:
    """A ``read_rows`` source over an in-RAM table, as a block fetcher
    returns: it records the row ranges asked of it."""

    def __init__(self, table):
        self._block = table.partition_blocks(1)[0]
        self.reads = []

    def read_rows(self, start, stop):
        self.reads.append((start, stop))
        return ([col[start:stop] for col in self._block.columns],
                self._block.measure[start:stop])


class _RecordingFetcher:
    def __init__(self, source):
        self.source = source
        self.calls = []

    def __call__(self, path, file_key):
        self.calls.append((path, tuple(file_key)))
        return self.source


class TestServedHandles:
    """The driver's registry of live colfile handles that remote block
    fetches are served from."""

    def test_open_colfile_registers_its_handle(self, tmp_path):
        from repro.data import shm
        from repro.data.table import Table

        _, path, _ = _write_colfile(tmp_path)
        file_table = Table.open_colfile(path)
        handle = file_table._handle
        assert shm.served_handle(path, handle.file_key) is handle

    def test_unregistered_state_is_not_served(self, tmp_path):
        from repro.data import shm

        _, path, key = _write_colfile(tmp_path)
        assert shm.served_handle(path, key) is None

    def test_closed_handle_is_not_served(self, tmp_path):
        from repro.data import shm
        from repro.data.colfile import ColFileHandle

        _, path, key = _write_colfile(tmp_path)
        handle = ColFileHandle(path)
        shm.register_served_handle(handle)
        assert shm.served_handle(path, key) is handle
        handle.close()
        assert shm.served_handle(path, key) is None

    def test_deleted_file_is_served_from_the_live_map(self, tmp_path):
        from repro.common.errors import DataError
        from repro.data import shm
        from repro.data.colfile import ColFileHandle

        table, path, key = _write_colfile(tmp_path)
        handle = ColFileHandle(path)
        shm.register_served_handle(handle)
        os.remove(path)
        assert shm.served_handle(path, key) is handle
        assert shm.resolve_local_handle(path, key) is handle
        columns, measure = handle.read_rows(10, 90)
        assert np.array_equal(measure, table.measure[10:90])
        with pytest.raises((DataError, OSError)):
            shm.attached_handle(path, key)  # the path itself is gone

    def test_rewritten_file_drops_the_registration(self, tmp_path):
        from repro.data import shm
        from repro.data.colfile import ColFileHandle, write_colfile

        table, path, key = _write_colfile(tmp_path)
        handle = ColFileHandle(path)
        shm.register_served_handle(handle)
        write_colfile(table.slice(0, 100), path, block_rows=16)
        assert shm.served_handle(path, key) is None
        assert (path, key) not in shm._served_handles

    def test_registration_prunes_closed_handles(self, tmp_path):
        from repro.data import shm
        from repro.data.colfile import ColFileHandle

        _, first_path, first_key = _write_colfile(tmp_path / "a")
        _, second_path, _ = _write_colfile(tmp_path / "b")
        first = ColFileHandle(first_path)
        shm.register_served_handle(first)
        assert (first_path, first_key) in shm._served_handles
        first.close()
        shm.register_served_handle(ColFileHandle(second_path))
        assert (first_path, first_key) not in shm._served_handles


class TestResolveBlockSource:
    """The one seam file-backed blocks resolve through: local handles
    first, then the thread's block fetcher."""

    def test_without_a_fetcher_resolution_is_local(self, tmp_path):
        from repro.data import shm

        _, path, key = _write_colfile(tmp_path)
        source = shm.resolve_block_source(path, key)
        assert source is shm.attached_handle(path, key)

    def test_served_handle_wins_over_the_attachment_cache(self, tmp_path):
        from repro.data import shm
        from repro.data.colfile import ColFileHandle

        _, path, key = _write_colfile(tmp_path)
        handle = ColFileHandle(path)
        shm.register_served_handle(handle)
        before = shm.attachment_cache_stats()
        assert shm.resolve_block_source(path, key) is handle
        assert shm.attachment_cache_stats() == before

    def test_refused_file_without_a_fetcher_raises(self, tmp_path):
        from repro.common.errors import DataError
        from repro.data import shm

        _, path, (size, mtime) = _write_colfile(tmp_path)
        with pytest.raises(DataError, match="changed on disk"):
            shm.resolve_block_source(path, (size, mtime + 1))

    def test_fetcher_is_not_asked_while_local_files_resolve(self,
                                                             tmp_path):
        from repro.data import shm

        table, path, key = _write_colfile(tmp_path)
        fetch = _RecordingFetcher(_TableSource(table))
        with shm.block_fetcher(fetch):
            source = shm.resolve_block_source(path, key)
        assert source is shm.attached_handle(path, key)
        assert fetch.calls == []

    def test_fetcher_takes_over_a_refused_local_file(self, tmp_path):
        from repro.data import shm

        table, path, (size, mtime) = _write_colfile(tmp_path)
        fetch = _RecordingFetcher(_TableSource(table))
        stale = (size, mtime + 1)
        with shm.block_fetcher(fetch):
            assert shm.resolve_block_source(path, stale) is fetch.source
        assert fetch.calls == [(path, stale)]

    def test_without_local_files_the_fetcher_is_always_asked(self,
                                                              tmp_path):
        from repro.data import shm

        table, path, key = _write_colfile(tmp_path)
        fetch = _RecordingFetcher(_TableSource(table))
        before = shm.attachment_cache_stats()
        with shm.block_fetcher(fetch, local_files=False):
            assert shm.resolve_block_source(path, key) is fetch.source
        assert fetch.calls == [(path, key)]
        # The file on this disk was not even opened.
        assert shm.attachment_cache_stats() == before

    def test_nested_fetchers_restore_the_outer_one(self, tmp_path):
        from repro.common.errors import DataError
        from repro.data import shm

        table, path, (size, mtime) = _write_colfile(tmp_path)
        stale = (size, mtime + 1)
        outer = _RecordingFetcher(_TableSource(table))
        inner = _RecordingFetcher(_TableSource(table))
        with shm.block_fetcher(outer):
            with pytest.raises(RuntimeError):
                with shm.block_fetcher(inner, local_files=False):
                    assert shm.resolve_block_source(path, stale) is (
                        inner.source)
                    raise RuntimeError("stage failed")
            assert shm.resolve_block_source(path, stale) is outer.source
        with pytest.raises(DataError):
            shm.resolve_block_source(path, stale)
        assert len(outer.calls) == len(inner.calls) == 1

    def test_fetcher_is_installed_for_its_thread_only(self, tmp_path):
        import threading

        from repro.common.errors import DataError
        from repro.data import shm

        table, path, (size, mtime) = _write_colfile(tmp_path)
        fetch = _RecordingFetcher(_TableSource(table))
        raised = []

        def other_thread():
            try:
                shm.resolve_block_source(path, (size, mtime + 1))
            except DataError:
                raised.append(True)

        with shm.block_fetcher(fetch):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(10.0)
        assert raised == [True]
        assert fetch.calls == []

    def test_mmap_block_reads_its_rows_through_the_fetcher(self, tmp_path):
        from repro.data import shm

        table, path, key = _write_colfile(tmp_path)
        fetch = _RecordingFetcher(_TableSource(table))
        block = MmapTableBlock(1, path, key, 100, 250, size_bytes=0)
        with shm.block_fetcher(fetch, local_files=False):
            columns, measure = block.columns, block.measure
        assert fetch.source.reads == [(100, 250)]  # resolved once
        assert np.array_equal(measure, table.measure[100:250])
        plain = table.partition_blocks(1)[0]
        for col, expected in zip(columns, plain.columns):
            assert np.array_equal(col, expected[100:250])


def _through_every_shm_lock(path, file_key, tc, part):
    """A file open and a served-handle lookup: every module lock of
    ``repro.data.shm`` a process child takes."""
    from repro.data import shm

    handle = shm.attached_handle(path, file_key)
    shm.served_handle(path, file_key)
    return handle.num_rows


class TestForkHazard:
    """A process child forked while a driver thread holds one of
    ``repro.data.shm``'s module locks starts with the lock free."""

    @pytest.mark.parametrize("name", ["_handles", "_served_lock"])
    def test_the_first_stage_completes(self, name, tmp_path):
        import functools
        import threading

        from repro.data import shm
        from repro.data.colfile import write_colfile
        from repro.engine.cluster import ClusterContext

        table = small_table()
        path = tmp_path / "t.col"
        write_colfile(table, path, block_rows=64)
        info = os.stat(path)
        lock = getattr(shm, name)
        lock = getattr(lock, "_lock", lock)
        holding, release = threading.Event(), threading.Event()

        def hold():
            with lock:
                holding.set()
                release.wait(60.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert holding.wait(10.0)
        cluster = ClusterContext(parallelism=2, executor="process")
        kernel = functools.partial(_through_every_shm_lock, str(path),
                                   (info.st_size, info.st_mtime_ns))
        outputs = []
        stage = threading.Thread(target=lambda: outputs.extend(
            cluster.run_stage(kernel, range(4)).outputs
        ))
        try:
            stage.start()  # the pool forks its children now
            stage.join(30.0)
            finished = not stage.is_alive()
        finally:
            release.set()
            holder.join(10.0)
            if finished:  # closing a hung pool would hang the test too
                cluster.close()
        assert finished, "the first process stage hung on %s" % name
        assert cluster.fallback_stages == 0
        assert outputs == [len(table)] * 4
