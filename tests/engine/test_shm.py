"""Shared-memory column blocks: round-trips, lifetime, worker access."""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.data.generators import SyntheticSpec, generate
from repro.data.shm import (
    MmapTableBlock,
    SharedArray,
    SharedArrayPack,
    SharedTableBlock,
    resolve,
)


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


def _sum_shared_array(shared):
    return float(resolve(shared).sum())


class TestSharedArrayPack:
    def test_roundtrip_values(self):
        a = np.arange(10, dtype=np.int64)
        b = np.linspace(0.0, 1.0, 7)
        pack = SharedArrayPack.create([a, b])
        try:
            out_a, out_b = pack.arrays
            assert np.array_equal(out_a, a)
            assert np.array_equal(out_b, b)
        finally:
            pack.unlink()

    def test_pickled_copy_resolves_read_only(self):
        a = np.arange(20, dtype=np.float64)
        pack = SharedArrayPack.create([a])
        try:
            clone = pickle.loads(pickle.dumps(pack))
            view = clone.arrays[0]
            assert np.array_equal(view, a)
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 99.0
        finally:
            pack.unlink()

    def test_owner_writes_are_visible_through_attachments(self):
        pack = SharedArrayPack.create([np.zeros(4)])
        try:
            clone = pickle.loads(pickle.dumps(pack))
            view = clone.arrays[0]
            pack.arrays[0][:] = 7.0
            assert np.array_equal(view, np.full(4, 7.0))
        finally:
            pack.unlink()

    def test_unlink_is_idempotent(self):
        pack = SharedArrayPack.create([np.ones(3)])
        pack.unlink()
        pack.unlink()

    def test_attach_after_unlink_fails(self):
        pack = SharedArrayPack.create([np.ones(3)])
        clone = pickle.loads(pickle.dumps(pack))
        pack.unlink()
        with pytest.raises(FileNotFoundError):
            clone.arrays  # the segment name is gone

    @pytest.mark.parametrize("script", [
        # The owner pack is collected while a view of it lives: its
        # finalizer unlinks and closes the segment.
        "pack = SharedArrayPack.create([np.arange(100000)])\n"
        "view = pack.arrays[0]\n"
        "del pack\n"
        "gc.collect()\n"
        "print(int(view.sum()))\n",
        # An attachment is evicted past the cache cap while a view of it
        # lives, and later segments are mapped after it.
        "owners = [SharedArrayPack.create([np.arange(100000) * (i + 1)])\n"
        "          for i in range(_ATTACHMENT_CAP + 4)]\n"
        "clones = [pickle.loads(pickle.dumps(p)) for p in owners]\n"
        "view = clones[0].arrays[0]\n"
        "for clone in clones[1:]:\n"
        "    clone.arrays\n"
        "print(int(view.sum()))\n",
    ], ids=["collected-owner", "evicted-attachment"])
    def test_views_outlive_a_closed_segment(self, script):
        # Closing a segment must not unmap pages a live view reads: the
        # old views read freed memory (a crash, or another segment's
        # bytes once the address was reused).  Run in a child so a
        # regression fails this test instead of killing the suite.
        import subprocess
        import sys

        import repro

        prelude = ("import gc, pickle\n"
                   "import numpy as np\n"
                   "from repro.data.shm import SharedArrayPack, "
                   "_ATTACHMENT_CAP\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", prelude + script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "4999950000"
        assert done.stderr == ""


class TestSegmentNames:
    """A worker that outlives jobs caches attachments by segment name,
    so a name must never come back for a different segment."""

    def test_names_never_recur_and_embed_the_owner_pid(self):
        import os

        names = set()
        for _ in range(10_000):
            pack = SharedArrayPack.create([np.zeros(1)])
            names.add(pack.name)
            pack.unlink()
        assert len(names) == 10_000
        prefix = "repro-%d-" % os.getpid()
        assert all(name.startswith(prefix) for name in names)

    def test_cached_attachment_cannot_be_served_for_a_new_segment(self):
        from repro.data import shm

        old = SharedArrayPack.create([np.full(4, 1.0)])
        stale = pickle.loads(pickle.dumps(old))
        assert stale.arrays[0][0] == 1.0  # now in the attachment cache
        old.unlink()
        assert old.name in shm._segments.entries
        new = SharedArrayPack.create([np.full(4, 2.0)])
        try:
            assert new.name != old.name
            fresh = pickle.loads(pickle.dumps(new))
            assert fresh.arrays[0][0] == 2.0
        finally:
            new.unlink()

    def test_name_left_by_a_dead_process_is_skipped(self, monkeypatch):
        import itertools
        import os
        from multiprocessing import shared_memory

        from repro.data import shm

        monkeypatch.setattr(shm, "_segment_counter", itertools.count(10**9))
        squatter = shared_memory.SharedMemory(
            name="repro-%d-%d" % (os.getpid(), 10**9), create=True, size=8
        )
        try:
            pack = SharedArrayPack.create([np.arange(3)])
            try:
                assert pack.name == "repro-%d-%d" % (os.getpid(), 10**9 + 1)
                assert np.array_equal(pack.arrays[0], np.arange(3))
            finally:
                pack.unlink()
        finally:
            squatter.close()
            squatter.unlink()


class TestSharedArray:
    def test_resolve_passthrough(self):
        plain = np.arange(5)
        assert resolve(plain) is plain
        shared = SharedArray.create(plain)
        try:
            assert np.array_equal(resolve(shared), plain)
        finally:
            shared.unlink()


class TestSharedTableBlocks:
    def test_shared_blocks_match_plain_blocks(self):
        table = small_table()
        plain = table.partition_blocks(4)
        shared = table.partition_blocks(4, shared=True)
        assert len(plain) == len(shared)
        for p, s in zip(plain, shared):
            assert isinstance(s, SharedTableBlock)
            assert (p.index, p.start, p.stop, p.size_bytes) == (
                s.index, s.start, s.stop, s.size_bytes
            )
            assert p.num_rows == s.num_rows
            for pc, sc in zip(p.columns, s.columns):
                assert np.array_equal(pc, sc)
            assert np.array_equal(p.measure, s.measure)

    def test_shared_pack_is_reused_per_table(self):
        table = small_table()
        first = table.partition_blocks(2, shared=True)
        second = table.partition_blocks(3, shared=True)
        assert first[0]._pack is second[0]._pack

    def test_block_pickle_roundtrip(self):
        table = small_table()
        block = table.partition_blocks(4, shared=True)[2]
        clone = pickle.loads(pickle.dumps(block))
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

    def test_worker_process_reads_shared_array(self):
        shared = SharedArray.create(np.arange(100, dtype=np.float64))
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                total = pool.submit(_sum_shared_array, shared).result()
            assert total == pytest.approx(4950.0)
        finally:
            shared.unlink()


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
    """The one open-outside-the-lock LRU both attachment caches use."""

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


def _through_every_shm_lock(pack, path, file_key, tc, part):
    """A segment attach (and, before 3.13, its tracker patch window), a
    file open and a served-handle lookup: every module lock of
    ``repro.data.shm`` a process child takes."""
    from multiprocessing import resource_tracker

    from repro.data import shm

    total = float(pack.arrays[0].sum())
    shm.attached_handle(path, file_key)
    shm.served_handle(path, file_key)
    return total, resource_tracker.register is not shm._noop_register


class TestForkHazard:
    """A process child forked while a driver thread holds one of
    ``repro.data.shm``'s module locks starts with the lock free."""

    @pytest.mark.parametrize("name", [
        "_segments", "_handles", "_served_lock", "_register_patch_lock",
    ])
    def test_the_first_stage_completes(self, name, tmp_path):
        import functools
        import os
        import threading
        from multiprocessing import resource_tracker

        from repro.data import shm
        from repro.data.colfile import write_colfile
        from repro.engine.cluster import ClusterContext

        path = tmp_path / "t.col"
        write_colfile(small_table(), path, block_rows=64)
        info = os.stat(path)
        pack = SharedArrayPack.create([np.arange(100, dtype=np.float64)])
        lock = getattr(shm, name)
        lock = getattr(lock, "_lock", lock)
        holding, release = threading.Event(), threading.Event()

        def hold():
            with lock:
                original = resource_tracker.register
                if lock is shm._register_patch_lock:
                    # Inside the patch window, as an attach would be.
                    resource_tracker.register = shm._noop_register
                holding.set()
                release.wait(60.0)
                resource_tracker.register = original

        holder = threading.Thread(target=hold)
        holder.start()
        assert holding.wait(10.0)
        cluster = ClusterContext(parallelism=2, executor="process")
        kernel = functools.partial(_through_every_shm_lock, pack, str(path),
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
            pack.unlink()
        assert finished, "the first process stage hung on %s" % name
        assert cluster.fallback_stages == 0
        assert outputs == [(4950.0, True)] * 4
