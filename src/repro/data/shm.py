"""Picklable file-backed table blocks and the caches that resolve them.

An in-RAM table's partitions cross a process boundary as their own
rows, pickled into the stage batch like every other in-RAM array (the
session's measure and estimates, candidate keys).  File-backed tables
cross as descriptors instead: a :class:`MmapTableBlock` carries
``(path, file_key, row range)`` and the receiving process resolves it
against a process-cached read-only mmap of the colfile itself
(:func:`attached_handle`), so the kernel reads the OS page cache and no
copy of the table is made for the job.  ``file_key`` pins the exact
file state; a file rewritten between pickling and attachment is refused
rather than silently misread.

A shard worker that cannot open the file resolves the same descriptor
through a remote source installed around its stage
(:func:`block_fetcher`), which ships the needed blocks from the
driver's live handles (:func:`register_served_handle`).
"""

import os
import threading
import weakref
from collections import OrderedDict

from repro.common.errors import DataError

#: Files kept open per process; old ones are closed as new file states
#: arrive (a rewritten file is a new state).
_ATTACHMENT_CAP = 8


class _AttachmentCache:
    """A bounded per-process LRU of open attachments, counting hits.

    ``opener(key)`` runs outside the lock — it maps a file, and raises
    for a key that must not be attached.  Of two threads racing to open
    one key, the loser's attachment goes to ``closer`` and both get the
    winner's; ``closer`` also takes whatever falls off the cold end past
    :data:`_ATTACHMENT_CAP`.

    Keys name a ``(path, file_key)`` file state, never a shard: a
    process opens each once and every shard of it that lands there
    afterwards is a hit, whichever worker ran it before.  The hit/miss
    counters live in whichever process resolves the block — the driver
    for serial and thread stages, each pool worker for process stages.
    """

    def __init__(self, opener, closer):
        self._open = opener
        self._close = closer
        self._lock = threading.Lock()
        self.entries = OrderedDict()  # key -> attachment, LRU order
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        entry = self._open(key)
        with self._lock:
            racing = self.entries.get(key)
            if racing is not None:
                self._close(entry)
                return racing
            self.entries[key] = entry
            while len(self.entries) > _ATTACHMENT_CAP:
                _, stale = self.entries.popitem(last=False)
                self._close(stale)
            return entry


def attachment_cache_stats():
    """This process's attachment-cache counters, one dict."""
    return {
        "handle_hits": _handles.hits,
        "handle_misses": _handles.misses,
        "handles_cached": len(_handles.entries),
    }


def _open_verified_handle(key):
    from repro.data.colfile import ColFileHandle  # colfile imports table imports us

    path, file_key = key
    handle = ColFileHandle(path)
    if tuple(handle.file_key) != file_key:
        handle.close()
        raise DataError(
            "columnar file %s changed on disk since the block was "
            "created (size/mtime mismatch)" % path
        )
    return handle


_handles = _AttachmentCache(_open_verified_handle,
                            lambda handle: handle.close())


def attached_handle(path, file_key):
    """The (cached) :class:`~repro.data.colfile.ColFileHandle` for the
    file state ``(path, file_key)`` in this process.

    Opens and verifies the file on first use; subsequent blocks of the
    same file reuse the mapping.  Evicted cache entries are closed only
    if no live views reference them (``ColFileHandle.close`` keeps the
    map alive otherwise).
    """
    return _handles.get((str(path), tuple(file_key)))


# ----------------------------------------------------------------------
# Served handles and remote block fetch
# ----------------------------------------------------------------------

#: Live handles the *driver* volunteers for serving remote block
#: fetches.  Unlike the attachment cache these are borrowed, never
#: owned: registration keeps a weak reference, so a closed or collected
#: handle simply disappears.  The registry is what keeps block shipping
#: working after the colfile is deleted or renamed — the driver's mmap
#: outlives the directory entry, so ``block_fetch`` can still be served
#: from it even though ``attached_handle`` could no longer open the
#: path (the basis of the no-shared-disk contract).
_served_handles = {}  # (path, file_key) -> weakref to ColFileHandle
_served_lock = threading.Lock()

#: Per-thread remote block fetcher, installed by a shard worker around
#: each ``run_stage`` batch (:func:`block_fetcher`).  ``None`` outside
#: a worker stage: resolution is purely local.
_block_fetcher = threading.local()


def _reset_after_fork():
    """Fresh module locks in a forked child (``os.register_at_fork``).

    A process child forks from a service already running threads; a
    lock one of them held at the fork would never be released in the
    child, and the child's first open would hang on it.
    """
    global _served_lock
    _handles._lock = threading.Lock()
    _served_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_after_fork)


def register_served_handle(handle):
    """Volunteer a live :class:`~repro.data.colfile.ColFileHandle` for
    serving remote block fetches (weakly referenced; idempotent)."""
    key = (str(handle.path), tuple(handle.file_key))
    with _served_lock:
        _served_handles[key] = weakref.ref(handle)
        # Drop entries whose handles have been collected or closed —
        # registration is the only growth point, so this keeps the
        # registry proportional to live handles.
        for k in list(_served_handles):
            live = _served_handles[k]()
            if live is None or live.closed:
                del _served_handles[k]


def served_handle(path, file_key):
    """The registered live handle for ``(path, file_key)``, or None.

    Safe to serve only while the mapped inode still holds the
    registered state: a *deleted* (or renamed-over) file keeps its old
    inode alive under the mmap, but an **in-place rewrite** truncates
    the very pages the handle maps — touching them would fault.  So a
    path that still exists must also still match ``file_key``;
    otherwise the stale registration is dropped and resolution falls
    through to :func:`attached_handle`, which refuses the mismatched
    state with a typed :class:`~repro.common.errors.DataError`.
    """
    key = (str(path), tuple(file_key))
    with _served_lock:
        ref = _served_handles.get(key)
    if ref is None:
        return None
    handle = ref()
    if handle is None or handle.closed:
        return None
    try:
        stat = os.stat(path)
    except OSError:
        return handle  # file gone: the live mmap is the only copy
    if (stat.st_size, stat.st_mtime_ns) != tuple(file_key):
        with _served_lock:
            if _served_handles.get(key) is ref:
                del _served_handles[key]
        return None
    return handle


class block_fetcher:
    """Context manager installing a remote block fetcher on this thread.

    ``fetcher(path, file_key)`` must return a ``read_rows``-capable
    source for that file state (a shard worker installs one that ships
    blocks from the driver, see
    :class:`~repro.net.worker.RemoteColFile`).  With ``local_files``
    False, local resolution is skipped entirely — the no-shared-disk
    configuration, where even a same-named file on the worker's own
    disk must not be trusted.
    """

    def __init__(self, fetcher, local_files=True):
        self._fetcher = fetcher
        self._local_files = local_files
        self._previous = None

    def __enter__(self):
        self._previous = (
            getattr(_block_fetcher, "fetcher", None),
            getattr(_block_fetcher, "local_files", True),
        )
        _block_fetcher.fetcher = self._fetcher
        _block_fetcher.local_files = self._local_files
        return self

    def __exit__(self, *exc_info):
        _block_fetcher.fetcher, _block_fetcher.local_files = self._previous


def resolve_local_handle(path, file_key):
    """A local ``read_rows`` source for ``(path, file_key)``.

    Registered live handles win (they survive file deletion); the
    process attachment cache opens the file otherwise.  This is the
    resolution the driver serves ``block_fetch`` requests with.
    """
    handle = served_handle(path, file_key)
    if handle is not None:
        return handle
    return attached_handle(path, file_key)


def resolve_block_source(path, file_key):
    """A ``read_rows`` source for ``(path, file_key)``, local or remote.

    Local resolution (:func:`resolve_local_handle`) applies first; when
    it fails — or is disabled — and the thread has a block fetcher
    installed, the fetcher supplies a remote source instead.  This is
    the one seam :class:`MmapTableBlock` resolves through, so the same
    pickled descriptor works on the driver, on a shared-disk worker and
    on a shared-nothing worker.
    """
    fetcher = getattr(_block_fetcher, "fetcher", None)
    local_files = getattr(_block_fetcher, "local_files", True)
    if local_files or fetcher is None:
        try:
            return resolve_local_handle(path, file_key)
        except DataError:
            if fetcher is None:
                raise
    return fetcher(path, file_key)


class MmapTableBlock:
    """Picklable table block backed by an mmap of the colfile itself.

    Carries ``(path, file_key)`` plus its row range, and ``columns`` /
    ``measure`` resolve through
    :func:`resolve_block_source` — normally the process-cached
    read-only mapping from :func:`attached_handle`; on a shared-nothing
    worker, a remote source that ships the needed blocks from the
    driver (:func:`block_fetcher`).  A
    partition contained in one colfile block is a pure zero-copy view;
    one spanning blocks concatenates just its own rows (the columnar
    layout interleaves per block).  Either way no whole-table copy ever
    exists — the OS page cache is the only shared storage.

    Nothing to release: lifetime is the file's.
    """

    __slots__ = ("index", "start", "stop", "size_bytes", "path",
                 "file_key", "_columns", "_measure")

    def __init__(self, index, path, file_key, start, stop, size_bytes):
        self.index = index
        self.start = start
        self.stop = stop
        self.size_bytes = size_bytes
        self.path = str(path)
        self.file_key = tuple(file_key)
        self._columns = None
        self._measure = None

    @property
    def num_rows(self):
        return self.stop - self.start

    def _resolve(self):
        source = resolve_block_source(self.path, self.file_key)
        self._columns, self._measure = source.read_rows(self.start, self.stop)

    @property
    def columns(self):
        if self._columns is None:
            self._resolve()
        return self._columns

    @property
    def measure(self):
        if self._measure is None:
            self._resolve()
        return self._measure

    def __getstate__(self):
        return (self.index, self.start, self.stop, self.size_bytes,
                self.path, self.file_key)

    def __setstate__(self, state):
        (self.index, self.start, self.stop, self.size_bytes,
         self.path, self.file_key) = state
        self._columns = None
        self._measure = None
