"""Shared-memory column blocks for the process-pool execution mode.

``ClusterContext(executor="process")`` runs partition kernels in worker
*processes*.  Shipping each partition's columns through the task pickle
would copy the table once per stage, so the driver instead copies the
data once into a POSIX shared-memory segment and kernels receive tiny
descriptors (segment name + per-array offset/dtype/shape) that reattach
to the same physical pages inside the worker.  Attachments resolve to
*read-only* NumPy views — stage kernels are pure per-partition
functions and must not write shared state.

Lifetime
--------
The creating process owns a segment: it is unlinked when the owning
:class:`SharedArrayPack` is garbage collected (``weakref.finalize``,
which also runs at interpreter exit) or when the owner calls
:meth:`SharedArrayPack.unlink` explicitly; both are idempotent, and a
forked worker inheriting the owner object never unlinks (the finalizer
checks the owning PID).  Unlinking only removes the *name* — existing
mappings, including worker attachments, stay valid until released.
Workers cache a bounded number of attachments per process so repeated
stages over the same table do not re-map it — and since a service's
pool children outlive its jobs, the cache stays warm from one job to
the next.  That is safe only because a segment name is never reused
while a cache could still hold it: names are built from the owner's
pid and a process-wide counter (:func:`_next_segment_name`), not drawn
at random, so a long-lived worker can never resolve a new segment's
name to an old, unlinked segment's pages.

File-backed tables skip shm entirely: :class:`MmapTableBlock` carries
``(path, file_key, row range)`` and workers resolve it against a
process-cached read-only mmap of the colfile itself
(:func:`attached_handle`), so the kernel reads the OS page cache —
zero copies of the table are made for the job.  ``file_key`` pins the
exact file state; a file rewritten between pickling and attachment is
refused rather than silently misread.
"""

import itertools
import os
import sys
import threading
import weakref
from collections import OrderedDict
from multiprocessing import resource_tracker
from multiprocessing import shared_memory as _shared_memory

import numpy as np

from repro.common.errors import DataError

#: Per-array alignment inside a pack, generous enough for any SIMD load.
_ALIGNMENT = 64

#: Attachments kept open per worker process; old ones are closed as new
#: segments arrive (every mined table and session makes new ones).
_ATTACHMENT_CAP = 8

_register_patch_lock = threading.Lock()

#: Segments this process has named so far.  A forked child inherits the
#: count but not the pid, so its names differ from its parent's too.
_segment_counter = itertools.count()


def _next_segment_name():
    """A segment name this process has never used: owner pid + counter.

    Whoever attaches by name (pool children, which live and die under
    one driver pid) may cache the attachment past the segment's life;
    a name that cannot recur cannot be served stale.
    """
    return "repro-%d-%d" % (os.getpid(), next(_segment_counter))


def _create_segment(size):
    while True:
        try:
            return _shared_memory.SharedMemory(
                name=_next_segment_name(), create=True, size=size
            )
        except FileExistsError:
            # Left behind by a dead process that had our pid; not ours
            # to remove, and the next name is as good.
            continue


class _AttachmentCache:
    """A bounded per-process LRU of open attachments, counting hits.

    ``opener(key)`` runs outside the lock — it maps a segment or a
    file, and raises for a key that must not be attached.  Of two
    threads racing to open one key, the loser's attachment goes to
    ``closer`` and both get the winner's; ``closer`` also takes
    whatever falls off the cold end past :data:`_ATTACHMENT_CAP`.

    Keys name a segment or a ``(path, file_key)`` file, never a shard:
    a process opens each once and every shard of it that lands there
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
        "segment_hits": _segments.hits,
        "segment_misses": _segments.misses,
        "handle_hits": _handles.hits,
        "handle_misses": _handles.misses,
        "segments_cached": len(_segments.entries),
        "handles_cached": len(_handles.entries),
    }


def _noop_register(name, rtype):
    pass


def _attach_segment(name):
    """Attach an existing segment without taking cleanup ownership.

    A plain ``SharedMemory(name=...)`` registers the segment with the
    resource tracker — shared, under fork, with the creator — so the
    attaching process would fight the creator over cleanup.  Python
    3.13 grew ``track=False`` for exactly this; older versions get the
    registration suppressed instead (unregistering *after* the fact
    would remove the creator's entry from the shared tracker).
    """
    if sys.version_info >= (3, 13):
        return _shared_memory.SharedMemory(name=name, track=False)
    with _register_patch_lock:
        original = resource_tracker.register
        resource_tracker.register = _noop_register
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _close_quietly(segment):
    try:
        segment.close()
    except BufferError:
        # Live views (:func:`_segment_view`) still pin the mapping; they
        # keep the mmap object alive and its pages are unmapped when
        # the last of them goes.  Drop our reference and close the
        # descriptor now, so the handle's own finalizer has nothing
        # left to close.
        segment._mmap = None
        segment.close()


def _segment_view(segment, offset, dtype, shape):
    """A NumPy view of ``segment``'s bytes that pins its mapping.

    ``np.frombuffer`` holds a buffer export for the view's lifetime, so
    closing the segment while the view lives raises ``BufferError``
    instead of unmapping pages the view still reads.
    ``np.ndarray(buffer=...)`` would release its export at once and
    keep only the mmap object, which ``close`` then unmaps under it.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    return np.frombuffer(
        segment.buf, dtype=dtype, count=count, offset=offset
    ).reshape(shape)


_segments = _AttachmentCache(_attach_segment, _close_quietly)


def attached_segment(name):
    """The (cached) attachment of segment ``name`` in this process."""
    return _segments.get(name)


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

#: ``resource_tracker.register`` as imported, which a fork inside
#: :func:`_attach_segment`'s patch window must get back.
_tracker_register = resource_tracker.register


def _reset_after_fork():
    """Fresh module locks in a forked child (``os.register_at_fork``).

    A process child forks from a service already running threads; a
    lock one of them held at the fork would never be released in the
    child, and the child's first attach or open would hang on it.  A
    fork inside the patch window would also leave the resource
    tracker's ``register`` patched out for the child's whole life.
    """
    global _served_lock, _register_patch_lock
    _segments._lock = threading.Lock()
    _handles._lock = threading.Lock()
    _served_lock = threading.Lock()
    _register_patch_lock = threading.Lock()
    if resource_tracker.register is _noop_register:
        resource_tracker.register = _tracker_register


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


def _unlink_segment(segment, owner_pid):
    """Finalizer: remove the segment name, in the owning process only."""
    if os.getpid() != owner_pid:
        return
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    _close_quietly(segment)


class SharedArrayPack:
    """Several aligned NumPy arrays in one shared-memory segment.

    Create with :meth:`create` (copies each source array once); the
    object pickles as a descriptor and :attr:`arrays` resolves the
    views lazily on either side.  Driver-side (owner) views are
    writable — the session updates its estimates in place and workers
    observe the new values through the same pages; worker-side views
    are read-only.
    """

    def __init__(self, name, specs):
        self.name = name
        self.specs = tuple(specs)  # (offset, dtype_str, shape) per array
        self._segment = None
        self._arrays = None
        self._owner = False
        self._finalizer = None

    @classmethod
    def create(cls, arrays):
        arrays = [np.ascontiguousarray(a) for a in arrays]
        specs = []
        offset = 0
        for a in arrays:
            offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
            specs.append((offset, a.dtype.str, a.shape))
            offset += a.nbytes
        segment = _create_segment(max(1, offset))
        views = []
        for a, (off, dtype, shape) in zip(arrays, specs):
            view = _segment_view(segment, off, dtype, shape)
            view[...] = a
            views.append(view)
        pack = cls(segment.name, specs)
        pack._segment = segment
        pack._arrays = views
        pack._owner = True
        pack._finalizer = weakref.finalize(
            pack, _unlink_segment, segment, os.getpid()
        )
        return pack

    @property
    def arrays(self):
        if self._arrays is None:
            segment = attached_segment(self.name)
            views = []
            for off, dtype, shape in self.specs:
                view = _segment_view(segment, off, dtype, shape)
                view.setflags(write=False)
                views.append(view)
            self._arrays = views
        return self._arrays

    def unlink(self):
        """Remove the segment name (owner only; idempotent)."""
        if self._finalizer is not None:
            self._finalizer()

    def __getstate__(self):
        return (self.name, self.specs)

    def __setstate__(self, state):
        self.name, self.specs = state
        self._segment = None
        self._arrays = None
        self._owner = False
        self._finalizer = None


class SharedArray:
    """One shared-memory NumPy array (a single-entry pack)."""

    def __init__(self, pack):
        self._pack = pack

    @classmethod
    def create(cls, array):
        return cls(SharedArrayPack.create([array]))

    @property
    def array(self):
        return self._pack.arrays[0]

    def unlink(self):
        self._pack.unlink()


def resolve(obj):
    """The ndarray behind ``obj`` (passthrough for plain arrays).

    Stage kernels bind session arrays through this so the same kernel
    runs on a plain array (serial/thread modes) or on a
    :class:`SharedArray` descriptor (process mode).
    """
    if isinstance(obj, SharedArray):
        return obj.array
    return obj


class SharedTableBlock:
    """Picklable :class:`~repro.data.table.TableBlock` equivalent.

    Carries the pack descriptor plus its row range; ``columns`` and
    ``measure`` materialize as zero-copy views of the shared pages on
    first access (driver or worker).  The pack's final array is the
    measure column; the rest are the dimension columns in schema order.
    """

    __slots__ = ("index", "start", "stop", "size_bytes", "_pack",
                 "_columns", "_measure")

    def __init__(self, index, pack, start, stop, size_bytes):
        self.index = index
        self.start = start
        self.stop = stop
        self.size_bytes = size_bytes
        self._pack = pack
        self._columns = None
        self._measure = None

    @property
    def num_rows(self):
        return self.stop - self.start

    @property
    def columns(self):
        if self._columns is None:
            arrays = self._pack.arrays
            self._columns = [col[self.start:self.stop]
                             for col in arrays[:-1]]
        return self._columns

    @property
    def measure(self):
        if self._measure is None:
            self._measure = self._pack.arrays[-1][self.start:self.stop]
        return self._measure

    def __getstate__(self):
        return (self.index, self.start, self.stop, self.size_bytes,
                self._pack)

    def __setstate__(self, state):
        (self.index, self.start, self.stop, self.size_bytes,
         self._pack) = state
        self._columns = None
        self._measure = None


class MmapTableBlock:
    """Picklable table block backed by an mmap of the colfile itself.

    The file-backed counterpart of :class:`SharedTableBlock`: instead of
    a shm segment name it carries ``(path, file_key)`` plus its row
    range, and ``columns`` / ``measure`` resolve through
    :func:`resolve_block_source` — normally the process-cached
    read-only mapping from :func:`attached_handle`; on a shared-nothing
    worker, a remote source that ships the needed blocks from the
    driver (:func:`block_fetcher`).  A
    partition contained in one colfile block is a pure zero-copy view;
    one spanning blocks concatenates just its own rows (the columnar
    layout interleaves per block).  Either way no whole-table copy ever
    exists — the OS page cache is the only shared storage.

    There is no segment to unlink, so no owner/finalizer machinery:
    lifetime is the file's.
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
