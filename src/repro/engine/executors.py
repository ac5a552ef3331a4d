"""Stage executors: where a stage's tasks physically run.

:meth:`ClusterContext.run_stage <repro.engine.cluster.ClusterContext.run_stage>`
owns everything the bit-identity contract is made of — partition
ordering, deferred cache replay, costing, counter merges.  What it
does *not* own is where kernels execute: it asks one executor object
for ``executor.run(kernel, partitions)`` and gets back
``[(output, charges), ...]`` in partition order, every task having run
through :func:`repro.engine.task.run_task`.  An executor

- raises the exception of the *lowest-index* failing partition, after
  draining whatever else was in flight;
- raises :class:`StageUnshippable` when the stage cannot run where the
  executor runs stages (something does not pickle, no remote worker
  survives) — the cluster then reruns it on local threads, which is
  safe because kernels are pure and an aborted attempt merged nothing;
- joins, in ``close()``, every pool and connection it *started*.

:class:`SerialExecutor` and :class:`PoolExecutor` live here.  An
executor that needs a layer above the engine registers a factory under
its kind (:func:`register_executor`) — the remote one does, from the
wire layer — so the engine never imports upward.

Process workers are a :class:`ProcessPool`: ``max_workers`` forked
children, each serving its own duplex pipe and addressed by its slot.
A ``PoolExecutor`` either owns one (a cluster on its own: the children
go when the cluster closes) or is *lent* one that outlives it — the
service's engine budget keeps a single pool as wide as its cap and
every job's cluster runs on it, so children fork once per service, not
once per job, and their imports and mmap attachments stay warm from
job to job.  Either way the executor *reserves* ``width`` slots
at its first wide process stage and holds them until it closes, and a
process stage is one message per reserved child: of
``min(width, partitions)`` contiguous batches, batch ``i`` goes to the
executor's ``i``-th slot at every stage, so a kernel finds the plans it
kept where it ran (:func:`repro.engine.task.job_slot`) when the next
iteration sends it the same partitions.

A batch crosses every process boundary — a pool child's pipe, a remote
shard worker's socket — through one codec: the driver pickles it with
:func:`batch_request`, the far side runs it with :func:`serve_batch`
(:func:`repro.engine.task.run_batch`, the kernel unpickled once), and
the driver reads the reply with :func:`batch_reply`.  Whatever does not
cross, in either direction, comes back as one explicit
:data:`DID_NOT_CROSS` reply and makes the stage unshippable.
"""

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
import multiprocessing
import os
import pickle
import threading
import weakref

from repro.engine.task import run_batch, run_task

#: Supported worker-pool kinds for parallel stage execution.
EXECUTOR_THREAD = "thread"
EXECUTOR_PROCESS = "process"
EXECUTOR_REMOTE = "remote"
EXECUTORS = (EXECUTOR_THREAD, EXECUTOR_PROCESS, EXECUTOR_REMOTE)

#: kind -> factory(workers, width, placement) for executors that live
#: above the engine layer.
_registered = {}


def register_executor(kind, factory):
    """Make ``kind`` constructible by :func:`make_executor`."""
    _registered[kind] = factory


def make_executor(kind, width, placement, workers=(), lent_pool=None):
    """The executor a cluster of ``kind`` and ``width`` runs stages on.

    ``lent_pool`` is a :class:`ProcessPool` someone else owns (a budget
    grant's); a process-kind executor runs on it and leaves it running.
    """
    if kind in _registered:
        return _registered[kind](workers, width, placement)
    if width < 2:
        return SerialExecutor()
    return PoolExecutor(kind, width, lent_pool)


class StageUnshippable(Exception):
    """This stage cannot run where the executor runs stages."""


def shippable(obj):
    """``obj`` pickled for a worker, or :class:`StageUnshippable`.

    Closures and other unpicklable kernels or partition elements
    (``run_stage`` accepts arbitrary user functions and data) cannot
    cross a process boundary.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        raise StageUnshippable from None


def _collect_in_order(futures):
    """Results in submission order; abort cleanly on failure.

    On the first failing task (by partition index — the same task
    whose exception a serial loop would surface), later tasks are
    cancelled, already-running ones are drained, and the original
    exception re-raises.
    """
    results = []
    failure = None
    for index, future in enumerate(futures):
        try:
            results.append(future.result())
        except BaseException as exc:
            failure = exc
            for pending in futures[index + 1:]:
                pending.cancel()
            break
    if failure is not None:
        _wait_futures(futures)
        raise failure
    return results


# ----------------------------------------------------------------------
# The batch codec: one for every process boundary
# ----------------------------------------------------------------------

#: The reply of a batch that did not cross — a request or kernel that
#: does not load on the far side, a reply that does not dump there, an
#: exception that dumps but does not load.  No pickle is empty.
DID_NOT_CROSS = b""


def batch_request(kernel_bytes, tasks):
    """One batch for the far side: ``kernel_bytes`` (the stage's
    pickled kernel) and ``tasks``, ascending ``(index, partition)``
    pairs, as one pickle — or :class:`StageUnshippable`."""
    return shippable((kernel_bytes, list(tasks)))


def serve_batch(request):
    """The far side of a batch: ``(reply, tasks_run)``.

    Runs a :func:`batch_request` through
    :func:`repro.engine.task.run_batch`, the kernel unpickled once.
    ``reply`` pickles ``(records, failure)``, or is
    :data:`DID_NOT_CROSS` when something does not cross on this side —
    a reply, never an exception; ``tasks_run`` counts the tasks that
    finished.
    """
    try:
        kernel_bytes, tasks = pickle.loads(request)
        kernel = pickle.loads(kernel_bytes)
    except Exception:
        return DID_NOT_CROSS, 0
    records, failure = run_batch(kernel, tasks)
    try:
        reply = pickle.dumps((records, failure),
                             protocol=pickle.HIGHEST_PROTOCOL)
        if failure is not None:
            # Some exception instances dump but do not load.
            pickle.loads(pickle.dumps(failure[1]))
    except Exception:
        return DID_NOT_CROSS, len(records)
    return reply, len(records)


def batch_reply(reply):
    """The driver side of a batch: :func:`serve_batch`'s ``(records,
    failure)``, or :class:`StageUnshippable` when the batch did not
    cross — out (a :data:`DID_NOT_CROSS` reply) or back (a reply that
    does not load here)."""
    if not reply:
        raise StageUnshippable
    try:
        return pickle.loads(reply)
    except Exception:
        raise StageUnshippable from None


def _serve(conn):
    """A process child's whole life: answer each batch sent, until EOF."""
    while True:
        try:
            request = conn.recv_bytes()
        except (EOFError, OSError):
            return
        reply, _tasks_run = serve_batch(request)
        try:
            conn.send_bytes(reply)
        except OSError:  # the driver is gone
            return


# ----------------------------------------------------------------------
# Fork hygiene for child pipes
# ----------------------------------------------------------------------

#: The driver's end of every child pipe, plus a new child's own end
#: until the driver has closed its copy.  A forked process drops all of
#: them (:func:`_drop_inherited_ends`): a process holding a copy of a
#: child's driver end keeps that child from seeing EOF — closing its
#: pool would hang in ``join`` — and one holding a copy of a child's
#: own end keeps the driver from seeing that child die.
_pipe_ends = weakref.WeakSet()
#: Serialises creating, forking and closing pipe ends, so no fork of
#: ours lands between closing an end and forgetting it.
_pipe_lock = threading.Lock()
#: The one end the child this thread is forking keeps.
_forking = threading.local()


def _drop_inherited_ends():
    global _pipe_lock
    _pipe_lock = threading.Lock()
    keep = getattr(_forking, "end", None)
    for end in list(_pipe_ends):
        if end is not keep:
            try:
                end.close()
            except OSError:
                pass
    _pipe_ends.clear()


os.register_at_fork(after_in_child=_drop_inherited_ends)

_FORK = multiprocessing.get_context("fork")


class _Child:
    """One forked process child and the driver's end of its pipe."""

    def __init__(self):
        with _pipe_lock:
            end, child_end = _FORK.Pipe()
            _pipe_ends.update((end, child_end))
            _forking.end = child_end
            try:
                self.process = _FORK.Process(target=_serve,
                                             args=(child_end,), daemon=True)
                self.process.start()
            except BaseException:
                _pipe_ends.discard(end)
                end.close()
                raise
            finally:
                _forking.end = None
                _pipe_ends.discard(child_end)
                child_end.close()
        self.conn = end

    def close(self, wait, kill=False):
        """Close the driver's end (the child exits at EOF) and reap it.

        Called once per child, by whoever took it out of its slot.
        """
        with _pipe_lock:
            self.conn.close()
            _pipe_ends.discard(self.conn)
        if kill:
            self.process.terminate()
        if wait:
            self.process.join()


class ProcessPool:
    """``max_workers`` forked children, each addressed by its slot.

    An executor :meth:`reserve`\\ s slots — the lowest free ones, so a
    new job gets back the children that served the last one — and
    sends batch ``i`` of each stage to its ``i``-th (:meth:`run`).  A
    slot's child forks at the first stage sent to it and serves every
    later one over its own pipe.  A child that dies costs the stage
    that saw it (:class:`StageUnshippable`) and is replaced, alone, at
    the next stage sent to its slot (:attr:`restarts`): its siblings
    keep their pids and plans, and stages on other slots never notice.
    After :meth:`shutdown` every stage is unshippable.
    """

    def __init__(self, max_workers):
        self.max_workers = max_workers
        #: Dead children replaced so far.
        self.restarts = 0
        self._lock = threading.Lock()
        self._children = [None] * max_workers
        self._forked = [False] * max_workers
        self._reserved = [False] * max_workers
        self._closed = False

    def reserve(self, width):
        """The ``width`` lowest free slots, held until :meth:`release`.

        :class:`StageUnshippable` when the pool is shut or fewer than
        ``width`` slots are free.
        """
        with self._lock:
            free = [slot for slot, held in enumerate(self._reserved)
                    if not held]
            if self._closed or len(free) < width:
                raise StageUnshippable
            for slot in free[:width]:
                self._reserved[slot] = True
        return free[:width]

    def release(self, slots, wait=True):
        """Return reserved ``slots``; on a shut pool their children go."""
        with self._lock:
            for slot in slots:
                self._reserved[slot] = False
            gone = self._take(slots) if self._closed else []
        for child in gone:
            child.close(wait)

    def run(self, slots, requests):
        """Send ``requests[i]`` to the child in ``slots[i]``; the replies.

        Every request goes out before any reply is read, and every
        reply owed is read, so each pipe is clean for the next stage.
        Replies are :func:`serve_batch`'s, raw, in slot order.
        A child that died under the stage is discarded, and the stage
        raises :class:`StageUnshippable` once the others have answered.
        """
        with self._lock:
            gone = self._take(slots) if self._closed else None
            if gone is None:
                try:
                    for slot in slots:
                        if self._children[slot] is None:
                            self._children[slot] = _Child()
                            self.restarts += self._forked[slot]
                            self._forked[slot] = True
                except OSError:  # no fork to be had
                    raise StageUnshippable from None
                children = [self._children[slot] for slot in slots]
        if gone is not None:
            for child in gone:
                child.close(wait=False)
            raise StageUnshippable
        replies = [None] * len(children)
        try:
            sent = []
            for i, child in enumerate(children):
                try:
                    child.conn.send_bytes(requests[i])
                except OSError:  # EPIPE: the child is dead
                    continue
                sent.append(i)
            for i in sent:
                try:
                    replies[i] = children[i].conn.recv_bytes()
                except (EOFError, OSError):  # it died under the batch
                    pass
        except BaseException:
            # Interrupted with replies still owed: those pipes can no
            # longer tell this stage's reply from the next one's.
            self._discard(slots)
            raise
        dead = [slot for slot, reply in zip(slots, replies) if reply is None]
        if dead:
            self._discard(dead)
            raise StageUnshippable
        return replies

    def shutdown(self, wait=True):
        """Stop the children for good (idempotent).

        A reserved child finishes the stage it is running and goes
        when its executor releases it or sends it another stage.
        """
        with self._lock:
            self._closed = True
            gone = self._take([slot for slot, held
                               in enumerate(self._reserved) if not held])
        for child in gone:
            child.close(wait)

    def _take(self, slots):
        """Empty ``slots`` (under the lock); their children are the
        caller's to close."""
        gone = [self._children[slot] for slot in slots
                if self._children[slot] is not None]
        for slot in slots:
            self._children[slot] = None
        return gone

    def _discard(self, slots):
        with self._lock:
            gone = self._take(slots)
        for child in gone:
            child.close(wait=True, kill=True)


class SerialExecutor:
    """Tasks run one after another on the calling thread."""

    def run(self, kernel, partitions):
        return [run_task(kernel, i, part)
                for i, part in enumerate(partitions)]

    def stats(self):
        """Executor-specific entries for ``placement_stats()``."""
        return {}

    def close(self, wait=True):
        """Join every worker this executor started (idempotent)."""


class PoolExecutor(SerialExecutor):
    """``width`` thread or process workers.

    Workers start on the first stage wide enough to need them, so a
    cluster that only ever runs single-partition stages starts none.
    Process workers are ``width`` reserved slots of a
    :class:`ProcessPool` — this executor's own, or ``lent_pool``, whose
    slots it returns on :meth:`close` and which it never shuts down.
    """

    def __init__(self, kind, width, lent_pool=None):
        self._kind = kind
        self._width = width
        self._lent = kind == EXECUTOR_PROCESS and lent_pool is not None
        self._pool = lent_pool if self._lent else None
        #: This executor's process-pool slots: batch ``i`` of every
        #: stage goes to ``_slots[i]``.
        self._slots = None
        # One stage at a time on this executor's pipes.
        self._lock = threading.Lock()

    def run(self, kernel, partitions):
        if len(partitions) < 2:
            return super().run(kernel, partitions)
        if self._kind != EXECUTOR_PROCESS:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._width,
                    thread_name_prefix="repro-stage",
                )
            return _collect_in_order([
                self._pool.submit(run_task, kernel, i, part)
                for i, part in enumerate(partitions)
            ])
        kernel_bytes = shippable(kernel)
        n = len(partitions)
        w = min(self._width, n)
        bounds = [n * i // w for i in range(w + 1)]
        # Every batch pickles before any is sent: a stage that cannot
        # cross costs no child a message.
        requests = [batch_request(kernel_bytes,
                                  enumerate(partitions[start:stop], start))
                    for start, stop in zip(bounds, bounds[1:])]
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPool(self._width)
            if self._slots is None:
                self._slots = self._pool.reserve(self._width)
            replies = self._pool.run(self._slots[:w], requests)
        # Batches are contiguous and ascending and each stopped at its
        # own first failure, so the first failure met here is the
        # stage's lowest failing index — the one a serial loop raises.
        records = []
        for reply in replies:
            batch_records, failure = batch_reply(reply)
            records.extend(batch_records)
            if failure is not None:
                raise failure[1]
        return records

    def close(self, wait=True):
        with self._lock:
            slots, self._slots = self._slots, None
            pool = self._pool
            if not self._lent:
                self._pool = None
        if slots is not None:
            pool.release(slots, wait)
        if pool is not None and not self._lent:
            pool.shutdown(wait=wait)
