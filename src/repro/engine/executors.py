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

Process workers are a :class:`ProcessPool`: the one place a stdlib
process pool is built, started by the first stage that needs it and
replaced, once, when a child dies.  A ``PoolExecutor`` either owns one
(a cluster on its own: the workers go when the cluster closes) or is
*lent* one that outlives it — the service's engine budget keeps a
single pool as wide as its cap and every job's cluster runs on it, so
children fork once per service, not once per job, and their imports
and shm / mmap attachments stay warm from job to job.  Either way a
process stage is one message per worker: ``min(width, partitions)``
contiguous batches, each run by :func:`repro.engine.task.run_batch`
with the kernel unpickled once — the shape the remote executor's
``run_stage`` call already has.  A job never has more than ``width``
batches in flight, which is what keeps a shared pool within the
budget's grants.
"""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
import pickle
import threading

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


def is_pickling_error(exc):
    """True when ``exc`` reports a pickling failure.

    Submission-side failures (unpicklable partition data) and
    worker-side result failures (unpicklable task output) both surface
    through the task's future as one of these, letting an executor
    distinguish "this stage cannot cross a process boundary" from a
    genuine kernel error.
    """
    if isinstance(exc, pickle.PicklingError):
        return True
    return (isinstance(exc, (TypeError, AttributeError))
            and "pickle" in str(exc).lower())


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


def _run_pickled_batch(kernel_bytes, start, partitions):
    """Process-pool worker body: partitions ``start...`` of one stage.

    The kernel crosses pickled once per stage and is unpickled once
    per batch.  A failure comes back as a value, so an exception that
    would not survive the trip is found here — one that dumps but does
    not load would otherwise break the pool's result reader, and with
    it every job sharing the pool.
    """
    records, failure = run_batch(pickle.loads(kernel_bytes),
                                 enumerate(partitions, start))
    if failure is not None:
        try:
            pickle.loads(pickle.dumps(failure))
        except BaseException:
            raise pickle.PicklingError(
                "task %d raised an exception that does not pickle: %r"
                % failure
            ) from None
    return records, failure


class ProcessPool:
    """One stdlib process pool, and its replacement when a child dies.

    The pool starts on the first :meth:`run` (under the fork start
    method the stdlib forks all ``max_workers`` children then).  A
    child that dies breaks a stdlib pool for good, so the broken
    instance is retired — exactly once, however many stages report it
    — and the next stage starts a fresh one; the stages that saw it
    break are unshippable.  After :meth:`shutdown` every stage is.
    """

    def __init__(self, max_workers):
        self.max_workers = max_workers
        #: Broken pools replaced so far.
        self.restarts = 0
        self._lock = threading.Lock()
        self._pool = None
        self._closed = False

    def run(self, fn, calls):
        """``[fn(*args) for args in calls]``, on the children.

        Raises as :func:`_collect_in_order` does, and
        :class:`StageUnshippable` when there is no pool to run on.
        """
        try:
            # Submitting under the lock keeps a concurrent shutdown or
            # retirement from landing between "which pool" and "submit".
            with self._lock:
                if self._closed:
                    raise StageUnshippable
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers
                    )
                pool = self._pool
                futures = [pool.submit(fn, *args) for args in calls]
            return _collect_in_order(futures)
        except BrokenProcessPool:
            # A child died — under these calls, or earlier while the
            # pool sat idle (then ``submit`` is what raises).
            with self._lock:
                if self._pool is pool:
                    self._pool = None
                    self.restarts += 1
                    # The stdlib has already terminated a broken pool's
                    # children; this only lets its manager thread finish.
                    pool.shutdown(wait=False)
            raise StageUnshippable from None

    def shutdown(self, wait=True):
        """Stop the children for good (idempotent).

        With ``wait`` false, batches already submitted still finish
        and the children exit after them.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


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
    Process workers are a :class:`ProcessPool` — this executor's own,
    or ``lent_pool``, which it uses ``width`` children of at a time
    and never shuts down.
    """

    def __init__(self, kind, width, lent_pool=None):
        self._kind = kind
        self._width = width
        self._lent = kind == EXECUTOR_PROCESS and lent_pool is not None
        self._pool = lent_pool if self._lent else None

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
        if self._pool is None:
            self._pool = ProcessPool(self._width)
        n = len(partitions)
        w = min(self._width, n)
        bounds = [n * i // w for i in range(w + 1)]
        try:
            batches = self._pool.run(_run_pickled_batch, [
                (kernel_bytes, start, partitions[start:stop])
                for start, stop in zip(bounds, bounds[1:])
            ])
        except BaseException as exc:
            if not is_pickling_error(exc):
                raise
            # The kernel pickled but something else did not cross the
            # boundary: unpicklable partition elements at submission,
            # an unpicklable task output on the way back — or a kernel
            # that raised an exception whose *instance* does not
            # pickle (worker exception transport reports all of these
            # as pickling failures).  In the last case the thread
            # rerun costs a second run but surfaces the kernel's real
            # exception instead of a transport PicklingError.
            raise StageUnshippable from exc
        # Batches are contiguous and ascending and each stopped at its
        # own first failure, so the first failure met here is the
        # stage's lowest failing index — the one a serial loop raises.
        records = []
        for batch_records, failure in batches:
            records.extend(batch_records)
            if failure is not None:
                raise failure[1]
        return records

    def close(self, wait=True):
        if self._lent:
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
