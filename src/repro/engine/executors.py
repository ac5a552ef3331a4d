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
- owns its pools/connections and joins them in ``close()``.

:class:`SerialExecutor` and :class:`PoolExecutor` live here.  An
executor that needs a layer above the engine registers a factory under
its kind (:func:`register_executor`) — the remote one does, from the
wire layer — so the engine never imports upward.
"""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
import pickle

from repro.engine.task import run_task

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


def make_executor(kind, width, placement, workers=()):
    """The executor a cluster of ``kind`` and ``width`` runs stages on."""
    if kind in _registered:
        return _registered[kind](workers, width, placement)
    if width < 2:
        return SerialExecutor()
    return PoolExecutor(kind, width)


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


def _run_pickled_task(kernel_bytes, index, partition):
    """Process-pool worker body: the kernel crosses pickled once per
    stage, not once per task."""
    return run_task(pickle.loads(kernel_bytes), index, partition)


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
    """``width`` thread or process workers behind one stdlib pool.

    The pool starts on the first stage wide enough to need it, so a
    cluster that only ever runs single-partition stages starts no
    worker.
    """

    def __init__(self, kind, width):
        self._kind = kind
        self._width = width
        self._pool = None

    def _submit_all(self, task, kernel, partitions):
        if self._pool is None:
            if self._kind == EXECUTOR_PROCESS:
                self._pool = ProcessPoolExecutor(max_workers=self._width)
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._width,
                    thread_name_prefix="repro-stage",
                )
        return [self._pool.submit(task, kernel, i, part)
                for i, part in enumerate(partitions)]

    def run(self, kernel, partitions):
        if len(partitions) < 2:
            return super().run(kernel, partitions)
        if self._kind != EXECUTOR_PROCESS:
            return _collect_in_order(
                self._submit_all(run_task, kernel, partitions)
            )
        kernel_bytes = shippable(kernel)
        try:
            return _collect_in_order(self._submit_all(
                _run_pickled_task, kernel_bytes, partitions
            ))
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

    def close(self, wait=True):
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            if wait:
                self._pool = None
