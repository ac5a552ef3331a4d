"""Job primitives shared by the scheduler and the service façade.

A :class:`Job` is one unit of admitted work: a thunk plus its priority,
optional deadline and completion state.  Exactly one :class:`Job`
exists per *distinct* in-flight request — coalesced duplicates receive
extra :class:`JobHandle` views onto the same job, so they share its
result (or exception) without re-executing anything.

A job announces its own completion (:meth:`Job.add_done_callback`):
the service publishes to its cache and the network front door notifies
its clients from the same mechanism — nothing polls a job.

Timing fields are monotonic-clock stamps; :class:`JobMetrics` turns
them into the queue-wait / run-time numbers the service aggregates into
its :class:`~repro.common.metrics.MetricsRegistry`.
"""

import itertools
import logging
import threading
import time

from repro.common.errors import DeadlineExceededError, ResultTimeoutError

#: Admission priorities: smaller numbers are scheduled first.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 10
PRIORITY_LOW = 20

_job_ids = itertools.count(1)


class JobMetrics:
    """Per-job timing and provenance, derived from a finished job."""

    __slots__ = (
        "job_id", "label", "priority", "queue_wait_seconds",
        "run_seconds", "cache_hit", "coalesced",
        "requested_parallelism", "granted_parallelism",
        "budget_wait_seconds",
    )

    def __init__(self, job_id, label, priority, queue_wait_seconds,
                 run_seconds, cache_hit, coalesced,
                 requested_parallelism=None, granted_parallelism=None,
                 budget_wait_seconds=None):
        self.job_id = job_id
        self.label = label
        self.priority = priority
        self.queue_wait_seconds = queue_wait_seconds
        self.run_seconds = run_seconds
        self.cache_hit = cache_hit
        self.coalesced = coalesced
        #: Engine-worker degree the job asked the budget for, what it
        #: was actually granted, and how long it waited for the grant.
        #: All None when the job built no cluster (SQL jobs, cache
        #: hits).
        self.requested_parallelism = requested_parallelism
        self.granted_parallelism = granted_parallelism
        self.budget_wait_seconds = budget_wait_seconds

    def snapshot(self):
        return {
            "job_id": self.job_id,
            "label": self.label,
            "priority": self.priority,
            "queue_wait_seconds": self.queue_wait_seconds,
            "run_seconds": self.run_seconds,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "requested_parallelism": self.requested_parallelism,
            "granted_parallelism": self.granted_parallelism,
            "budget_wait_seconds": self.budget_wait_seconds,
        }

    def __repr__(self):
        return (
            "JobMetrics(job=%d, wait=%.4fs, run=%.4fs, cache_hit=%s, "
            "coalesced=%s)" % (
                self.job_id, self.queue_wait_seconds, self.run_seconds,
                self.cache_hit, self.coalesced,
            )
        )


class Job:
    """One admitted unit of work with its completion state.

    ``deadline_seconds`` is a start deadline: if the job is still
    queued when it expires, the scheduler fails it with
    :class:`~repro.common.errors.DeadlineExceededError` instead of
    running it.
    """

    __slots__ = (
        "job_id", "fn", "label", "priority", "deadline",
        "submitted_at", "started_at", "finished_at",
        "result", "exception", "budget_info",
        "_event", "_done_lock", "_callbacks",
    )

    def __init__(self, fn, label="job", priority=PRIORITY_NORMAL,
                 deadline_seconds=None):
        self.job_id = next(_job_ids)
        self.fn = fn
        self.label = label
        self.priority = priority
        self.submitted_at = time.monotonic()
        self.deadline = (
            None if deadline_seconds is None
            else self.submitted_at + deadline_seconds
        )
        self.started_at = None
        self.finished_at = None
        self.result = None
        self.exception = None
        #: Filled by the runner when the job acquires an engine-worker
        #: budget grant: requested/granted degree and wait seconds.
        self.budget_info = {}
        self._event = threading.Event()
        self._done_lock = threading.Lock()
        #: Done callbacks; None once the job has completed.
        self._callbacks = []

    # -- completion ----------------------------------------------------
    #
    # Completion is once-only: a job may be failed concurrently by a
    # deadline watcher while a worker finishes it (or vice versa); the
    # first completion wins and later attempts are ignored, so every
    # done callback fires exactly once and waiters observe one
    # consistent outcome.

    def finish(self, result):
        """Record success; returns False if the job was already done."""
        return self._complete(result, None)

    def fail(self, exception):
        """Record failure; returns False if the job was already done."""
        return self._complete(None, exception)

    def _complete(self, result, exception):
        with self._done_lock:
            if self._callbacks is None:
                return False
            callbacks, self._callbacks = self._callbacks, None
            self.result = result
            self.exception = exception
            self.finished_at = time.monotonic()
        for fn in callbacks:  # outside the lock: they take other locks
            self._run_callback(fn)
        self._event.set()
        return True

    def add_done_callback(self, fn):
        """Call ``fn()`` exactly once when the job completes.

        It runs on the completing thread, in registration order, after
        the outcome is set and before waiters wake — or at once, on the
        caller's thread, if the job has already completed.  A callback
        that raises is logged and otherwise ignored: later callbacks
        still run and the job's outcome does not change.
        """
        with self._done_lock:
            if self._callbacks is not None:
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _run_callback(self, fn):
        try:
            fn()
        except Exception:
            logging.getLogger(__name__).exception(
                "done callback of %r raised", self
            )

    def done(self):
        return self._event.is_set()

    def wait(self, timeout=None):
        """Block until completion; returns False if ``timeout`` expired."""
        return self._event.wait(timeout)

    # -- timings -------------------------------------------------------

    @property
    def queue_wait_seconds(self):
        """Seconds spent queued (up to start, or to failure if never run)."""
        end = self.started_at if self.started_at is not None else self.finished_at
        if end is None:
            end = time.monotonic()
        return max(0.0, end - self.submitted_at)

    @property
    def run_seconds(self):
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.monotonic()
        return max(0.0, end - self.started_at)

    def __repr__(self):
        state = "done" if self.done() else (
            "running" if self.started_at is not None else "queued"
        )
        return "Job(%d, %r, priority=%d, %s)" % (
            self.job_id, self.label, self.priority, state
        )


class JobHandle:
    """A caller's view of a submitted request.

    Multiple handles may share one underlying job (request coalescing);
    cache hits get a pre-completed job.  ``result()`` re-raises the
    job's exception in the caller's thread.
    """

    __slots__ = ("_job", "cache_hit", "coalesced")

    def __init__(self, job, cache_hit=False, coalesced=False):
        self._job = job
        self.cache_hit = cache_hit
        self.coalesced = coalesced

    @classmethod
    def completed(cls, value, cache_hit=False):
        """A handle that is already done (cache fast path)."""
        job = Job(fn=None, label="cached")
        job.started_at = job.submitted_at
        job.finish(value)
        return cls(job, cache_hit=cache_hit)

    @property
    def job_id(self):
        return self._job.job_id

    @property
    def label(self):
        return self._job.label

    def done(self):
        return self._job.done()

    def add_done_callback(self, fn):
        """See :meth:`Job.add_done_callback`."""
        self._job.add_done_callback(fn)

    def outcome(self):
        """``(result, exception)`` without blocking — for done
        callbacks, which run before ``result()`` waiters wake."""
        return self._job.result, self._job.exception

    def expire(self):
        """Fail the job iff it is still queued past its start deadline.

        (If a worker picks the job up at that same instant, completion
        is once-only — whichever outcome lands first is reported.)
        """
        job = self._job
        if (job.deadline is not None and job.started_at is None
                and time.monotonic() > job.deadline):
            job.fail(DeadlineExceededError(
                "job %r missed its start deadline after %.3fs queued"
                % (job.label, job.queue_wait_seconds)
            ))

    def result(self, timeout=None):
        """The job's result, blocking up to ``timeout`` seconds.

        A waiter does not sleep past the job's own start deadline: it
        wakes then and :meth:`expire` fails a job that is still queued,
        instead of blocking until a worker eventually pops it.
        """
        job = self._job
        waited_until = None if timeout is None else time.monotonic() + timeout
        while True:
            wait_for = (
                None if waited_until is None
                else max(0.0, waited_until - time.monotonic())
            )
            if job.deadline is not None and job.started_at is None:
                until_deadline = max(
                    0.0, job.deadline - time.monotonic()
                ) + 0.005
                wait_for = (
                    until_deadline if wait_for is None
                    else min(wait_for, until_deadline)
                )
            if job.wait(wait_for):
                break
            self.expire()
            if (not job.done() and waited_until is not None
                    and time.monotonic() >= waited_until):
                raise ResultTimeoutError(
                    "timed out after %.3fs waiting for %r" % (timeout, job)
                )
        if job.exception is not None:
            raise job.exception
        return job.result

    def metrics(self):
        """Timing/provenance for this request (see :class:`JobMetrics`)."""
        budget = self._job.budget_info
        return JobMetrics(
            job_id=self._job.job_id,
            label=self._job.label,
            priority=self._job.priority,
            queue_wait_seconds=self._job.queue_wait_seconds,
            run_seconds=self._job.run_seconds,
            cache_hit=self.cache_hit,
            coalesced=self.coalesced,
            requested_parallelism=budget.get("requested"),
            granted_parallelism=budget.get("granted"),
            budget_wait_seconds=budget.get("wait_seconds"),
        )

    def __repr__(self):
        flags = []
        if self.cache_hit:
            flags.append("cache_hit")
        if self.coalesced:
            flags.append("coalesced")
        suffix = (" [%s]" % ", ".join(flags)) if flags else ""
        return "JobHandle(%r)%s" % (self._job, suffix)
