"""The done-callback contract of :class:`Job` / :class:`JobHandle`, and
``JobHandle.expire`` — the one copy of the start-deadline rule."""

import logging
import sys
import threading
import time

import pytest

from repro.common.errors import DeadlineExceededError
from repro.service import Job, JobHandle, RuleMiningService, ServiceConfig

from .test_service import block_all_workers


class TestDoneCallbacks:
    def test_fires_once_under_a_finish_fail_race(self, deadline):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(200):
                job = Job(lambda: None)
                fired = []
                job.add_done_callback(lambda: fired.append(
                    (job.result, job.exception)))
                start = threading.Barrier(4)

                def complete(attempt):
                    start.wait(deadline.remaining())
                    attempt()

                racers = [
                    threading.Thread(target=complete, args=(attempt,))
                    for attempt in (lambda: job.finish("ok"),
                                    lambda: job.fail(ValueError("no")),
                                    lambda: job.finish("late"),
                                    lambda: job.fail(KeyError("later")))
                ]
                for racer in racers:
                    racer.start()
                for racer in racers:
                    racer.join(deadline.remaining())
                    assert not racer.is_alive()
                # One completion won, and the callback saw exactly it.
                assert fired == [(job.result, job.exception)]
                # Either finish may win: "late" is a legal outcome too.
                assert (job.result in ("ok", "late")) != (
                    job.exception is not None)
        finally:
            sys.setswitchinterval(interval)

    def test_runs_on_the_completing_thread_before_waiters_wake(
            self, deadline):
        job = Job(lambda: None)
        handle = JobHandle(job)
        seen = []
        handle.add_done_callback(lambda: seen.append(
            (threading.current_thread(), job.done(), handle.outcome())))
        completer = threading.Thread(target=job.finish, args=(42,))
        completer.start()
        assert handle.result(deadline.remaining()) == 42
        completer.join(deadline.remaining())
        # Outcome readable, waiters not yet woken.
        assert seen == [(completer, False, (42, None))]

    def test_fires_immediately_on_a_done_handle(self):
        job = Job(lambda: None)
        job.fail(ValueError("boom"))
        handle = JobHandle(job)
        seen = []
        handle.add_done_callback(
            lambda: seen.append(threading.current_thread()))
        assert seen == [threading.current_thread()]
        assert isinstance(handle.outcome()[1], ValueError)

    def test_fires_immediately_on_a_completed_handle(self):
        handle = JobHandle.completed("cached", cache_hit=True)
        seen = []
        handle.add_done_callback(lambda: seen.append(handle.outcome()))
        assert seen == [("cached", None)]

    def test_registration_order(self):
        job = Job(lambda: None)
        order = []

        def first():
            order.append("first")
            # The job has completed: a registration from here on runs
            # at once, like any other on a done job.
            job.add_done_callback(lambda: order.append("late"))

        job.add_done_callback(first)
        job.add_done_callback(lambda: order.append("second"))
        job.finish(None)
        assert order == ["first", "late", "second"]

    def test_service_callback_runs_before_a_callers(self, flights,
                                                    deadline):
        """By the time a caller's callback runs the result is cached
        and the in-flight entry retired — a duplicate submission made
        from inside it is a cache hit, never a re-execution."""
        with RuleMiningService(ServiceConfig(num_workers=1)) as service:
            service.register_dataset("flights", flights)
            release = block_all_workers(service, deadline)
            sql = "SELECT COUNT(*) FROM flights"
            handle = service.submit_query(sql)
            seen = []

            def resubmit():
                again = service.submit_query(sql)
                seen.append((again.cache_hit, again.outcome(),
                             service.stats()["jobs"]["completed"]))

            handle.add_done_callback(resubmit)
            release.set()
            result = handle.result(deadline.remaining())
        assert seen == [(True, (result, None), 1)]

    def test_a_raising_callback_is_isolated(self, caplog):
        job = Job(lambda: None, label="noisy")
        order = []

        def boom():
            raise RuntimeError("callback bug")

        job.add_done_callback(boom)
        job.add_done_callback(lambda: order.append("after"))
        with caplog.at_level(logging.ERROR, logger="repro.service.jobs"):
            assert job.finish("fine") is True
            # An already-done job isolates a raising callback the same.
            job.add_done_callback(boom)
        assert order == ["after"]
        assert JobHandle(job).result(timeout=0) == "fine"
        assert [r.exc_info[0] for r in caplog.records] == [RuntimeError] * 2
        assert "noisy" in caplog.text


class TestExpire:
    def test_fails_a_job_queued_past_its_deadline(self):
        job = Job(lambda: None, label="late", deadline_seconds=0.01)
        handle = JobHandle(job)
        handle.expire()
        assert not handle.done()  # deadline not reached: nothing happens
        time.sleep(0.03)
        handle.expire()
        with pytest.raises(DeadlineExceededError, match="'late' missed"):
            handle.result(timeout=0)

    def test_is_a_no_op_on_a_started_job(self):
        job = Job(lambda: None, deadline_seconds=0.01)
        job.started_at = time.monotonic()
        time.sleep(0.03)
        JobHandle(job).expire()
        assert not job.done()

    def test_is_a_no_op_on_a_finished_job(self):
        job = Job(lambda: None, deadline_seconds=0.01)
        job.fail(ValueError("queue swept it"))
        time.sleep(0.03)
        JobHandle(job).expire()
        assert isinstance(job.exception, ValueError)

    def test_is_a_no_op_without_a_deadline(self):
        job = Job(lambda: None)
        JobHandle(job).expire()
        assert not job.done()
