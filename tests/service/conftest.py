"""Shared fixtures for the service tests.

Concurrency tests can hang rather than fail, which stalls the whole
suite; the :class:`Deadline` helper is an in-test timeout guard (the
container has no ``pytest-timeout``).  Every blocking wait in these
tests draws from one per-test budget via ``deadline.remaining()`` —
once the budget is spent the next wait fails the test immediately
instead of blocking forever.
"""

import time

import pytest

from repro.data.generators import flight_table


class Deadline:
    """A per-test time budget for blocking waits."""

    def __init__(self, seconds):
        self.seconds = seconds
        self._expires = time.monotonic() + seconds

    def remaining(self):
        """Seconds left; fails the test if the budget is exhausted."""
        remaining = self._expires - time.monotonic()
        if remaining <= 0:
            pytest.fail(
                "test exceeded its %.1fs concurrency deadline" % self.seconds
            )
        return remaining

    def expired(self):
        return time.monotonic() >= self._expires


@pytest.fixture
def deadline():
    return Deadline(30.0)


@pytest.fixture(scope="module")
def flights():
    return flight_table()


@pytest.fixture(autouse=True)
def _leak_guard(no_leaked_workers):
    yield
