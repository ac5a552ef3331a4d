"""Core tests run under the worker leak guard."""

import pytest


@pytest.fixture(autouse=True)
def _leak_guard(no_leaked_workers):
    yield
