"""Fixtures for the SQL engine tests."""

import pytest

from repro.sql import SqlEngine, vectorized

from .oracle import RowOracleEngine

#: (Day, Origin, Destination, Delay) — thesis Table 1.1.
FLIGHT_ROWS = [
    ("Fri", "SF", "London", 20.0),
    ("Fri", "London", "LA", 16.0),
    ("Sun", "Tokyo", "Frankfurt", 10.0),
    ("Sun", "Chicago", "London", 15.0),
    ("Sat", "Beijing", "Frankfurt", 13.0),
    ("Sat", "Frankfurt", "London", 19.0),
    ("Tue", "Chicago", "LA", 5.0),
    ("Wed", "London", "Chicago", 6.0),
    ("Thu", "SF", "Frankfurt", 15.0),
    ("Mon", "Beijing", "SF", 4.0),
    ("Mon", "SF", "London", 7.0),
    ("Mon", "SF", "Frankfurt", 5.0),
    ("Mon", "Tokyo", "Beijing", 6.0),
    ("Mon", "Frankfurt", "Tokyo", 4.0),
]


@pytest.fixture(params=["vectorized", "rows"])
def engine(request):
    """An engine with the flight table plus a small lookup relation.

    Parametrized over the shipped executor and the test-side row
    oracle, so every engine-level test doubles as a parity check.
    """
    eng = SqlEngine() if request.param == "vectorized" else RowOracleEngine()
    eng.catalog.register_rows(
        "flights", ["day", "origin", "dest", "delay"], FLIGHT_ROWS
    )
    eng.catalog.register_rows(
        "regions",
        ["city", "region"],
        [("SF", "US"), ("London", "EU"), ("Frankfurt", "EU"), ("Tokyo", "ASIA")],
    )
    return eng


@pytest.fixture
def empty_engine():
    return SqlEngine()


#: The comparison-sort paths of key grouping and of equi-join runs,
#: taken only when the key codes' span exceeds the row count.
GROUPS_BY_SORTING = "_group_codes_by_sorting"
RUNS_BY_SEARCH = "_build_runs_by_search"
SORTING_FALLBACKS = (GROUPS_BY_SORTING, RUNS_BY_SEARCH)


@pytest.fixture
def sorted_key_codes(monkeypatch):
    """Names of the comparison-sort fallbacks run since the test began."""
    ran = []
    for name in SORTING_FALLBACKS:
        def record(*args, _name=name, _run=getattr(vectorized, name)):
            ran.append(_name)
            return _run(*args)
        monkeypatch.setattr(vectorized, name, record)
    return ran
