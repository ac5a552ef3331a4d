"""Parity and representation for dictionary-coded relations.

``SqlEngine.register_table`` keeps a :class:`~repro.data.table.Table`'s
dimensions dictionary-coded (:class:`~repro.sql.columns.DictColumn`).
``test_parity.py`` registers only with ``register_rows``, and the e2e
oracle calls the same ``register_table`` as the system it checks, so a
break both share would pass there.  Here every query runs on tables
built with ``Table.from_rows`` and registered with ``register_table``
— in RAM and through ``Table.open_colfile`` with a 256 KiB pool — and
is compared with :class:`RowOracleEngine` over ``register_rows`` of the
*decoded* rows: the first-seen object the encoder kept for each value.

Dimension pools cover ``str`` and NULL (with a trailing-NUL string, the
case a NumPy ``U`` dtype gets wrong), mixed ``1`` / ``1.0`` / ``True``,
NaN objects, and plain ints (which sort through the decoded fallback).
"""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.colfile import write_colfile
from repro.data.generators import income_table
from repro.data.schema import Schema
from repro.data.table import Table
from repro.sql import SqlEngine
from repro.sql.columns import DictColumn
from repro.sql.errors import SqlExecutionError

from .oracle import RowOracleEngine
from .test_parity import QUERIES, _outcome, _typed

POOL_BYTES = 256 * 1024

_NAN = float("nan")
#: Dimension value pools.  ``a`` is always text; ``b`` draws one pool
#: per table; ``k`` is small ints.
TEXT = ["Mon", "Tue", "Wed", "Mon\x00", "", None]
B_POOLS = {
    "text": ["SF", "LA", "NY", "SF\x00", None],
    "mixed": [1, 1.0, True, 0, False, 2.5, "SF", None],
    "nan": [1.0, 2.5, _NAN, None],
    "int": [0, 1, 2, 3, None],
}
INTS = [-2, -1, 0, 1, 2, 7, None]
T_SCHEMA = Schema(["a", "b", "k"], "m")
D_SCHEMA = Schema(["key", "region"], "weight")

#: The four ``sql_churn`` query shapes, over ``t`` and ``d``.
CHURN_SHAPES = [
    "SELECT COUNT(*) FROM t WHERE a = 'Mon' AND m > 0",
    "SELECT b, k, COUNT(*), AVG(m) FROM t WHERE a <> 'Tue' GROUP BY b, k",
    "SELECT b, a, m FROM t WHERE k = 1 ORDER BY a DESC, k LIMIT 20",
    "SELECT d.region, COUNT(*), SUM(d.weight) FROM t i "
    "JOIN d ON i.a = d.key WHERE i.k = 2 GROUP BY d.region",
]
#: Joins over two dictionaries (``t`` and ``d``) and over one (self-join),
#: plus the filters, IN lists and sorts that run on the entries.
EXTRA_QUERIES = [
    "SELECT i.a, d.region FROM t i JOIN d ON i.a = d.key",
    "SELECT i.b, d.key, i.m FROM t i JOIN d ON i.b = d.key ORDER BY i.m",
    "SELECT d.region, i.k, SUM(i.m) FROM d JOIN t i ON d.key = i.a "
    "GROUP BY CUBE(d.region, i.k)",
    "SELECT l.k, r.b FROM t l JOIN t r ON l.k = r.k AND l.a = r.a",
    "SELECT l.a, COUNT(*) FROM t l JOIN t r ON l.a = r.a GROUP BY l.a",
    "SELECT a, b FROM t WHERE b = 1",
    "SELECT a FROM t WHERE 'Mon' <= a",
    "SELECT a, k FROM t WHERE k >= 1 AND b <> 'SF'",
    "SELECT a FROM t WHERE b < 2",
    "SELECT a FROM t WHERE b = NULL",
    "SELECT a, b FROM t WHERE b IN (1, 'SF', 2.5)",
    "SELECT a, b FROM t WHERE b NOT IN ('LA', 0)",
    "SELECT a, b FROM t ORDER BY b, a",
    "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b DESC",
    "SELECT a, b, k, COUNT(*) FROM t GROUP BY ROLLUP(a, b, k)",
    "SELECT b, a, GROUPING(b) FROM t GROUP BY CUBE(b, a) ORDER BY a",
    "SELECT DISTINCT b, k FROM t",
]
ALL_QUERIES = QUERIES + CHURN_SHAPES + EXTRA_QUERIES


def _t_rows(b_pool, fresh_nans):
    row = st.tuples(
        st.sampled_from(TEXT),
        st.sampled_from(b_pool),
        st.sampled_from(INTS),
        st.floats(min_value=-100, max_value=100,
                  allow_nan=False, allow_infinity=False),
    )
    # Sizes drawn uniformly, so repeated keys and values are common.
    rows = st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.lists(row, min_size=n, max_size=n)
    )
    if not fresh_nans:
        return rows
    # One object per NaN cell: the encoder keeps each as its own entry.
    return rows.map(lambda rows: [
        tuple(float("nan") if v is _NAN else v for v in r) for r in rows
    ])


def _d_rows(key_pool):
    row = st.tuples(
        st.sampled_from(key_pool),
        st.sampled_from(["r0", "r1", None]),
        st.sampled_from([1.0, 2.0, 0.5]),
    )
    return st.lists(row, min_size=1, max_size=8)


def _decoded(table):
    return [table.decoded_row(i) for i in range(len(table))]


def _sorts_on_b(sql):
    return "ORDER BY" in sql and re.search(r"\bb\b", sql.split("ORDER BY")[1])


def _assert_parity(tables, queries, from_file=True):
    """Each query's outcome equals the oracle's, in RAM and from a file."""
    oracle, in_ram, on_file = RowOracleEngine(), SqlEngine(), SqlEngine()
    opened = []
    with tempfile.TemporaryDirectory() as work:
        try:
            for name, table in tables.items():
                schema = table.schema
                oracle.catalog.register_rows(
                    name, list(schema.dimensions) + [schema.measure],
                    _decoded(table),
                )
                in_ram.register_table(name, table)
                if not from_file:
                    continue
                path = os.path.join(work, name + ".col")
                write_colfile(table, path, block_rows=8)
                opened.append(
                    Table.open_colfile(path, capacity_bytes=POOL_BYTES)
                )
                on_file.register_table(name, opened[-1])
            for sql in queries:
                expected = _typed(_outcome(oracle, sql))
                assert _typed(_outcome(in_ram, sql)) == expected, sql
                if from_file:
                    assert _typed(_outcome(on_file, sql)) == expected, sql
        finally:
            for table in opened:
                table.close()


@pytest.mark.parametrize("b_kind", sorted(B_POOLS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_dictionary_relations_match_row_oracle(b_kind, data):
    """Every query: same columns, rows in order, NULLs and error class.

    NaN has no place under Python's ``<``, so where it sorts depends on
    the sort algorithm (a divergence of every ``object`` column, coded
    or not): the NaN pool skips the queries that sort on ``b``.  A
    table whose NaN cells are distinct objects runs in RAM only: the
    colfile's JSON dictionaries reload every NaN as one shared object,
    which the reader's re-encoding merges into a single entry.
    """
    b_pool = B_POOLS[b_kind]
    fresh_nans = b_kind == "nan" and data.draw(st.booleans())
    tables = {
        "t": Table.from_rows(T_SCHEMA, data.draw(_t_rows(b_pool, fresh_nans))),
        # No NaN keys in ``d``: the oracle's dict would pair a NaN with
        # the very same object in ``t`` (the divergence test_parity.py
        # documents), while ``=`` — and the executor — pair it with nothing.
        "d": Table.from_rows(D_SCHEMA, data.draw(_d_rows(
            TEXT[:3] + [v for v in b_pool if v is not _NAN][:3]
        ))),
    }
    queries = [
        sql for sql in ALL_QUERIES
        if not (b_kind == "nan" and _sorts_on_b(sql))
    ]
    _assert_parity(tables, queries, from_file=not fresh_nans)


def _dim_table(rows=30):
    """The ``sql_churn`` ``dim`` table: a unique key per ``Inc0`` value."""
    return Table.from_rows(
        Schema(["Key", "Region"], "Weight"),
        [("Inc0=v%d" % i, "r%d" % (i % 4), float(i + 1)) for i in range(rows)],
    )


#: The ``sql_churn`` templates themselves, with their first literals.
CHURN_QUERIES = [
    "SELECT COUNT(*) FROM income WHERE Inc0 = 'Inc0=v0' AND HighIncome > 0",
    "SELECT Inc1, Inc3, COUNT(*), AVG(HighIncome) FROM income "
    "WHERE Inc6 <> 'Inc6=v0' GROUP BY Inc1, Inc3",
    "SELECT Inc5, Inc8, HighIncome FROM income WHERE Inc2 = 'Inc2=v1' "
    "ORDER BY Inc8 DESC, Inc5 LIMIT 20",
    "SELECT d.Region, COUNT(*), SUM(d.Weight) FROM income i "
    "JOIN dim d ON i.Inc0 = d.Key WHERE i.Inc4 = 'Inc4=v0' "
    "GROUP BY d.Region",
]


def test_churn_templates_match_row_oracle():
    tables = {"income": income_table(num_rows=1500, seed=101),
              "dim": _dim_table()}
    _assert_parity(tables, CHURN_QUERIES)


class TestRepresentation:
    """The hot operators answer from codes; a decode fails by name."""

    def _registered(self):
        tables = {"income": income_table(num_rows=2000, seed=101),
                  "dim": _dim_table()}
        engine = SqlEngine()
        for name, table in tables.items():
            engine.register_table(name, table)
        return engine, tables

    def test_registration_copies_no_codes(self):
        engine, tables = self._registered()
        for name, table in tables.items():
            columns, _ = engine.catalog.lookup(name).column_data()
            for j, codes in enumerate(table.dimension_columns()):
                assert isinstance(columns[j], DictColumn)
                assert np.shares_memory(columns[j].codes, codes)

    def test_churn_templates_never_decode_registered_columns(self):
        engine, tables = self._registered()
        for sql in CHURN_QUERIES:
            engine.query(sql).rows
        for name, table in tables.items():
            columns, _ = engine.catalog.lookup(name).column_data()
            decoded = [
                name + "." + column
                for column, col in zip(table.schema.dimensions, columns)
                if col._decoded is not None
            ]
            assert decoded == []


class TestSortRanks:
    """Only ``str`` dictionaries sort by rank, and by Python's ``<``."""

    def _engine(self, values):
        table = Table.from_rows(
            Schema(["a"], "m"), [(v, float(i)) for i, v in enumerate(values)]
        )
        oracle = RowOracleEngine()
        oracle.catalog.register_rows("t", ["a", "m"], _decoded(table))
        engine = SqlEngine()
        engine.register_table("t", table)
        return oracle, engine

    def test_trailing_nul_sorts_after_its_prefix(self):
        # NumPy's U dtype drops trailing NULs, so 'a\x00' would tie 'a'.
        oracle, engine = self._engine(["a\x00", "a", "b", "a\x00\x00", "a"])
        for sql in ("SELECT a, m FROM t ORDER BY a",
                    "SELECT a, m FROM t ORDER BY a DESC"):
            assert engine.query(sql).rows == oracle.query(sql).rows
        assert engine.query("SELECT a FROM t ORDER BY a").column("a") == [
            "a", "a", "a\x00", "a\x00\x00", "b",
        ]

    def test_unorderable_dictionary_raises_typed_error(self):
        oracle, engine = self._engine(["x", 1, "y"])
        for eng in (oracle, engine):
            with pytest.raises(SqlExecutionError, match="cannot sort"):
                eng.query("SELECT a FROM t ORDER BY a")
