"""Property-based parity: vectorized executor vs row interpreter.

The row interpreter (:mod:`tests.sql.oracle`) defines the engine's
semantics; these tests generate tables with NULLs and queries
spanning filters, expressions, aggregation, grouping sets, sorting and
limits, and assert the vectorized path returns *identical* output —
same rows, same order, same column names, same NULL placement, same
aggregate values (accumulation order is preserved, so floats match
exactly).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import SqlEngine
from repro.sql.errors import SqlError

from .oracle import RowOracleEngine

DAY = st.one_of(st.none(), st.sampled_from(["Mon", "Tue", "Wed", "Thu"]))
CITY = st.one_of(st.none(), st.sampled_from(["SF", "LA", "NY"]))
SMALL_INT = st.one_of(st.none(), st.integers(min_value=-50, max_value=50))
MEASURE = st.one_of(
    st.none(),
    st.floats(min_value=-100, max_value=100,
              allow_nan=False, allow_infinity=False),
)

ROWS = st.lists(
    st.tuples(DAY, CITY, SMALL_INT, MEASURE), min_size=0, max_size=50
)

QUERIES = [
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE a = 'Mon'",
    "SELECT a, k, m FROM t WHERE k > 0 AND m > 0",
    "SELECT a FROM t WHERE k > 10 OR m < -10",
    "SELECT a FROM t WHERE NOT k > 0",
    "SELECT a FROM t WHERE a IS NULL",
    "SELECT a, m FROM t WHERE m IS NOT NULL AND a IN ('Mon', 'Tue')",
    "SELECT a FROM t WHERE k BETWEEN -5 AND 5",
    "SELECT a FROM t WHERE k NOT BETWEEN 0 AND 20",
    "SELECT a FROM t WHERE b IN (a, 'SF')",
    "SELECT k + 1, k - 1, k * 2, m / 2.0, k % 7 FROM t WHERE k <> 0",
    "SELECT a || '-' || b FROM t",
    "SELECT CASE WHEN m > 0 THEN 'pos' WHEN m < 0 THEN 'neg' ELSE 'zero' END FROM t",
    "SELECT CASE WHEN k <> 0 THEN m / k ELSE 0 END FROM t",
    "SELECT CAST(m AS INTEGER), CAST(k AS FLOAT), CAST(k AS TEXT) FROM t",
    "SELECT COALESCE(m, 0.0), NULLIF(a, 'Mon'), ABS(k) FROM t",
    "SELECT DISTINCT a FROM t",
    "SELECT DISTINCT a, b FROM t",
    "SELECT a, m FROM t ORDER BY m",
    "SELECT a, m FROM t ORDER BY m DESC, a",
    "SELECT a, k FROM t ORDER BY a, k DESC LIMIT 7",
    "SELECT a FROM t ORDER BY m LIMIT 5 OFFSET 3",
    "SELECT COUNT(*), COUNT(m), COUNT(a) FROM t",
    "SELECT SUM(m), AVG(m), MIN(m), MAX(m) FROM t",
    "SELECT SUM(k), MIN(k), MAX(k) FROM t",
    "SELECT COUNT(DISTINCT a), COUNT(DISTINCT k) FROM t",
    "SELECT VARIANCE(m), STDDEV(m) FROM t",
    "SELECT a, COUNT(*), SUM(m) FROM t GROUP BY a",
    "SELECT a, b, COUNT(*), AVG(m) FROM t GROUP BY a, b",
    "SELECT a, SUM(m) s FROM t GROUP BY a HAVING COUNT(*) > 2",
    "SELECT a, SUM(m) s FROM t GROUP BY a ORDER BY s DESC, a",
    "SELECT a, b, SUM(m), GROUPING(a), GROUPING(b) FROM t GROUP BY CUBE(a, b)",
    "SELECT a, b, COUNT(*) FROM t GROUP BY ROLLUP(a, b)",
    "SELECT a, b, COUNT(*) FROM t GROUP BY GROUPING SETS ((a), (b))",
    "SELECT a, MIN(k), MAX(k), SUM(k) FROM t GROUP BY a ORDER BY a",
    "SELECT l.a, r.b FROM t l JOIN t r ON l.a = r.a ORDER BY l.a, r.b LIMIT 10",
    "SELECT COUNT(*) FROM t l JOIN t r ON l.k = r.k AND l.m > r.m",
]


def _engines(rows):
    columns = ["a", "b", "k", "m"]
    row_engine = RowOracleEngine()
    vec_engine = SqlEngine()
    row_engine.catalog.register_rows("t", columns, rows)
    vec_engine.catalog.register_rows("t", columns, rows)
    return row_engine, vec_engine


def _outcome(engine, sql):
    try:
        result = engine.query(sql)
        return ("ok", result.columns, result.rows)
    except SqlError as exc:
        return ("error", type(exc).__name__, None)


@pytest.mark.parametrize("sql", QUERIES)
@given(rows=ROWS)
@settings(max_examples=25, deadline=None)
def test_vectorized_matches_row_interpreter(sql, rows):
    row_engine, vec_engine = _engines(rows)
    expected = _outcome(row_engine, sql)
    actual = _outcome(vec_engine, sql)
    assert actual == expected


@given(rows=ROWS, data=st.data())
@settings(max_examples=50, deadline=None)
def test_random_filter_projection_parity(rows, data):
    """Random filter/projection combinations beyond the fixed list."""
    comparisons = ["=", "<>", "<", "<=", ">", ">="]
    column = data.draw(st.sampled_from(["k", "m"]))
    op = data.draw(st.sampled_from(comparisons))
    threshold = data.draw(st.integers(min_value=-20, max_value=20))
    connective = data.draw(st.sampled_from(["AND", "OR"]))
    sql = (
        "SELECT a, k, m FROM t WHERE %s %s %d %s a IS NOT NULL "
        "ORDER BY k, m LIMIT 20" % (column, op, threshold, connective)
    )
    row_engine, vec_engine = _engines(rows)
    assert _outcome(vec_engine, sql) == _outcome(row_engine, sql)


class TestEdgeCaseParity:
    """Regressions for divergences found by review: each case once
    produced different results (or errors) on the two paths."""

    def _pair(self, columns, rows):
        row_engine = RowOracleEngine()
        vec_engine = SqlEngine()
        for engine in (row_engine, vec_engine):
            engine.catalog.register_rows("t", columns, rows)
        return row_engine, vec_engine

    def test_nan_min_max_skipped_like_reference(self):
        row_e, vec_e = self._pair(["m"], [(1.0,), (float("nan"),), (0.5,)])
        sql = "SELECT MIN(m), MAX(m) FROM t"
        assert vec_e.query(sql).rows == row_e.query(sql).rows == [(0.5, 1.0)]

    def test_between_short_circuits_upper_bound(self):
        # 10 <= 5 is False, so the incomparable upper bound is never
        # evaluated — both paths must return empty, not raise.
        row_e, vec_e = self._pair(["a", "b", "c"], [(5, 10, "x")])
        sql = "SELECT a FROM t WHERE a BETWEEN b AND c"
        assert vec_e.query(sql).rows == row_e.query(sql).rows == []

    def test_in_list_items_evaluated_lazily(self):
        # The first item matches, so 1/c (division by zero) must never
        # be evaluated for that row on either path.
        row_e, vec_e = self._pair(["a", "b", "c"], [(1, 1, 0)])
        sql = "SELECT a FROM t WHERE a IN (b, 1 / c)"
        assert vec_e.query(sql).rows == row_e.query(sql).rows == [(1,)]

    def test_big_int_arithmetic_is_exact(self):
        row_e, vec_e = self._pair(["a"], [(2**62,), (2**62,), (2**62,)])
        for sql in (
            "SELECT SUM(a) FROM t",
            "SELECT a + a FROM t",
            "SELECT a * 3 FROM t",
            "SELECT -a FROM t",
        ):
            assert vec_e.query(sql).rows == row_e.query(sql).rows

    def test_cast_huge_float_to_integer_is_exact(self):
        row_e, vec_e = self._pair(["m"], [(1e300,)])
        sql = "SELECT CAST(m AS INTEGER) FROM t"
        assert vec_e.query(sql).scalar() == row_e.query(sql).scalar() == int(1e300)

    def test_column_array_is_read_only(self):
        _, vec_e = self._pair(["m"], [(1.0,), (2.0,)])
        array = vec_e.query("SELECT m FROM t").column_array("m")
        with pytest.raises(ValueError):
            array[0] = 99.0
        assert vec_e.query("SELECT SUM(m) FROM t").scalar() == 3.0


@given(rows=ROWS)
@settings(max_examples=25, deadline=None)
def test_prepared_statement_matches_query(rows):
    _, engine = _engines(rows)
    sql = "SELECT a, COUNT(*) c, SUM(m) s FROM t GROUP BY a ORDER BY a"
    statement = engine.prepare(sql)
    direct = engine.query(sql)
    for _ in range(3):
        via_prepared = statement.execute()
        assert via_prepared.rows == direct.rows
        assert via_prepared.columns == direct.columns
