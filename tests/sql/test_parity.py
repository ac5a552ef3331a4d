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


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------

#: Key-column value pools by dtype kind; "mixed" columns come out as
#: ``object`` arrays holding ``1``, ``1.0`` and ``True`` side by side.
_NAN = float("nan")
KEY_VALUES = {
    "int": [0, 1, 2, 3],
    "float": [0.0, 1.0, 2.0, 2.5, _NAN],
    "bool": [True, False],
    "text": ["a", "b", "1"],
    "mixed": [0, 1, 1.0, True, 2.5, "a", _NAN],
}
#: (left, right) key kinds: every same-kind pair, plus the cross-dtype
#: pairs whose values can be equal (and one, int/text, that never are).
KEY_KIND_PAIRS = [(kind, kind) for kind in sorted(KEY_VALUES)] + [
    ("int", "float"), ("int", "bool"), ("bool", "float"), ("int", "text"),
    ("int", "mixed"), ("mixed", "float"), ("bool", "mixed"), ("mixed", "text"),
]
JOIN_COLUMNS = ["k", "j", "m", "z"]

#: FROM clauses over tables ``l`` and ``r`` (every shape below reads
#: both qualifiers).  NaN-able ``k`` is only ever matched *across* the
#: two tables: matching a NaN against the very same object is the one
#: documented divergence (see ``TestJoinEdgeCases``).
JOIN_SOURCES = {
    "one_key": "l JOIN r ON l.k = r.k",
    "two_keys": "l JOIN r ON l.k = r.k AND l.j = r.j",
    "residual": "l JOIN r ON l.k = r.k AND l.m > r.m",
    "residual_may_divide_by_zero": "l JOIN r ON l.k = r.k AND l.m / r.z > 1",
    "cross": "l CROSS JOIN r",
    "cross_with_condition": "l JOIN r ON l.m < r.m",
    "three_way": "l JOIN r ON l.k = r.k JOIN l x ON r.j = x.j",
    "self_join": "l JOIN l r ON l.j = r.j",
}

JOIN_SHAPES = [
    "SELECT * FROM %s",
    "SELECT l.k, r.k, r.m, l.z + r.z FROM %s",
    "SELECT l.j, COUNT(*), SUM(r.m), MIN(l.m) FROM %s GROUP BY l.j",
    "SELECT r.j, COUNT(*), SUM(l.m) FROM %s WHERE l.z = 1 GROUP BY r.j",
    "SELECT l.j, r.j, l.m FROM %s ORDER BY l.j DESC, r.m LIMIT 15",
    "SELECT DISTINCT l.j, r.z FROM %s",
]


def _join_rows(kind):
    """0-40 rows of (k, j, m, z): NULLs everywhere, few distinct keys."""
    row = st.tuples(
        st.sampled_from(KEY_VALUES[kind] + [None]),
        st.sampled_from([0, 1, None]),
        MEASURE,
        st.sampled_from([0, 1, 2, None]),
    )
    # Sizes are drawn uniformly: hypothesis' own list sizes stay near
    # zero, where duplicate and NaN keys on both sides are rare.  Each
    # NaN cell gets its own object: the oracle's dict keying matches a
    # NaN to *itself*, so a shared object would join there.
    return st.integers(min_value=0, max_value=40).flatmap(
        lambda n: st.lists(row, min_size=n, max_size=n)
    ).map(
        lambda rows: [
            tuple(float("nan") if v is _NAN else v for v in r) for r in rows
        ]
    )


def _typed(outcome):
    """An outcome with every cell tagged by type and NaN made comparable."""
    kind, columns, rows = outcome
    if rows is None:
        return outcome
    return kind, columns, [
        tuple(
            (type(v).__name__, "nan" if v != v else v) for v in row
        )
        for row in rows
    ]


def _join_engines(left_rows, right_rows):
    engines = RowOracleEngine(), SqlEngine()
    for engine in engines:
        engine.catalog.register_rows("l", JOIN_COLUMNS, left_rows)
        engine.catalog.register_rows("r", JOIN_COLUMNS, right_rows)
    return engines


@pytest.mark.parametrize("source", sorted(JOIN_SOURCES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_join_matches_row_interpreter(source, data):
    """Joins return the oracle's columns, rows *in order* and error type."""
    left_kind, right_kind = data.draw(st.sampled_from(KEY_KIND_PAIRS))
    left_rows = data.draw(_join_rows(left_kind))
    right_rows = data.draw(_join_rows(right_kind))
    sql = data.draw(st.sampled_from(JOIN_SHAPES)) % JOIN_SOURCES[source]
    row_engine, vec_engine = _join_engines(left_rows, right_rows)
    assert _typed(_outcome(vec_engine, sql)) == _typed(
        _outcome(row_engine, sql)
    )


class TestJoinEdgeCases:
    """Join rules the generated cases cover only by chance."""

    def _both(self, sql, left_rows, right_rows, columns=("k", "m")):
        outcomes = []
        for engine in (RowOracleEngine(), SqlEngine()):
            engine.catalog.register_rows("l", list(columns), left_rows)
            engine.catalog.register_rows("r", list(columns), right_rows)
            outcomes.append(_typed(_outcome(engine, sql)))
        assert outcomes[1] == outcomes[0]
        return outcomes[1]

    def test_residual_runs_on_matched_pairs_only(self):
        # r's second row would divide by zero, but its key matches
        # nothing, so the residual never sees it on either path.
        outcome = self._both(
            "SELECT l.k, r.m FROM l JOIN r ON l.k = r.k AND l.m / r.m > 1",
            [(1, 5.0)],
            [(1, 2.0), (2, 0.0)],
        )
        assert outcome[2] == [(("int", 1), ("float", 2.0))]

    def test_residual_error_on_a_matched_pair_surfaces(self):
        outcome = self._both(
            "SELECT l.k FROM l JOIN r ON l.k = r.k AND l.m / r.m > 1",
            [(1, 5.0)],
            [(1, 0.0)],
        )
        assert outcome[:2] == ("error", "SqlExecutionError")

    def test_keys_join_under_python_equality_across_dtypes(self):
        # int64 probe column against float64 and bool build columns:
        # 1 = 1.0 = TRUE, as in the oracle's dict.
        for right_rows in ([(1.0, 0.0), (2.5, 0.0)], [(True, 0.0)]):
            outcome = self._both(
                "SELECT l.k, r.k FROM l JOIN r ON l.k = r.k",
                [(1, 0.0), (2, 0.0)],
                right_rows,
            )
            assert len(outcome[2]) == 1
            assert outcome[2][0][0] == ("int", 1)

    def test_big_int_keys_join_exactly(self):
        outcome = self._both(
            "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k",
            [(2**70, 0.0), (2**70 + 1, 0.0), (2**53 + 1, 0.0)],
            [(2**70, 0.0), (float(2**53), 0.0)],
        )
        assert outcome[2] == [(("int", 1),)]

    def test_duplicates_pair_in_probe_then_build_order(self):
        outcome = self._both(
            "SELECT l.m, r.m FROM l JOIN r ON l.k = r.k",
            [("a", 1.0), ("b", 2.0), ("a", 3.0)],
            [("a", 10.0), ("b", 20.0), ("a", 30.0)],
        )
        assert [tuple(v for _t, v in row) for row in outcome[2]] == [
            (1.0, 10.0), (1.0, 30.0), (2.0, 20.0), (3.0, 10.0), (3.0, 30.0),
        ]

    def test_nan_keys_never_join_across_tables(self):
        outcome = self._both(
            "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k",
            [(float("nan"), 0.0), (1.0, 0.0)],
            [(float("nan"), 0.0), (1.0, 0.0)],
        )
        assert outcome[2] == [(("int", 1),)]

    @pytest.mark.parametrize("other", [2.0, "x"], ids=["float64", "object"])
    def test_nan_key_does_not_join_itself(self, other):
        # The documented divergence: the oracle's dict finds a NaN key
        # by object identity, so a self-join pairs each NaN row with
        # itself there.  The shipped executor follows its own ``=``
        # (NaN = NaN is false) whatever the column's dtype.
        engine = SqlEngine()
        engine.catalog.register_rows(
            "t", ["k"], [(float("nan"),), (1.0,), (other,)]
        )
        sql = "SELECT COUNT(*) FROM t a JOIN t b ON a.k = b.k"
        assert engine.query(sql).scalar() == 2
        cross = "SELECT COUNT(*) FROM t a CROSS JOIN t b WHERE a.k = b.k"
        assert engine.query(cross).scalar() == 2


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
