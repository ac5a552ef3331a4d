"""End-to-end query execution tests against the flight example."""

import math

import numpy as np
import pytest

from repro.sql import SqlEngine
from repro.sql.errors import SqlAnalysisError, SqlExecutionError

from .conftest import GROUPS_BY_SORTING, RUNS_BY_SEARCH
from .oracle import RowOracleEngine


class TestProjection:
    def test_select_star(self, engine):
        result = engine.query("SELECT * FROM flights")
        assert result.columns == ["day", "origin", "dest", "delay"]
        assert len(result) == 14

    def test_select_columns_in_order(self, engine):
        result = engine.query("SELECT dest, day FROM flights LIMIT 1")
        assert result.rows == [("London", "Fri")]

    def test_arithmetic_in_select(self, engine):
        result = engine.query("SELECT delay * 2 d2 FROM flights LIMIT 1")
        assert result.rows == [(40.0,)]

    def test_alias_names_output(self, engine):
        result = engine.query("SELECT delay AS minutes FROM flights LIMIT 1")
        assert result.columns == ["minutes"]

    def test_default_function_column_name(self, engine):
        result = engine.query("SELECT abs(delay) FROM flights LIMIT 1")
        assert result.columns == ["abs"]

    def test_constant_expression(self, engine):
        assert engine.query("SELECT 1 + 1 x FROM flights LIMIT 1").scalar() == 2


class TestWhere:
    def test_equality_filter(self, engine):
        result = engine.query("SELECT * FROM flights WHERE origin = 'SF'")
        assert len(result) == 4

    def test_and_or(self, engine):
        result = engine.query(
            "SELECT * FROM flights WHERE origin = 'SF' OR origin = 'Tokyo'"
        )
        assert len(result) == 6

    def test_between(self, engine):
        result = engine.query(
            "SELECT * FROM flights WHERE delay BETWEEN 15 AND 20"
        )
        assert len(result) == 5

    def test_in_list(self, engine):
        result = engine.query(
            "SELECT * FROM flights WHERE day IN ('Sat', 'Sun')"
        )
        assert len(result) == 4

    def test_not_in(self, engine):
        result = engine.query("SELECT * FROM flights WHERE day NOT IN ('Mon')")
        assert len(result) == 9

    def test_like(self, engine):
        result = engine.query("SELECT * FROM flights WHERE dest LIKE 'L%'")
        assert len(result) == 6  # London x4 + LA x2

    def test_comparison_chain_with_not(self, engine):
        result = engine.query("SELECT * FROM flights WHERE NOT delay > 10")
        assert len(result) == 8


class TestAggregates:
    def test_global_count(self, engine):
        assert engine.query("SELECT COUNT(*) FROM flights").scalar() == 14

    def test_global_avg_matches_thesis(self, engine):
        avg = engine.query("SELECT AVG(delay) FROM flights").scalar()
        assert avg == pytest.approx(10.357, abs=1e-3)

    def test_group_by_destination(self, engine):
        result = engine.query(
            "SELECT dest, AVG(delay) a, COUNT(*) c FROM flights "
            "GROUP BY dest ORDER BY c DESC, dest LIMIT 2"
        )
        # London-bound flights: the thesis's rule 2 aggregate.
        assert result.rows[0] == ("Frankfurt", 10.75, 4)
        assert result.rows[1] == ("London", 15.25, 4)

    def test_having(self, engine):
        result = engine.query(
            "SELECT dest FROM flights GROUP BY dest HAVING COUNT(*) >= 4 "
            "ORDER BY dest"
        )
        assert result.column("dest") == ["Frankfurt", "London"]

    def test_min_max_sum(self, engine):
        row = engine.query(
            "SELECT MIN(delay), MAX(delay), SUM(delay) FROM flights"
        ).rows[0]
        assert row == (4.0, 20.0, 145.0)

    def test_count_distinct(self, engine):
        assert (
            engine.query("SELECT COUNT(DISTINCT day) FROM flights").scalar() == 7
        )

    def test_stddev_variance(self, engine):
        variance = engine.query("SELECT VARIANCE(delay) FROM flights").scalar()
        stddev = engine.query("SELECT STDDEV(delay) FROM flights").scalar()
        assert stddev == pytest.approx(math.sqrt(variance))

    def test_aggregate_over_empty_input_yields_one_row(self, engine):
        result = engine.query(
            "SELECT COUNT(*), SUM(delay) FROM flights WHERE delay > 1000"
        )
        assert result.rows == [(0, None)]

    def test_group_by_empty_input_yields_no_rows(self, engine):
        result = engine.query(
            "SELECT day, COUNT(*) FROM flights WHERE delay > 1000 GROUP BY day"
        )
        assert result.rows == []

    def test_ungrouped_column_rejected(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.query("SELECT day, COUNT(*) FROM flights")

    def test_nested_aggregate_rejected(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.query("SELECT SUM(COUNT(*)) FROM flights GROUP BY day")


class TestCube:
    def test_cube_row_count(self, engine):
        # CUBE(day, dest): sum over all 4 grouping sets of their group
        # counts: 14 distinct (day,dest) pairs + 7 days + 7 dests + 1 total.
        result = engine.query(
            "SELECT day, dest, COUNT(*) FROM flights GROUP BY CUBE(day, dest)"
        )
        assert len(result) == 14 + 7 + 7 + 1

    def test_cube_total_row(self, engine):
        result = engine.query(
            "SELECT day, dest, SUM(delay) s FROM flights "
            "GROUP BY CUBE(day, dest)"
        )
        totals = [r for r in result.rows if r[0] is None and r[1] is None]
        assert totals == [(None, None, 145.0)]

    def test_each_grouping_set_sums_to_total(self, engine):
        result = engine.query(
            "SELECT day, dest, SUM(delay) s, GROUPING(day) gd, "
            "GROUPING(dest) ge FROM flights GROUP BY CUBE(day, dest)"
        )
        by_bits = {}
        for day, dest, total, gd, ge in result.rows:
            by_bits.setdefault((gd, ge), 0.0)
            by_bits[(gd, ge)] += total
        assert all(
            total == pytest.approx(145.0) for total in by_bits.values()
        )

    def test_grouping_bit_distinguishes_wildcard(self, engine):
        result = engine.query(
            "SELECT day, GROUPING(day) g, COUNT(*) FROM flights "
            "GROUP BY ROLLUP(day)"
        )
        bits = {row[0]: row[1] for row in result.rows}
        assert bits[None] == 1
        assert bits["Mon"] == 0

    def test_rollup_levels(self, engine):
        result = engine.query(
            "SELECT day, dest, COUNT(*) FROM flights GROUP BY ROLLUP(day, dest)"
        )
        assert len(result) == 14 + 7 + 1

    def test_grouping_sets_explicit(self, engine):
        result = engine.query(
            "SELECT day, dest, COUNT(*) FROM flights "
            "GROUP BY GROUPING SETS ((day), (dest))"
        )
        assert len(result) == 7 + 7

    def test_grouping_nested_in_case(self, engine):
        # The standard trick for labelling the total row.
        result = engine.query(
            "SELECT CASE WHEN GROUPING(day) = 1 THEN 'ALL' ELSE day END "
            "label, COUNT(*) c FROM flights GROUP BY ROLLUP(day) "
            "ORDER BY c DESC LIMIT 1"
        )
        assert result.rows == [("ALL", 14)]

    def test_grouping_in_having(self, engine):
        result = engine.query(
            "SELECT day, COUNT(*) FROM flights GROUP BY ROLLUP(day) "
            "HAVING GROUPING(day) = 0"
        )
        assert len(result) == 7  # the total row is filtered out

    def test_grouping_in_order_by(self, engine):
        result = engine.query(
            "SELECT day, COUNT(*) c FROM flights GROUP BY ROLLUP(day) "
            "ORDER BY GROUPING(day) DESC, day LIMIT 1"
        )
        assert result.rows == [(None, 14)]


class TestJoins:
    def test_hash_join(self, engine):
        result = engine.query(
            "SELECT f.dest, r.region FROM flights f "
            "JOIN regions r ON f.dest = r.city ORDER BY f.dest LIMIT 1"
        )
        assert result.rows[0] == ("Frankfurt", "EU")

    def test_join_group_by(self, engine):
        result = engine.query(
            "SELECT r.region, COUNT(*) c FROM flights f "
            "JOIN regions r ON f.dest = r.city GROUP BY r.region "
            "ORDER BY c DESC"
        )
        assert result.rows[0] == ("EU", 8)

    def test_unmatched_rows_are_dropped(self, engine):
        # LA, Chicago and Beijing destinations have no region entry;
        # 10 of the 14 rows survive the inner join.
        count = engine.query(
            "SELECT COUNT(*) FROM flights f JOIN regions r ON f.dest = r.city"
        ).scalar()
        assert count == 10

    def test_cross_join_cardinality(self, engine):
        count = engine.query(
            "SELECT COUNT(*) FROM flights CROSS JOIN regions"
        ).scalar()
        assert count == 14 * 4

    def test_self_join_lca_style(self, engine):
        # The LCA join of §3.1.1: pair every tuple with every sample
        # tuple; here the 'sample' is flights itself filtered to Monday.
        count = engine.query(
            "SELECT COUNT(*) FROM flights a CROSS JOIN flights b"
        ).scalar()
        assert count == 196

    def test_join_with_residual_condition(self, engine):
        result = engine.query(
            "SELECT COUNT(*) FROM flights f JOIN regions r "
            "ON f.dest = r.city AND f.delay > 10"
        )
        assert result.scalar() == 5


class TestJoinMetering:
    """Joins charge a metering cluster what the row interpreter charges."""

    SQL = [
        "SELECT f.dest, r.region FROM flights f JOIN regions r "
        "ON f.dest = r.city AND f.delay > 10",
        "SELECT COUNT(*) FROM flights f CROSS JOIN regions r "
        "WHERE f.dest = r.city",
        "SELECT f.day FROM flights f JOIN regions r ON f.delay < 10",
    ]

    @pytest.mark.parametrize("sql", SQL)
    def test_join_charges_equal_the_oracle(self, sql):
        from repro.core.miner import make_default_cluster
        from tests.sql.conftest import FLIGHT_ROWS

        charged = []
        for engine_class in (RowOracleEngine, SqlEngine):
            cluster = make_default_cluster()
            engine = engine_class(cluster=cluster)
            engine.catalog.register_rows(
                "flights", ["day", "origin", "dest", "delay"], FLIGHT_ROWS
            )
            engine.catalog.register_rows(
                "regions", ["city", "region"], [("London", "EU"), ("LA", "US")]
            )
            engine.query(sql)
            charged.append(cluster.metrics.simulated_seconds)
        assert charged[0] > 0
        assert charged[1] == charged[0]


class TestKeyCodeOverflow:
    """Five 65 536-value key columns span 2**80 combined codes.

    Folded in int64 without a check, the leading column's weight is
    65536**4 = 2**64 = 0: ``(1,0,0,0,0)`` and ``(0,0,0,0,0)`` collide.
    """

    NAMES = ["a", "b", "c", "d", "e"]

    def _engine(self):
        diagonal = np.arange(65536, dtype=np.int64)
        first = np.append(diagonal, 1)
        rest = np.append(diagonal, 0)
        engine = SqlEngine()
        engine.catalog.register_columns(
            "t", self.NAMES, [first, rest, rest, rest, rest]
        )
        engine.catalog.register_rows("probe", self.NAMES, [(0, 0, 0, 0, 0)])
        return engine

    def test_group_by_keeps_every_distinct_key(self):
        result = self._engine().query(
            "SELECT a, b, c, d, e, COUNT(*) FROM t GROUP BY a, b, c, d, e"
        )
        assert len(result) == 65537
        assert set(result.column("count")) == {1}

    def test_multi_key_join_matches_only_equal_keys(self):
        result = self._engine().query(
            "SELECT t.a FROM probe p JOIN t ON p.a = t.a AND p.b = t.b "
            "AND p.c = t.c AND p.d = t.d AND p.e = t.e"
        )
        assert result.rows == [(0,)]


class TestKeyCodeSpan:
    """Plain-column keys on both sides of the counting bound (span <= n).

    Two int keys span 3 x 4 = 12 codes (``b``'s NULL is a code); for a
    join, n counts probe and build rows.  ``sorted_key_codes`` lists
    the comparison-sort fallbacks that ran.
    """

    KEYS = [(3, 20), (1, None), (3, 20), (2, 10), (1, 30), (1, None),
            (2, 30), (3, 10), (1, 20), (2, None), (3, 20), (1, 30)]
    #: A repeated key pins pair order within a probe row's run.
    BUILD = [(3, 20, 1.0), (1, 30, 2.0), (3, 20, 3.0), (2, None, 4.0)]
    JOIN_ON_A = "SELECT t.a, t.b, t.m, d.w FROM t JOIN d ON t.a = d.a"
    JOIN_ON_AB = JOIN_ON_A + " AND t.b = d.b"

    def _assert_same(self, probe_rows, build_rows, sql):
        results = []
        for engine in (RowOracleEngine(), SqlEngine()):
            engine.catalog.register_rows("t", ["a", "b", "k", "m"], [
                (a, b, None, 0.1 * (i + 1))
                for i, (a, b) in enumerate(self.KEYS[:probe_rows])
            ])
            engine.catalog.register_rows("d", ["a", "b", "w"], build_rows)
            result = engine.query(sql)
            results.append((result.columns, result.rows))
        assert results[1] == results[0]

    @pytest.mark.parametrize("rows, fallbacks",
                             [(12, set()), (11, {GROUPS_BY_SORTING})],
                             ids=["span_n", "span_n_plus_1"])
    def test_group_by_two_keys(self, rows, fallbacks, sorted_key_codes):
        # ``k`` is all NULL: one code, so it leaves the span as it is.
        for sql in ("SELECT a, b, COUNT(*), SUM(m) FROM t GROUP BY a, b",
                    "SELECT b, k, a, AVG(m) FROM t GROUP BY b, k, a"):
            self._assert_same(rows, [], sql)
        assert set(sorted_key_codes) == fallbacks

    @pytest.mark.parametrize("probe_rows, fallbacks",
                             [(8, set()), (7, {RUNS_BY_SEARCH})],
                             ids=["span_n", "span_n_plus_1"])
    def test_join_on_two_keys(self, probe_rows, fallbacks, sorted_key_codes):
        self._assert_same(probe_rows, self.BUILD, self.JOIN_ON_AB)
        assert set(sorted_key_codes) == fallbacks

    @pytest.mark.parametrize("build", [[], [(None, None, 1.0)] * 2],
                             ids=["empty", "all_null"])
    @pytest.mark.parametrize("sql, fallbacks", [
        (JOIN_ON_A, set()), (JOIN_ON_AB, {RUNS_BY_SEARCH}),
    ], ids=["one_key", "two_keys"])
    def test_join_with_nothing_to_build(
        self, build, sql, fallbacks, sorted_key_codes
    ):
        self._assert_same(8, build, sql)
        assert set(sorted_key_codes) == fallbacks


class TestOrderLimitDistinct:
    def test_order_by_desc(self, engine):
        delays = engine.query(
            "SELECT delay FROM flights ORDER BY delay DESC LIMIT 3"
        ).column("delay")
        assert delays == [20.0, 19.0, 16.0]

    def test_order_by_ordinal(self, engine):
        rows = engine.query(
            "SELECT day, delay FROM flights ORDER BY 2 DESC LIMIT 1"
        ).rows
        assert rows == [("Fri", 20.0)]

    def test_order_by_hidden_key(self, engine):
        # ORDER BY a column not in the select list.
        days = engine.query(
            "SELECT day FROM flights ORDER BY delay DESC LIMIT 2"
        ).column("day")
        assert days == ["Fri", "Sat"]

    def test_order_is_stable_for_ties(self, engine):
        rows = engine.query(
            "SELECT day, origin FROM flights WHERE day = 'Mon' ORDER BY day"
        ).rows
        origins = [r[1] for r in rows]
        assert origins == ["Beijing", "SF", "SF", "Tokyo", "Frankfurt"]

    def test_limit_offset(self, engine):
        rows = engine.query(
            "SELECT delay FROM flights ORDER BY delay LIMIT 2 OFFSET 3"
        ).column("delay")
        assert rows == [5.0, 6.0]

    def test_distinct(self, engine):
        days = engine.query(
            "SELECT DISTINCT day FROM flights ORDER BY day"
        ).column("day")
        assert days == sorted(set(days))
        assert len(days) == 7

    def test_distinct_after_order_preserves_order(self, engine):
        days = engine.query(
            "SELECT DISTINCT day FROM flights ORDER BY day DESC"
        ).column("day")
        assert days == sorted(days, reverse=True)


class TestNullSemantics:
    @pytest.fixture
    def nullable(self):
        eng = SqlEngine()
        eng.catalog.register_rows(
            "t", ["a", "x"], [("p", 1.0), ("q", None), (None, 3.0)]
        )
        return eng

    def test_comparison_with_null_filters_row(self, nullable):
        assert len(nullable.query("SELECT * FROM t WHERE x > 0")) == 2

    def test_is_null(self, nullable):
        assert len(nullable.query("SELECT * FROM t WHERE x IS NULL")) == 1

    def test_is_not_null(self, nullable):
        assert len(nullable.query("SELECT * FROM t WHERE a IS NOT NULL")) == 2

    def test_aggregates_skip_nulls(self, nullable):
        row = nullable.query("SELECT COUNT(x), SUM(x), AVG(x) FROM t").rows[0]
        assert row == (2, 4.0, 2.0)

    def test_count_star_counts_null_rows(self, nullable):
        assert nullable.query("SELECT COUNT(*) FROM t").scalar() == 3

    def test_null_group_key(self, nullable):
        result = nullable.query(
            "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a"
        )
        assert (None, 1) in result.rows

    def test_nulls_sort_last_ascending(self, nullable):
        values = nullable.query("SELECT a FROM t ORDER BY a").column("a")
        assert values[-1] is None

    def test_coalesce(self, nullable):
        values = nullable.query(
            "SELECT COALESCE(x, 0.0) v FROM t ORDER BY v"
        ).column("v")
        assert values == [0.0, 1.0, 3.0]

    def test_null_never_joins(self, nullable):
        count = nullable.query(
            "SELECT COUNT(*) FROM t l JOIN t r ON l.a = r.a"
        ).scalar()
        assert count == 2  # only p and q match themselves


class TestRuntimeErrors:
    def test_division_by_zero(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.query("SELECT delay / 0 FROM flights")

    def test_ln_of_nonpositive(self, engine):
        with pytest.raises(SqlExecutionError):
            engine.query("SELECT LN(delay - 100) FROM flights")

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_order_by_unorderable_values(self, engine, direction):
        # 'x' < 1 raises TypeError in Python; the library's contract is
        # that every error it raises derives from ReproError.
        engine.catalog.register_rows("mixed", ["a"], [("x",), (1,)])
        with pytest.raises(SqlExecutionError, match="cannot sort"):
            engine.query("SELECT a FROM mixed ORDER BY a %s" % direction)

    def test_unknown_table(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.query("SELECT * FROM missing")

    def test_unknown_column(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.query("SELECT nope FROM flights")

    def test_ambiguous_column(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.query(
                "SELECT day FROM flights a CROSS JOIN flights b"
            )

    def test_unknown_function(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.query("SELECT FROBNICATE(delay) FROM flights")


class TestScalarFunctions:
    def test_case_expression(self, engine):
        result = engine.query(
            "SELECT CASE WHEN delay >= 15 THEN 'late' ELSE 'ok' END s, "
            "COUNT(*) c FROM flights "
            "GROUP BY CASE WHEN delay >= 15 THEN 'late' ELSE 'ok' END "
            "ORDER BY s"
        )
        assert result.rows == [("late", 5), ("ok", 9)]

    def test_string_functions(self, engine):
        row = engine.query(
            "SELECT UPPER(dest), LOWER(dest), LENGTH(dest) "
            "FROM flights LIMIT 1"
        ).rows[0]
        assert row == ("LONDON", "london", 6)

    def test_math_functions(self, engine):
        row = engine.query(
            "SELECT ABS(-2), SQRT(16.0), POWER(2, 10), FLOOR(2.7), CEIL(2.1) "
            "FROM flights LIMIT 1"
        ).rows[0]
        assert row == (2, 4.0, 1024.0, 2.0, 3.0)

    def test_cast(self, engine):
        row = engine.query(
            "SELECT CAST(delay AS INTEGER) i, CAST(delay AS TEXT) s "
            "FROM flights LIMIT 1"
        ).rows[0]
        assert row == (20, "20.0")

    def test_concat_operator(self, engine):
        value = engine.query(
            "SELECT origin || '->' || dest r FROM flights LIMIT 1"
        ).scalar()
        assert value == "SF->London"

    def test_in_with_column_expressions(self, engine):
        # Non-literal IN items are evaluated per row.
        count = engine.query(
            "SELECT COUNT(*) FROM flights WHERE dest IN (origin, 'London')"
        ).scalar()
        assert count == 4  # the London-bound flights; no self-loops exist

    def test_like_underscore_wildcard(self, engine):
        days = engine.query(
            "SELECT DISTINCT day FROM flights WHERE day LIKE '_on' ORDER BY day"
        ).column("day")
        assert days == ["Mon"]

    def test_not_like(self, engine):
        count = engine.query(
            "SELECT COUNT(*) FROM flights WHERE day NOT LIKE 'M%'"
        ).scalar()
        assert count == 9

    def test_nullif_and_greatest(self, engine):
        row = engine.query(
            "SELECT NULLIF(day, 'Fri') n, GREATEST(delay, 18.0) g, "
            "LEAST(delay, 18.0) l FROM flights LIMIT 1"
        ).rows[0]
        assert row == (None, 20.0, 18.0)

    def test_modulo(self, engine):
        value = engine.query(
            "SELECT CAST(delay AS INTEGER) % 7 FROM flights LIMIT 1"
        ).scalar()
        assert value == 6
