"""Optimizer tests: rewrites preserve results and improve plan shape."""

import pytest

from repro.sql import SqlEngine
from repro.sql import plan as p
from repro.sql.optimizer import fold_expr, optimize

from tests.sql.conftest import FLIGHT_ROWS
from tests.sql.test_parity import QUERIES


def both_engines():
    """An optimizing and a non-optimizing engine over the same data."""
    engines = []
    for flag in (True, False):
        eng = SqlEngine(optimize_plans=flag)
        eng.catalog.register_rows(
            "flights", ["day", "origin", "dest", "delay"], FLIGHT_ROWS
        )
        engines.append(eng)
    return engines


EQUIVALENCE_QUERIES = [
    "SELECT * FROM flights WHERE delay > 10",
    "SELECT dest FROM flights WHERE origin = 'SF' ORDER BY dest",
    "SELECT day, COUNT(*) c FROM flights GROUP BY day ORDER BY c DESC, day",
    "SELECT dest, SUM(delay) FROM flights WHERE delay > 5 "
    "GROUP BY CUBE(dest) ORDER BY 2 DESC",
    "SELECT 1 + 2 * 3 x FROM flights LIMIT 1",
    "SELECT upper(origin) u FROM flights WHERE delay BETWEEN 5 AND 15 "
    "ORDER BY u LIMIT 4",
    "SELECT DISTINCT day FROM flights WHERE NOT (delay < 6) ORDER BY day",
]


class TestEquivalence:
    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_optimized_matches_unoptimized(self, sql):
        optimized, plain = both_engines()
        assert optimized.query(sql).rows == plain.query(sql).rows


class TestPredicatePushdown:
    def test_filter_folds_into_scan(self, engine):
        root = engine.plan("SELECT dest FROM flights WHERE delay > 10")
        assert isinstance(root, p.Project)
        scan = root.child
        assert isinstance(scan, p.Scan)
        assert scan.predicate is not None

    def test_two_filters_conjoin(self, engine):
        # WHERE a AND b arrives as one predicate; pushing twice through
        # optimize() must not duplicate it (idempotency).
        root = engine.plan(
            "SELECT dest FROM flights WHERE delay > 10 AND origin = 'SF'"
        )
        again = optimize(root)
        assert again.explain() == root.explain()


class TestProjectionPruning:
    def test_scan_narrows_to_used_columns(self, engine):
        root = engine.plan("SELECT dest FROM flights")
        scan = root.child
        assert scan.column_slots == [2]

    def test_predicate_columns_not_materialized(self, engine):
        root = engine.plan("SELECT dest FROM flights WHERE delay > 10")
        scan = root.child
        assert scan.column_slots == [2]  # delay read but not emitted

    def test_star_keeps_all_columns(self, engine):
        root = engine.plan("SELECT * FROM flights")
        assert root.child.column_slots == [0, 1, 2, 3]


class TestPruningThroughOperators:
    """The required-slot set travels down to every Scan."""

    JOIN = (
        "SELECT r.region, COUNT(*), SUM(f.delay) FROM flights f "
        "JOIN regions r ON f.origin = r.city WHERE f.day = 'Mon' "
        "GROUP BY r.region"
    )

    def test_scans_narrow_under_a_join(self, engine):
        # origin is the key, day the WHERE column, delay the SUM input;
        # dest is read by nothing.  The WHERE stays above the join.
        text = engine.explain(self.JOIN)
        assert "Scan(flights cols=[0, 1, 3])" in text
        assert "Scan(regions cols=[0, 1])" in text
        assert "filtered" not in text
        assert engine.query(self.JOIN).rows == [
            ("US", 2, 12.0), ("ASIA", 1, 6.0), ("EU", 1, 4.0),
        ]

    def test_residual_and_keys_keep_their_columns(self, engine):
        root = engine.plan(
            "SELECT f.day FROM flights f JOIN regions r "
            "ON f.dest = r.city AND f.delay > 10"
        )
        join = root.child
        assert join.left.column_slots == [0, 2, 3]
        assert join.right.column_slots == [0]
        assert join.left_keys == [("col", 1)]
        assert join.right_keys == [("col", 0)]
        assert join.residual == ("cmp", ">", ("col", 2), ("const", 10))

    def test_cross_join_side_read_by_nothing_emits_no_columns(self, engine):
        text = engine.explain("SELECT f.dest FROM flights f CROSS JOIN regions r")
        assert "Scan(flights cols=[2])" in text
        assert "Scan(regions cols=[])" in text

    def test_three_way_join_remaps_through_both_levels(self, engine):
        sql = (
            "SELECT a.day FROM flights a JOIN flights b ON a.dest = b.origin "
            "JOIN regions r ON b.dest = r.city AND a.delay > b.delay"
        )
        text = engine.explain(sql)
        assert "Scan(flights cols=[0, 2, 3])" in text
        assert "Scan(flights cols=[1, 2, 3])" in text
        assert "Scan(regions cols=[0])" in text
        plain = SqlEngine(optimize_plans=False)
        plain.catalog = engine.catalog
        assert engine.query(sql).rows == plain.query(sql).rows

    def test_star_over_a_join_prunes_nothing(self, engine):
        text = engine.explain(
            "SELECT * FROM flights f JOIN regions r ON f.dest = r.city"
        )
        assert "Scan(flights cols=[0, 1, 2, 3])" in text
        assert "Scan(regions cols=[0, 1])" in text

    def test_scan_narrows_under_aggregate(self, engine):
        text = engine.explain("SELECT day, AVG(delay) FROM flights GROUP BY day")
        assert "Scan(flights cols=[0, 3])" in text

    def test_filtered_count_scan_emits_no_columns(self, engine):
        sql = "SELECT COUNT(*) FROM flights WHERE delay > 5"
        assert "Scan(flights cols=[] filtered)" in engine.explain(sql)
        assert engine.query(sql).scalar() == 10

    def test_scan_narrows_under_sort(self, engine):
        # The hidden sort key rides a widened Project under the Sort.
        text = engine.explain("SELECT dest FROM flights ORDER BY delay")
        assert "Sort" in text
        assert "Scan(flights cols=[2, 3])" in text

    def test_having_reads_the_aggregate_not_the_scan(self, engine):
        sql = (
            "SELECT day, COUNT(*) c FROM flights GROUP BY day "
            "HAVING SUM(delay) > 30 ORDER BY day"
        )
        assert "Scan(flights cols=[0, 3])" in engine.explain(sql)
        assert engine.query(sql).rows == [("Fri", 2), ("Sat", 2)]


class TestCachedJoinPlan:
    def test_plan_cached_join_reexecutes_to_the_same_rows(self, engine):
        # Pruning rewrites the join's slots in place, once, at plan
        # time; running the cached tree again must not re-narrow it.
        sql = TestPruningThroughOperators.JOIN
        first = engine.query(sql).rows
        assert engine.query(sql).rows == first
        assert engine.plan_cache_info["hits"] == 1
        statement = engine.prepare(sql)
        assert statement.execute().rows == statement.execute().rows == first


class TestConstantFolding:
    def test_arithmetic_folds(self):
        assert fold_expr(("arith", "+", ("const", 1), ("const", 2))) == (
            "const",
            3,
        )

    def test_nested_folding(self):
        expr = (
            "arith",
            "*",
            ("arith", "+", ("const", 1), ("const", 2)),
            ("const", 3),
        )
        assert fold_expr(expr) == ("const", 9)

    def test_column_blocks_folding(self):
        expr = ("arith", "+", ("col", 0), ("const", 2))
        assert fold_expr(expr) == expr

    def test_comparison_folds(self):
        assert fold_expr(("cmp", "<", ("const", 1), ("const", 2))) == (
            "const",
            True,
        )

    def test_division_by_zero_not_folded(self):
        # Folding must not turn a runtime error into a planner crash.
        expr = ("arith", "/", ("const", 1), ("const", 0))
        assert fold_expr(expr) == expr

    def test_case_branches_fold(self):
        expr = (
            "case",
            ((("cmp", "=", ("col", 0), ("const", 1)),
              ("arith", "+", ("const", 1), ("const", 1))),),
            ("const", 0),
        )
        folded = fold_expr(expr)
        assert folded[1][0][1] == ("const", 2)

    def test_folding_inside_plan(self, engine):
        root = engine.plan("SELECT delay + (1 + 1) FROM flights")
        assert root.exprs[0] == ("arith", "+", ("col", 0), ("const", 2))


class TestIdempotency:
    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_optimize_twice_is_stable(self, engine, sql):
        once = engine.plan(sql)
        twice = optimize(once)
        assert twice.explain() == once.explain()


def _structure(node):
    """A plan tree as nested tuples: every field that is not a relation."""
    fields = {
        name: value
        for name, value in vars(node).items()
        if not isinstance(value, p.PlanNode) and name != "relation"
    }
    return (
        type(node).__name__,
        sorted(fields.items()),
        [_structure(child) for child in node.children()],
    )


class TestStructuralIdempotency:
    """``explain()`` hides expressions; compare the trees themselves."""

    SQL = QUERIES + [
        "SELECT r.b, COUNT(*), SUM(l.m) FROM t l JOIN t r ON l.a = r.a "
        "WHERE l.k > 0 GROUP BY r.b",
        "SELECT l.a FROM t l JOIN t r ON l.a = r.a AND l.k < r.k",
        "SELECT l.a FROM t l CROSS JOIN t r WHERE l.k < r.k ORDER BY r.m",
    ]

    @pytest.mark.parametrize("sql", SQL)
    def test_optimize_twice_is_structurally_once(self, sql):
        engine = SqlEngine()
        engine.catalog.register_rows(
            "t", ["a", "b", "k", "m"], [("Mon", "SF", 1, 2.0)]
        )
        once = engine.plan(sql)
        before = _structure(once)
        assert _structure(optimize(once)) == before


class TestExplain:
    def test_explain_shows_tree(self, engine):
        text = engine.explain(
            "SELECT dest, COUNT(*) FROM flights WHERE delay > 10 "
            "GROUP BY dest ORDER BY 2 DESC LIMIT 3"
        )
        assert "Limit" in text
        assert "Aggregate" in text
        assert "Scan" in text
        # Indentation encodes tree depth.
        assert "  Sort" in text or "Sort" in text
