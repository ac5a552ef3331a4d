"""Test-only reference executor: the row-at-a-time plan interpreter.

This interpreter defines the engine's SQL semantics.  It shipped as
``repro.sql.executor.Executor`` until the vectorized executor became
the only one in ``src/``; it lives here so ``tests/sql`` can hold the
shipped executor to it (``test_parity.py``, and every test using the
``engine`` fixture's ``rows`` param).  Nothing under ``src/`` imports
it.

The executor interprets a plan bottom-up over materialized row lists.
Rows are plain tuples; NULL is ``None``.  Three-valued logic follows
SQL: comparisons with NULL yield NULL, ``AND``/``OR`` short-circuit
through UNKNOWN, and WHERE keeps only rows whose predicate is TRUE.

When a :class:`~repro.engine.cluster.ClusterContext` is supplied, each
operator charges the cost model for the rows it touches, so the
vectorized executor's per-batch charges can be compared with these
per-row ones.
"""

from repro.sql.engine import SqlEngine
from repro.sql.errors import SqlExecutionError
from repro.sql.functions import make_aggregate
from repro.sql.result import ResultSet
from repro.sql.scalar import evaluate, output_names


class Executor:
    """Interprets plans against materialized relations."""

    def __init__(self, cluster=None):
        self._cluster = cluster

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(self, node):
        """Execute ``node``; returns (rows, names)."""
        rows = self._execute(node)
        names = output_names(node)
        return rows, names

    def _execute(self, node):
        method = getattr(self, "_exec_%s" % type(node).__name__.lower())
        return method(node)

    def _charge(self, rows_touched, ops=0):
        if self._cluster is not None:
            cost = self._cluster.cost
            self._cluster.metrics.charge(
                rows_touched * cost.record_seconds + ops * cost.op_seconds
            )

    # ------------------------------------------------------------------
    # Leaf and unary operators
    # ------------------------------------------------------------------

    def _exec_scan(self, node):
        relation = node.relation
        slots = node.column_slots
        full_width = slots == list(range(len(relation.columns)))
        out = []
        predicate = node.predicate
        for row in relation.rows:
            if predicate is not None and evaluate(predicate, row) is not True:
                continue
            out.append(row if full_width else tuple(row[i] for i in slots))
        self._charge(len(relation.rows), ops=len(out))
        return out

    def _exec_filter(self, node):
        child_rows = self._execute(node.child)
        out = [
            row for row in child_rows if evaluate(node.predicate, row) is True
        ]
        self._charge(len(child_rows))
        return out

    def _exec_project(self, node):
        child_rows = self._execute(node.child)
        exprs = node.exprs
        out = [tuple(evaluate(e, row) for e in exprs) for row in child_rows]
        self._charge(len(child_rows), ops=len(child_rows) * len(exprs))
        return out

    def _exec_distinct(self, node):
        child_rows = self._execute(node.child)
        seen = set()
        out = []
        for row in child_rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        self._charge(len(child_rows))
        return out

    def _exec_sort(self, node):
        rows = self._execute(node.child)
        # Stable multi-key sort: apply keys right-to-left.  NULLs sort
        # last under ASC, first under DESC (PostgreSQL default).
        for key_expr, ascending in reversed(list(zip(node.keys, node.ascending))):
            try:
                rows.sort(
                    key=lambda row: _sort_key(evaluate(key_expr, row), ascending),
                    reverse=not ascending,
                )
            except TypeError as exc:
                raise SqlExecutionError("cannot sort: %s" % exc) from exc
        self._charge(len(rows), ops=len(rows))
        return rows

    def _exec_limit(self, node):
        rows = self._execute(node.child)
        start = node.offset or 0
        stop = None if node.limit is None else start + node.limit
        return rows[start:stop]

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _exec_hashjoin(self, node):
        left_rows = self._execute(node.left)
        right_rows = self._execute(node.right)
        build = {}
        for row in right_rows:
            key = tuple(evaluate(k, row) for k in node.right_keys)
            if any(v is None for v in key):
                continue  # NULL never joins
            build.setdefault(key, []).append(row)
        out = []
        for row in left_rows:
            key = tuple(evaluate(k, row) for k in node.left_keys)
            if any(v is None for v in key):
                continue
            for match in build.get(key, ()):
                joined = row + match
                if node.residual is None or evaluate(node.residual, joined) is True:
                    out.append(joined)
        self._charge(len(left_rows) + len(right_rows), ops=len(out))
        return out

    def _exec_crossjoin(self, node):
        left_rows = self._execute(node.left)
        right_rows = self._execute(node.right)
        out = []
        for left in left_rows:
            for right in right_rows:
                joined = left + right
                if node.condition is None or evaluate(node.condition, joined) is True:
                    out.append(joined)
        self._charge(len(left_rows) * max(len(right_rows), 1), ops=len(out))
        return out

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _exec_aggregate(self, node):
        child_rows = self._execute(node.child)
        group_exprs = node.group_exprs
        n_groups = len(group_exprs)
        out = []
        # One pass per grouping set; CUBE over d columns runs 2^d passes,
        # mirroring the 2^d group-bys the naive cube algorithm issues.
        for kept in node.grouping_sets:
            kept_set = frozenset(kept)
            groups = {}
            order = []
            for row in child_rows:
                key = tuple(
                    evaluate(group_exprs[i], row) if i in kept_set else None
                    for i in range(n_groups)
                )
                state = groups.get(key)
                if state is None:
                    state = [
                        make_aggregate(name, count_rows=arg is None, distinct=distinct)
                        for name, arg, distinct in node.agg_specs
                    ]
                    groups[key] = state
                    order.append(key)
                for agg, (name, arg, _distinct) in zip(state, node.agg_specs):
                    agg.add(True if arg is None else evaluate(arg, row))
            if not child_rows and not kept and n_groups == 0:
                # Global aggregate over an empty input still yields one row.
                state = [
                    make_aggregate(name, count_rows=arg is None, distinct=distinct)
                    for name, arg, distinct in node.agg_specs
                ]
                groups[()] = state
                order.append(())
            grouping_bits = tuple(
                0 if i in kept_set else 1 for i in range(n_groups)
            )
            for key in order:
                results = tuple(agg.result() for agg in groups[key])
                out.append(key + results + grouping_bits)
            self._charge(len(child_rows), ops=len(groups) * len(node.agg_specs))
        return out


class _NullLast:
    """Sort wrapper placing NULLs last in ascending order."""

    __slots__ = ("value", "is_null")

    def __init__(self, value, is_null):
        self.value = value
        self.is_null = is_null

    def __lt__(self, other):
        if self.is_null:
            return False
        if other.is_null:
            return True
        return self.value < other.value

    def __eq__(self, other):
        return self.is_null == other.is_null and self.value == other.value


def _sort_key(value, ascending):
    return _NullLast(value, value is None)


class RowOracleEngine(SqlEngine):
    """A :class:`SqlEngine` whose plans run through the row interpreter."""

    def _run(self, logical):
        rows, names = Executor(self._cluster).run(logical)
        return ResultSet(names, rows)
