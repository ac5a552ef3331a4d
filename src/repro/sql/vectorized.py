"""Vectorized physical execution of bound logical plans.

The execution path of :class:`~repro.sql.engine.SqlEngine`: every
operator works on NumPy column batches
(:class:`~repro.sql.columns.Batch`) instead of Python row tuples, so
scans, filters, projections, sorts and aggregations run as a handful of
array operations per batch rather than an interpreter loop per row.

Semantics are defined by the row-at-a-time plan interpreter this
executor replaced; it is the test oracle in ``tests/sql/oracle.py``,
and the parity suite asserts this executor reproduces its results
exactly.  The subtle points preserved here:

- SQL three-valued NULL logic is carried as validity masks; operations
  only touch valid lanes, so NULL placeholders never leak into values;
- ``AND`` / ``OR`` / ``CASE`` evaluate their lazy operands only on the
  lanes the row interpreter would reach, so data-dependent errors
  (division by zero in a guarded branch) behave identically;
- sorts are stable with the row interpreter's NULL placement (last
  under ASC, first under DESC) and aggregates accumulate in row order,
  making float results bit-identical;
- groups and DISTINCT rows surface in first-occurrence order, matching
  the row interpreter's dict-based iteration order.

Joins are columnar too: a join computes ``(left_idx, right_idx)`` index
arrays and gathers both children's columns through them.  The contract
a hash join keeps with the row interpreter's build-dict/probe loop:

- each key position is factorized *jointly* over build and probe
  values under Python equality — ``np.unique`` within one numeric
  dtype, a dict for ``object`` columns and for two sides of different
  dtypes — so ``1 = 1.0 = TRUE`` joins and a big int never rounds;
- a row with a NULL in any key joins nothing;
- pairs surface in probe-row order, then build-row order within a key
  (the build side is stable-sorted by code and each probe row expands
  to its code's run, counted by ``bincount`` and started at the
  exclusive prefix sum), so ``SUM`` over a join adds in the same order
  and is bit-identical;
- the residual (and a cross join's condition) is evaluated on exactly
  the pairs the loop reaches — the key-matched pairs, or every pair of
  the product — so its data-dependent errors surface identically.

Group and join keys fold into one int64 code per row whose *span*
(the exclusive bound of the codes) is known exactly.  When the span is
at most the row count ``n``, the codes are sorted by counting over a
span-sized array: a group's first row is one ``np.minimum.at``, a join
run one ``np.bincount``.  Above ``n`` a span-sized array would outgrow
the input, and the comparison sort runs instead — ``np.unique`` for
groups, two ``np.searchsorted`` for join runs.  Both paths give the
same group ids, first rows and pair order; the input's shape picks
one, nothing else does.

One deliberate divergence: NaN *keys*, where the row interpreter's
dict keying is object-identity-dependent.  For group keys it groups
the same NaN object together and splits distinct ones; this path
follows PostgreSQL instead — all NaN keys form one group via
np.unique.  For join keys it pairs a NaN only with the very same
object (a self-join matches each NaN row to itself, two tables never
match); this path follows the engine's own ``=`` — NaN equals nothing,
so a NaN key never joins, whatever the column's dtype.  NaN aggregate
*inputs* are not affected: MIN/MAX fall back to the accumulators so
NaN-skipping matches the reference exactly.

Dictionary columns (:class:`~repro.sql.columns.DictColumn`, what a
registered :class:`~repro.data.table.Table`'s dimensions become) stay
coded wherever an operator can answer from the dictionary: it evaluates
once per *present* entry (one held by a valid lane) and gathers the
answer through the row codes.  Four operators do — key factorization
(group and join keys), ``column <op> constant``, ``IN (constants)``
and sort keys — and every other one reads the decoded ``values``, a
plain ``object`` array.  The contract:

- entries are never merged: each row's object *is* its entry, so
  coding the entries under Python equality gives exactly the per-row
  equality classes, ``1 = 1.0 = TRUE`` and NaN identity included;
- an entry-wise comparison runs the same ufunc on the same operand
  dtypes as the row-wide one, only on fewer lanes; if it raises, the
  row-wide comparison runs instead, so the identical error surfaces;
- sort keys rank the entries only when every present entry is exactly
  ``str`` (ranked by Python's own ``<``, equal strings equal ranks —
  never through NumPy's ``U`` dtype, which drops trailing NULs); any
  other dictionary sorts its decoded values.

Cluster metering is per batch: each operator issues one
:meth:`charge` for the whole batch it touched, with the same totals as
the row interpreter charges row by row, so platform-sim benchmarks
read the same as they did under it.
"""

import numpy as np

from repro.sql import plan as plan_nodes
from repro.sql.columns import (
    Batch,
    Column,
    DictColumn,
    column_from_values,
    combined_validity,
    concat_columns,
    constant_column,
    scatter_columns,
)
from repro.sql.errors import SqlExecutionError
from repro.sql.scalar import output_names
from repro.sql.functions import (
    VECTORIZED_AGGREGATES,
    group_avg,
    group_count,
    group_min_max,
    group_sum,
    make_aggregate,
)


class VectorizedExecutor:
    """Interprets plans over columnar batches."""

    def __init__(self, cluster=None):
        self._cluster = cluster

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(self, node):
        """Execute ``node``; returns (batch, names)."""
        batch = self._execute(node)
        return batch, output_names(node)

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
        columns, n = relation.column_data()
        # The predicate's slots index the relation, so it sees the full
        # batch; only the emitted columns are gathered.
        out = Batch([columns[i] for i in node.column_slots], n)
        if node.predicate is not None:
            keep = strict_true(eval_expr(node.predicate, Batch(columns, n)))
            out = out.take(np.nonzero(keep)[0])
        self._charge(n, ops=out.n)
        return out

    def _exec_filter(self, node):
        batch = self._execute(node.child)
        keep = strict_true(eval_expr(node.predicate, batch))
        self._charge(batch.n)
        return batch.take(np.nonzero(keep)[0])

    def _exec_project(self, node):
        batch = self._execute(node.child)
        out = [eval_expr(e, batch) for e in node.exprs]
        self._charge(batch.n, ops=batch.n * len(node.exprs))
        return Batch(out, batch.n)

    def _exec_distinct(self, node):
        batch = self._execute(node.child)
        seen = set()
        keep = []
        for i, row in enumerate(batch.to_rows()):
            if row not in seen:
                seen.add(row)
                keep.append(i)
        self._charge(batch.n)
        return batch.take(np.asarray(keep, dtype=np.int64))

    def _exec_sort(self, node):
        batch = self._execute(node.child)
        n = batch.n
        order = np.arange(n)
        # Stable multi-key sort, keys applied right-to-left, with the
        # row interpreter's NULL placement (last under ASC, first under
        # DESC) and tie order.
        for key_expr, ascending in reversed(
            list(zip(node.keys, node.ascending))
        ):
            col = eval_expr(key_expr, batch)
            current = _sort_values(col)[order]
            if col.valid is None:
                valid_pos = np.arange(len(order))
                null_pos = valid_pos[:0]
            else:
                current_valid = col.valid[order]
                valid_pos = np.nonzero(current_valid)[0]
                null_pos = np.nonzero(~current_valid)[0]
            if ascending:
                ranks = _stable_argsort(current[valid_pos])
                order = np.concatenate(
                    [order[valid_pos[ranks]], order[null_pos]]
                )
            else:
                # Stable descending: reverse, stable-ascending, reverse
                # again, so ties keep their original relative order.
                reversed_pos = valid_pos[::-1]
                ranks = _stable_argsort(current[reversed_pos])
                order = np.concatenate(
                    [order[null_pos], order[reversed_pos[ranks]][::-1]]
                )
        self._charge(n, ops=n)
        return batch.take(order)

    def _exec_limit(self, node):
        batch = self._execute(node.child)
        start = node.offset or 0
        stop = batch.n if node.limit is None else min(start + node.limit, batch.n)
        start = min(start, batch.n)
        n = max(0, stop - start)
        return Batch([c.slice(start, stop) for c in batch.columns], n)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _exec_hashjoin(self, node):
        left = self._execute(node.left)
        right = self._execute(node.right)
        left_idx, right_idx = _equi_join_pairs(
            [eval_expr(k, left) for k in node.left_keys],
            [eval_expr(k, right) for k in node.right_keys],
        )
        joined = _gather_pairs(left, right, left_idx, right_idx, node.residual)
        self._charge(left.n + right.n, ops=joined.n)
        return joined

    def _exec_crossjoin(self, node):
        left = self._execute(node.left)
        right = self._execute(node.right)
        joined = _gather_pairs(
            left,
            right,
            np.repeat(np.arange(left.n), right.n),
            np.tile(np.arange(right.n), left.n),
            node.condition,
        )
        self._charge(left.n * max(right.n, 1), ops=joined.n)
        return joined

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _exec_aggregate(self, node):
        batch = self._execute(node.child)
        n = batch.n
        group_cols = [eval_expr(e, batch) for e in node.group_exprs]
        arg_cols = [
            None if arg is None else eval_expr(arg, batch)
            for _name, arg, _distinct in node.agg_specs
        ]
        num_group_exprs = len(node.group_exprs)
        set_batches = []
        # One pass per grouping set; CUBE over d columns runs 2^d passes,
        # mirroring the 2^d group-bys the naive cube algorithm issues.
        for kept in node.grouping_sets:
            kept_set = frozenset(kept)
            if n == 0:
                if not kept and num_group_exprs == 0:
                    # Global aggregate over an empty input: one row of
                    # empty-accumulator results.
                    results = [
                        column_from_values(
                            [
                                make_aggregate(
                                    name, count_rows=arg is None,
                                    distinct=distinct,
                                ).result()
                            ]
                        )
                        for name, arg, distinct in node.agg_specs
                    ]
                    set_batches.append(Batch(results, 1))
                self._charge(0, ops=0)
                continue
            codes, first_idx, num_groups = _group_codes(
                [group_cols[i] for i in sorted(kept_set)], n
            )
            columns = []
            for j in range(num_group_exprs):
                if j in kept_set:
                    columns.append(group_cols[j].take(first_idx))
                else:
                    columns.append(_null_like(group_cols[j], num_groups))
            for spec, arg_col in zip(node.agg_specs, arg_cols):
                columns.append(
                    _aggregate_column(spec, arg_col, codes, num_groups)
                )
            for j in range(num_group_exprs):
                bit = 0 if j in kept_set else 1
                columns.append(Column(np.full(num_groups, bit, dtype=np.int64)))
            set_batches.append(Batch(columns, num_groups))
            self._charge(n, ops=num_groups * len(node.agg_specs))
        if not set_batches:
            return Batch(
                [Column(np.empty(0, dtype=object)) for _ in range(node.output_width)],
                0,
            )
        if len(set_batches) == 1:
            return set_batches[0]
        width = len(set_batches[0].columns)
        merged = [
            concat_columns([b.columns[i] for b in set_batches])
            for i in range(width)
        ]
        return Batch(merged, sum(b.n for b in set_batches))


def _stable_argsort(values):
    try:
        return np.argsort(values, kind="stable")
    except TypeError as exc:
        raise SqlExecutionError("cannot sort: %s" % exc) from exc


def _sort_values(col):
    """What a sort key orders by: entry ranks for a ``str`` dictionary.

    Ranks come from Python's own ``<`` over the present entries, equal
    strings sharing a rank, so a stable argsort of the int ranks is the
    stable argsort of the strings.  Ranks that fit 16 bits are
    ``uint16``, which NumPy's stable argsort radix-sorts.  Any other
    column (or dictionary) sorts its values.
    """
    if isinstance(col, DictColumn):
        entries = col.present()
        present = col.dictionary[entries].tolist()
        if all(type(v) is str for v in present):
            rank_of = {v: i for i, v in enumerate(sorted(set(present)))}
            fits = len(rank_of) <= 2**16  # ranks 0 .. 65535
            ranks = np.zeros(
                len(col.dictionary), dtype=np.uint16 if fits else np.int64
            )
            ranks[entries] = [rank_of[v] for v in present]
            return ranks[col.codes]
    return col.values


def _null_like(col, n):
    """An all-NULL column like ``col`` (CUBE wildcards).

    A dictionary column yields an all-NULL one over the same dictionary,
    so the grouping sets' concatenation stays coded.
    """
    invalid = np.zeros(n, dtype=bool)
    if isinstance(col, DictColumn):
        return DictColumn(np.zeros(n, dtype=np.int64), col.dictionary, invalid)
    return Column(np.zeros(n, dtype=col.values.dtype), invalid)


# ----------------------------------------------------------------------
# Key codes: grouping and equi-joins
# ----------------------------------------------------------------------


def _factorize(col):
    """Per-row codes of one key column: ``(codes, cardinality, uniques)``.

    Values are coded under Python equality, ``uniques[code]`` being the
    value (``np.unique`` over one numeric dtype; a dict over ``object``
    values, so ``1``, ``1.0`` and ``True`` share a code exactly as they
    share a dict slot).  NULLs share the one extra code
    ``len(uniques)``.  A dictionary column codes its present entries
    and gathers through the row codes.
    """
    if isinstance(col, DictColumn):
        return _factorize_dictionary(col)
    values = col.values
    n = len(values)
    codes = np.zeros(n, dtype=np.int64)
    if col.valid is None:
        valid_idx = None
        subset = values
    else:
        valid_idx = np.nonzero(col.valid)[0]
        subset = values[valid_idx]
    if subset.dtype == object:
        inverse, uniques = _hash_codes(subset)
    else:
        uniques, inverse = np.unique(subset, return_inverse=True)
    if valid_idx is None:
        codes = np.asarray(inverse, dtype=np.int64)
        return codes, len(uniques), uniques
    codes[:] = len(uniques)  # NULL lanes
    codes[valid_idx] = inverse
    return codes, len(uniques) + 1, uniques


def _hash_codes(objects):
    """``(inverse, uniques)`` of an ``object`` array under Python equality.

    Hash-based factorization: O(n), no ordering requirement, and
    measurably faster than sort-based np.unique on Python objects.
    """
    code_of = {}
    inverse = np.empty(len(objects), dtype=np.int64)
    for i, value in enumerate(objects.tolist()):
        code = code_of.get(value)
        if code is None:
            code = len(code_of)
            code_of[value] = code
        inverse[i] = code
    return inverse, list(code_of)


def _factorize_dictionary(col):
    """:func:`_factorize` of a :class:`DictColumn`, one dict probe per entry."""
    entries = col.present()
    inverse, uniques = _hash_codes(col.dictionary[entries])
    null_code = len(uniques)
    lookup = np.full(len(col.dictionary), null_code, dtype=np.int64)
    lookup[entries] = inverse
    codes = lookup[col.codes]
    if col.valid is None:
        return codes, len(uniques), uniques
    codes[~col.valid] = null_code
    return codes, len(uniques) + 1, uniques


#: Largest mixed-radix span folded without re-densifying; one more
#: multiply by a cardinality below 2**31 cannot leave int64.
_MAX_CODE_SPAN = 2**62


def _fold_codes(parts, n):
    """``(codes, span)``: one int64 code per row, all below ``span``.

    ``parts`` are per-column ``(codes, cardinality)`` pairs.

    Rows get equal codes exactly when every column's codes are equal.
    The fold is the mixed-radix ``combined * cardinality + codes``; its
    span is the *product* of the cardinalities, so before a multiply
    that could pass int64 the codes so far are re-densified to at most
    ``n`` distinct values — a wrap would silently merge distinct keys.
    """
    combined = np.zeros(n, dtype=np.int64)
    span = 1  # exclusive bound of ``combined``, as an exact Python int
    for codes, cardinality in parts:
        if span * cardinality > _MAX_CODE_SPAN:
            dense, combined = np.unique(combined, return_inverse=True)
            span = len(dense)
        combined = combined * cardinality + codes
        span *= cardinality
    return combined, span


def _group_codes(key_columns, n):
    """Group id per row, first-occurrence row per group, group count.

    Group ids are assigned in first-occurrence order of the combined
    key, matching the row interpreter's dict iteration order.  Codes
    spanning at most ``n`` are counted; wider ones are sorted.
    """
    if not key_columns:
        return (
            np.zeros(n, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            1,
        )
    combined, span = _fold_codes(
        [_factorize(col)[:2] for col in key_columns], n
    )
    if span > n:
        return _group_codes_by_sorting(combined)
    first_of = np.full(span, n, dtype=np.int64)  # n: no row holds the code
    np.minimum.at(first_of, combined, np.arange(n))
    # First rows are distinct, so sorting them orders groups by first seen.
    first = np.sort(first_of[first_of < n])
    group_of = np.empty(span, dtype=np.int64)
    group_of[combined[first]] = np.arange(len(first))
    return group_of[combined], first, len(first)


def _group_codes_by_sorting(combined):
    """:func:`_group_codes` over codes too sparse to count: ``np.unique``."""
    uniques, first, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    by_first_seen = np.argsort(first, kind="stable")
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[by_first_seen] = np.arange(len(uniques))
    return rank[inverse], first[by_first_seen], len(uniques)


def _never_equal(uniques):
    """Mask of float NaNs among a key's unique values (``NaN = NaN`` is false)."""
    if isinstance(uniques, np.ndarray):
        if uniques.dtype == np.float64:
            return np.isnan(uniques)
        return np.zeros(len(uniques), dtype=bool)
    return np.fromiter(
        (isinstance(u, float) and u != u for u in uniques),
        dtype=bool,
        count=len(uniques),
    )


def _equi_join_pairs(probe_keys, build_keys):
    """``(probe_idx, build_idx)`` of every row pair equal on all keys.

    Each key position is factorized jointly over build and probe values,
    so a pair matches exactly when the row interpreter's build dict
    would find it; rows with a NULL or NaN key match nothing.  Pairs
    come in probe-row order, then build-row order within a key — the
    order a probe loop over ``dict.setdefault(key, []).append(row)``
    emits, which keeps float sums over a join bit-identical.
    """
    n_build = len(build_keys[0])
    n = n_build + len(probe_keys[0])
    joinable = np.ones(n, dtype=bool)
    parts = []
    for build_col, probe_col in zip(build_keys, probe_keys):
        codes, cardinality, uniques = _factorize(
            concat_columns([build_col, probe_col])
        )
        dead = np.ones(cardinality, dtype=bool)  # the NULL code stays dead
        dead[: len(uniques)] = _never_equal(uniques)
        joinable &= ~dead[codes]
        parts.append((codes, cardinality))
    combined, span = _fold_codes(parts, n)
    build_rows = np.nonzero(joinable[:n_build])[0]
    probe_rows = np.nonzero(joinable[n_build:])[0]
    by_code = np.argsort(combined[build_rows], kind="stable")
    build_rows = build_rows[by_code]
    build_codes = combined[build_rows]
    probe_codes = combined[n_build + probe_rows]
    if span > n:
        first, counts = _build_runs_by_search(build_codes, probe_codes)
    else:
        # Counting: code c's run in the sorted build side starts after
        # every smaller code's rows — the exclusive prefix sum.
        code_rows = np.bincount(build_codes, minlength=span)
        code_first = np.cumsum(code_rows) - code_rows
        first, counts = code_first[probe_codes], code_rows[probe_codes]
    probe_idx = np.repeat(probe_rows, counts)
    # Each probe row's matches are the run build_rows[first : first + count].
    run_start = np.repeat(first - (np.cumsum(counts) - counts), counts)
    build_idx = build_rows[np.arange(len(probe_idx)) + run_start]
    return probe_idx, build_idx


def _build_runs_by_search(build_codes, probe_codes):
    """Each probe code's ``(first, count)`` run in sorted ``build_codes``.

    The comparison-sort path of :func:`_equi_join_pairs`, for codes too
    sparse to count: two binary searches per probe row.
    """
    first = np.searchsorted(build_codes, probe_codes, side="left")
    counts = np.searchsorted(build_codes, probe_codes, side="right") - first
    return first, counts


def _gather_pairs(left, right, left_idx, right_idx, condition):
    """Batch of ``left[left_idx] + right[right_idx]`` rows passing ``condition``.

    The condition is evaluated on exactly the given pairs, so its
    data-dependent errors surface for the pairs the row interpreter's
    join loop reaches and no others.
    """
    joined = Batch(
        left.take(left_idx).columns + right.take(right_idx).columns,
        len(left_idx),
    )
    if condition is not None:
        keep = strict_true(eval_expr(condition, joined))
        joined = joined.take(np.nonzero(keep)[0])
    return joined


def _aggregate_column(spec, arg_col, codes, num_groups):
    """One aggregate's per-group results as a Column."""
    name, arg, distinct = spec
    vectorizable = (
        not distinct
        and name in VECTORIZED_AGGREGATES
        and (arg is None or arg_col.values.dtype != object)
        and not _needs_exact_fallback(name, arg_col)
    )
    if not vectorizable:
        return _aggregate_with_accumulators(spec, arg_col, codes, num_groups)
    if arg is None:  # COUNT(*)
        counts, _ = group_count(codes, num_groups)
        return Column(counts)
    if arg_col.valid is None:
        valid_codes, values = codes, arg_col.values
    else:
        valid_idx = np.nonzero(arg_col.valid)[0]
        valid_codes, values = codes[valid_idx], arg_col.values[valid_idx]
    if name == "COUNT":
        counts, _ = group_count(valid_codes, num_groups)
        return Column(counts)
    if name == "SUM":
        totals, valid = group_sum(valid_codes, values, num_groups)
        return Column(totals, None if valid.all() else valid)
    if name == "AVG":
        means, valid = group_avg(valid_codes, values, num_groups)
        return Column(means, None if valid.all() else valid)
    largest = name == "MAX"
    best, valid = group_min_max(valid_codes, values, num_groups, largest)
    return Column(best, None if valid.all() else valid)


def _needs_exact_fallback(name, arg_col):
    """Inputs whose kernel result would diverge from the accumulators.

    - float MIN/MAX: np.minimum/np.maximum propagate NaN while the
      accumulators' ``<``/``>`` comparisons skip it;
    - int SUM: np.add.at accumulates in int64 and would silently wrap
      where the accumulators return exact Python big ints.
    """
    if arg_col is None:
        return False
    values = arg_col.values
    if name in ("MIN", "MAX"):
        return values.dtype == np.float64 and bool(np.isnan(values).any())
    if name == "SUM" and values.dtype == np.int64 and len(values):
        bound = (2**63 - 1) // len(values)
        return bool(values.max() > bound or values.min() < -bound)
    return False


def _aggregate_with_accumulators(spec, arg_col, codes, num_groups):
    """Accumulator fallback (DISTINCT, VARIANCE/STDDEV, object inputs).

    Rows feed each group's accumulator in row order, exactly as the row
    interpreter does, so results — including Welford variance and
    DISTINCT first-seen folding — are identical.
    """
    name, arg, distinct = spec
    states = [
        make_aggregate(name, count_rows=arg is None, distinct=distinct)
        for _ in range(num_groups)
    ]
    if arg is None:
        for code in codes.tolist():
            states[code].add(True)
    else:
        for code, value in zip(codes.tolist(), arg_col.to_pylist()):
            states[code].add(value)
    return column_from_values([state.result() for state in states])


# ----------------------------------------------------------------------
# Vectorized expression evaluation
# ----------------------------------------------------------------------


def strict_true(col):
    """Lanes whose value is literally True (SQL WHERE/HAVING keep rule)."""
    if col.values.dtype == bool:
        return col.values if col.valid is None else col.values & col.valid
    n = len(col.values)
    if col.values.dtype == object:
        mask = np.fromiter(
            (v is True for v in col.values), dtype=bool, count=n
        )
        return mask if col.valid is None else mask & col.valid
    return np.zeros(n, dtype=bool)


def _truth_masks(col):
    """(true-ish, false) lane masks for AND/OR combination.

    Mirrors the row interpreter, which treats any evaluated value other
    than False/None as truthy inside AND/OR.
    """
    n = len(col.values)
    validity = col.validity()
    if col.values.dtype == bool:
        false = validity & ~col.values
    elif col.values.dtype == object:
        false = (
            np.fromiter(
                (v is False for v in col.values), dtype=bool, count=n
            )
            & validity
        )
    else:
        false = np.zeros(n, dtype=bool)
    return validity & ~false, false


def eval_expr(expr, batch):
    """Evaluate a bound expression over a batch; returns a Column."""
    tag = expr[0]
    n = batch.n
    if tag == "col":
        return batch.columns[expr[1]]
    if tag == "const":
        return constant_column(expr[1], n)
    if tag == "cmp":
        return _eval_compare(expr, batch, n)
    if tag == "arith":
        return _arithmetic(
            expr[1], eval_expr(expr[2], batch), eval_expr(expr[3], batch), n
        )
    if tag == "and":
        return _logical(expr, batch, is_and=True)
    if tag == "or":
        return _logical(expr, batch, is_and=False)
    if tag == "not":
        return _negate_logic(eval_expr(expr[1], batch), n)
    if tag == "neg":
        return _negate_value(eval_expr(expr[1], batch), n)
    if tag == "isnull":
        col = eval_expr(expr[1], batch)
        is_null = (
            np.zeros(n, dtype=bool) if col.valid is None else ~col.valid
        )
        return Column(~is_null if expr[2] else is_null)
    if tag == "in":
        return _in_constants(eval_expr(expr[1], batch), expr[2], expr[3], n)
    if tag == "in_exprs":
        return _in_exprs(expr, batch, n)
    if tag == "between":
        return _between(expr, batch, n)
    if tag == "case":
        return _case(expr, batch, n)
    if tag == "cast":
        return _cast(eval_expr(expr[1], batch), expr[2], n)
    if tag == "call":
        return _call(expr, batch, n)
    if tag == "grouping":
        raise SqlExecutionError("GROUPING() used outside an aggregate context")
    raise SqlExecutionError("unknown expression tag %r" % tag)


def _valid_lanes(valid, n):
    """Indices of valid lanes, or None meaning all of them."""
    return None if valid is None else np.nonzero(valid)[0]


_CMP_UFUNCS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _compare(op, left, right, n):
    try:
        ufunc = _CMP_UFUNCS[op]
    except KeyError:
        raise SqlExecutionError("unknown comparison %r" % op) from None
    valid = combined_validity((left, right), n)
    idx = _valid_lanes(valid, n)
    try:
        if idx is None:
            result = np.asarray(ufunc(left.values, right.values), dtype=bool)
            return Column(result)
        result = np.asarray(
            ufunc(left.values[idx], right.values[idx]), dtype=bool
        )
    except TypeError as exc:
        raise SqlExecutionError("cannot compare: %s" % exc) from exc
    out = np.zeros(n, dtype=bool)
    out[idx] = result
    return Column(out, valid)


def _eval_compare(expr, batch, n):
    """``cmp``: a dictionary column against a constant compares entries."""
    op, left_expr, right_expr = expr[1], expr[2], expr[3]
    left = None if left_expr[0] == "const" else eval_expr(left_expr, batch)
    right = None if right_expr[0] == "const" else eval_expr(right_expr, batch)
    if isinstance(left, DictColumn) and right is None:
        return _compare_entries(op, left, right_expr[1], n, constant_left=False)
    if isinstance(right, DictColumn) and left is None:
        return _compare_entries(op, right, left_expr[1], n, constant_left=True)
    if left is None:
        left = constant_column(left_expr[1], n)
    if right is None:
        right = constant_column(right_expr[1], n)
    return _compare(op, left, right, n)


def _compare_entries(op, col, value, n, constant_left):
    """``col <op> value`` over ``col``'s present entries, then gathered."""

    def compare(column, m):
        constant = constant_column(value, m)
        if constant_left:
            return _compare(op, constant, column, m)
        return _compare(op, column, constant, m)

    entries = col.present()
    try:
        result = compare(Column(col.dictionary[entries]), len(entries))
    except SqlExecutionError:
        return compare(col, n)  # row-wide, so the identical error surfaces
    return _gather_entries(col, entries, result)


def _gather_entries(col, entries, result):
    """A bool Column: ``result`` (one lane per present entry) at every row.

    Rows NULL in ``col``, or whose entry's answer is NULL, are NULL.
    """
    lookup = np.zeros(len(col.dictionary), dtype=bool)
    lookup[entries] = result.values
    out = lookup[col.codes]
    lane_valid = col.valid
    if result.valid is not None:
        entry_valid = np.zeros(len(col.dictionary), dtype=bool)
        entry_valid[entries] = result.valid
        lane_valid = entry_valid[col.codes]
        if col.valid is not None:
            lane_valid &= col.valid
    if lane_valid is not None:
        out &= lane_valid  # NULL lanes hold False, as _compare leaves them
    return Column(out, lane_valid)


def _numeric_operand(values):
    """Bools participate in arithmetic as ints (Python semantics)."""
    return values.astype(np.int64) if values.dtype == bool else values


def _arithmetic(op, left, right, n):
    valid = combined_validity((left, right), n)
    idx = _valid_lanes(valid, n)
    if idx is None:
        lv, rv = left.values, right.values
    else:
        lv, rv = left.values[idx], right.values[idx]
    if op == "||":
        result = np.empty(len(lv), dtype=object)
        result[:] = [
            str(a) + str(b) for a, b in zip(lv.tolist(), rv.tolist())
        ]
        return _scatter_result(result, idx, valid, n)
    lv = _numeric_operand(lv)
    rv = _numeric_operand(rv)
    if op in ("+", "-", "*") and _int_overflow_possible(op, lv, rv):
        # Exact Python big-int arithmetic instead of silent int64 wrap.
        lv = lv.astype(object)
        rv = rv.astype(object)
    try:
        if op == "+":
            result = lv + rv
        elif op == "-":
            result = lv - rv
        elif op == "*":
            result = lv * rv
        elif op == "/":
            if np.any(rv == 0):
                raise SqlExecutionError("division by zero")
            result = lv / rv  # SQL float division, PostgreSQL-style
        elif op == "%":
            if np.any(rv == 0):
                raise SqlExecutionError("modulo by zero")
            result = lv % rv
        else:
            raise SqlExecutionError("unknown operator %r" % op)
    except TypeError as exc:
        raise SqlExecutionError("bad operands for %s" % op) from exc
    return _scatter_result(np.asarray(result), idx, valid, n)


def _int_overflow_possible(op, lv, rv):
    """Could an int64 +/-/* wrap?  Checked on exact Python-int bounds."""
    if lv.dtype != np.int64 or rv.dtype != np.int64 or not len(lv):
        return False
    left_bound = max(abs(int(lv.max())), abs(int(lv.min())))
    right_bound = max(abs(int(rv.max())), abs(int(rv.min())))
    limit = 2**63 - 1
    if op == "*":
        return left_bound * right_bound > limit
    return left_bound + right_bound > limit


def _scatter_result(result, idx, valid, n):
    """Place a valid-lane result array back into a full-width column."""
    if idx is None:
        return Column(result)
    if result.dtype == object:
        out = np.empty(n, dtype=object)
    else:
        out = np.zeros(n, dtype=result.dtype)
    out[idx] = result
    return Column(out, valid)


def _logical(expr, batch, is_and):
    """AND/OR with the row interpreter's lazy right-operand evaluation.

    The right operand is evaluated only on lanes where the left operand
    does not already decide the result, so data-dependent errors in the
    right operand surface for exactly the rows the row path would reach.
    """
    n = batch.n
    left = eval_expr(expr[1], batch)
    left_true, left_false = _truth_masks(left)
    decided = left_false if is_and else left_true
    need = ~decided
    right_true = np.zeros(n, dtype=bool)
    right_false = np.zeros(n, dtype=bool)
    if need.all():
        right_true, right_false = _truth_masks(eval_expr(expr[2], batch))
    elif need.any():
        idx = np.nonzero(need)[0]
        sub = eval_expr(expr[2], batch.take(idx))
        sub_true, sub_false = _truth_masks(sub)
        right_true[idx] = sub_true
        right_false[idx] = sub_false
    if is_and:
        true = left_true & right_true
        false = left_false | right_false
    else:
        true = left_true | right_true
        false = left_false & right_false
    return Column(true, true | false)


def _negate_logic(col, n):
    """NOT: None stays None; otherwise Python ``not value``."""
    validity = col.valid
    if col.values.dtype == bool:
        values = ~col.values
    elif col.values.dtype == object:
        values = np.fromiter(
            (not v for v in col.values), dtype=bool, count=n
        )
    else:
        values = col.values == 0
    return Column(np.asarray(values, dtype=bool), validity)


def _negate_value(col, n):
    idx = _valid_lanes(col.valid, n)
    values = col.values if idx is None else col.values[idx]
    values = _numeric_operand(values)
    if values.dtype == np.int64 and len(values) and bool(
        (values == np.iinfo(np.int64).min).any()
    ):
        values = values.astype(object)  # -INT64_MIN wraps; go exact
    result = -values
    return _scatter_result(np.asarray(result), idx, col.valid, n)


def _in_constants(col, constants, negated, n):
    if isinstance(col, DictColumn):
        entries = col.present()
        hits = np.fromiter(
            (v in constants for v in col.dictionary[entries].tolist()),
            dtype=bool,
            count=len(entries),
        )
        return _gather_entries(col, entries, Column(~hits if negated else hits))
    idx = _valid_lanes(col.valid, n)
    values = col.values if idx is None else col.values[idx]
    hits = np.fromiter(
        (v in constants for v in values.tolist()),
        dtype=bool,
        count=len(values),
    )
    if negated:
        hits = ~hits
    return _scatter_result(hits, idx, col.valid, n)


def _in_exprs(expr, batch, n):
    """IN over expression items, with the row path's lazy item walk.

    Each item is evaluated only on lanes that are still undecided — a
    NULL operand or an earlier match stops the walk for that lane, so
    data-dependent errors in later items surface for exactly the rows
    the row interpreter reaches.
    """
    operand = eval_expr(expr[1], batch)
    negated = expr[3]
    matched = np.zeros(n, dtype=bool)
    saw_null = np.zeros(n, dtype=bool)
    op_validity = operand.validity()
    remaining = np.nonzero(op_validity)[0]
    for item_expr in expr[2]:
        if not len(remaining):
            break
        sub_batch = batch.take(remaining)
        item = eval_expr(item_expr, sub_batch)
        if item.valid is not None:
            saw_null[remaining] |= ~item.valid
        sub_operand = operand.take(remaining)
        hit = strict_true(_compare("=", sub_operand, item, len(remaining)))
        matched[remaining[hit]] = True
        remaining = remaining[~hit]
    validity = op_validity & (matched | ~saw_null)
    values = (~matched if negated else matched) & validity
    return Column(values, None if validity.all() else validity)


def _between(expr, batch, n):
    value = eval_expr(expr[1], batch)
    low = eval_expr(expr[2], batch)
    high = eval_expr(expr[3], batch)
    valid = combined_validity((value, low, high), n)
    idx = _valid_lanes(valid, n)
    if idx is None:
        vv, lv, hv = value.values, low.values, high.values
    else:
        vv, lv, hv = value.values[idx], low.values[idx], high.values[idx]
    # Mirror Python's chained-comparison short-circuit per lane: the
    # upper bound is only compared where the lower bound held, so a
    # TypeError surfaces for exactly the rows the row path evaluates.
    hits = np.asarray(lv <= vv, dtype=bool)
    passed = np.nonzero(hits)[0]
    if len(passed):
        hits[passed] = np.asarray(vv[passed] <= hv[passed], dtype=bool)
    if expr[4]:
        hits = ~hits
    return _scatter_result(hits, idx, valid, n)


def _case(expr, batch, n):
    """CASE with per-branch lane masking (lazy branch evaluation)."""
    remaining = np.arange(n)
    pieces = []
    for condition, result in expr[1]:
        if not len(remaining):
            break
        sub = batch.take(remaining)
        hit = strict_true(eval_expr(condition, sub))
        taken = remaining[hit]
        if len(taken):
            pieces.append((taken, eval_expr(result, batch.take(taken))))
        remaining = remaining[~hit]
    if len(remaining):
        pieces.append((remaining, eval_expr(expr[2], batch.take(remaining))))
    if len(pieces) == 1 and len(pieces[0][0]) == n:
        return pieces[0][1]
    return scatter_columns(n, pieces)


def _cast(col, type_name, n):
    idx = _valid_lanes(col.valid, n)
    values = col.values if idx is None else col.values[idx]
    try:
        if type_name == "INTEGER":
            if values.dtype == np.float64 and not np.isfinite(values).all():
                raise SqlExecutionError(
                    "cannot cast non-finite value to INTEGER"
                )
            if values.dtype == object or (
                values.dtype == np.float64
                and len(values)
                and bool((np.abs(values) >= 2.0**63).any())
            ):
                # Exact Python int() — object inputs, and floats whose
                # truncation exceeds int64 (astype would wrap silently).
                result = np.empty(len(values), dtype=object)
                result[:] = [int(v) for v in values.tolist()]
                if all(
                    -(2**63) <= v <= 2**63 - 1 for v in result.tolist()
                ):
                    result = result.astype(np.int64)
            else:
                result = values.astype(np.int64)
        elif type_name == "FLOAT":
            if values.dtype == object:
                result = np.fromiter(
                    (float(v) for v in values.tolist()),
                    dtype=np.float64,
                    count=len(values),
                )
            else:
                result = values.astype(np.float64)
        elif type_name == "TEXT":
            result = np.empty(len(values), dtype=object)
            result[:] = [str(v) for v in values.tolist()]
        else:
            raise SqlExecutionError("unknown cast type %r" % type_name)
    except (TypeError, ValueError) as exc:
        raise SqlExecutionError(
            "cannot cast to %s: %s" % (type_name, exc)
        ) from exc
    return _scatter_result(result, idx, col.valid, n)


def _call(expr, batch, n):
    fn, null_aware, args = expr[1], expr[2], expr[3]
    arg_cols = [eval_expr(a, batch) for a in args]
    if null_aware:
        # The function sees NULLs; call it on every lane.
        arg_lists = [c.to_pylist() for c in arg_cols]
        results = [_apply(fn, values) for values in zip(*arg_lists)]
        if not arg_lists:
            results = [_apply(fn, ()) for _ in range(n)]
        return column_from_values(results)
    valid = combined_validity(arg_cols, n)
    idx = _valid_lanes(valid, n)
    if idx is None:
        arg_lists = [c.values.tolist() for c in arg_cols]
        count = n
    else:
        arg_lists = [c.values[idx].tolist() for c in arg_cols]
        count = len(idx)
    results = [_apply(fn, values) for values in zip(*arg_lists)]
    if not arg_lists:
        results = [_apply(fn, ()) for _ in range(count)]
    result_col = column_from_values(results)
    if idx is None:
        return result_col
    out = scatter_columns(n, [(idx, result_col)])
    if valid is not None and result_col.valid is None:
        out.valid = valid
    return out


def _apply(fn, values):
    try:
        return fn(*values)
    except SqlExecutionError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SqlExecutionError("function call failed: %s" % exc) from exc
