"""Logical plan nodes.

The planner compiles an AST into a tree of these operators; the
optimizer rewrites the tree; the executor interprets it bottom-up
over NumPy column batches (:mod:`repro.sql.vectorized`).  Plan trees
are immutable once optimized, which is what makes the engine's
statement plan cache safe: a cached tree can be re-executed any number
of times.

Expressions inside plan nodes are *bound* expressions — column
references resolved to integer slots of the child's output row (the
batch's column indices) — so execution never does name lookup per
row.

Bound expression forms (tuples, cheap to build and match on):

    ("const",  value)
    ("col",    slot)
    ("not" | "neg", expr)
    ("and" | "or", left, right)
    ("cmp",    op, left, right)          op in = <> < <= > >=
    ("arith",  op, left, right)          op in + - * / % ||
    ("isnull", expr, negated)
    ("in",     expr, frozenset_of_consts, negated)
    ("in_exprs", expr, exprs, negated)
    ("between", expr, low, high, negated)
    ("case",   ((cond, result), ...), default)
    ("cast",   expr, type_name)
    ("call",   fn, null_aware, args)
    ("agg",    agg_index)                reference to an aggregate output
    ("grouping", group_expr_index)       GROUPING(col) indicator
"""


class PlanNode:
    """Base class; children() drives generic traversal/printing."""

    def children(self):
        return ()

    def explain(self, indent=0):
        """Return an EXPLAIN-style indented description of the subtree."""
        lines = ["%s%s" % ("  " * indent, self.describe())]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self):
        return type(self).__name__


class Scan(PlanNode):
    """Read a base relation.

    ``column_slots`` lists which relation columns the scan emits, in
    output order; projection pruning narrows it.  ``predicate`` is an
    optional bound filter evaluated during the scan (pushdown target).
    """

    def __init__(self, table_name, relation, column_slots, predicate=None):
        self.table_name = table_name
        self.relation = relation
        self.column_slots = list(column_slots)
        self.predicate = predicate

    @property
    def output_width(self):
        return len(self.column_slots)

    def describe(self):
        text = "Scan(%s cols=%s" % (self.table_name, self.column_slots)
        if self.predicate is not None:
            text += " filtered"
        return text + ")"


class Filter(PlanNode):
    def __init__(self, child, predicate):
        self.child = child
        self.predicate = predicate

    @property
    def output_width(self):
        return self.child.output_width

    def children(self):
        return (self.child,)


class Project(PlanNode):
    """Compute one bound expression per output column."""

    def __init__(self, child, exprs, names):
        self.child = child
        self.exprs = list(exprs)
        self.names = list(names)

    @property
    def output_width(self):
        return len(self.exprs)

    def children(self):
        return (self.child,)

    def describe(self):
        return "Project(%s)" % ", ".join(self.names)


class HashJoin(PlanNode):
    """Inner equi-join; build side is the right child.

    ``left_keys`` / ``right_keys`` are bound expressions over the
    respective child rows.  ``residual`` is an optional non-equi
    condition evaluated over the concatenated row.
    """

    def __init__(self, left, right, left_keys, right_keys, residual=None):
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual

    @property
    def output_width(self):
        return self.left.output_width + self.right.output_width

    def children(self):
        return (self.left, self.right)

    def describe(self):
        return "HashJoin(%d keys)" % len(self.left_keys)


class CrossJoin(PlanNode):
    """Cartesian product, with an optional post-filter condition."""

    def __init__(self, left, right, condition=None):
        self.left = left
        self.right = right
        self.condition = condition

    @property
    def output_width(self):
        return self.left.output_width + self.right.output_width

    def children(self):
        return (self.left, self.right)


class Aggregate(PlanNode):
    """Hash aggregation, optionally over multiple grouping sets.

    - ``group_exprs``: bound expressions producing the full grouping key;
    - ``grouping_sets``: list of index-tuples into ``group_exprs``; a
      plain GROUP BY has exactly one set covering every expression.
      Columns outside a grouping set surface as NULL (the cube-lattice
      wildcard of thesis §2.5);
    - ``agg_specs``: list of (name, arg_expr_or_None, distinct) driving
      :func:`repro.sql.functions.make_aggregate`.

    Output rows are ``group values + aggregate results + grouping-bit
    values``, which the parent Project maps into the select list.
    """

    def __init__(self, child, group_exprs, grouping_sets, agg_specs):
        self.child = child
        self.group_exprs = list(group_exprs)
        self.grouping_sets = [tuple(s) for s in grouping_sets]
        self.agg_specs = list(agg_specs)

    @property
    def output_width(self):
        return len(self.group_exprs) * 2 + len(self.agg_specs)

    def children(self):
        return (self.child,)

    def describe(self):
        return "Aggregate(groups=%d sets=%d aggs=%d)" % (
            len(self.group_exprs),
            len(self.grouping_sets),
            len(self.agg_specs),
        )


class Sort(PlanNode):
    """Stable sort by bound key expressions with per-key direction."""

    def __init__(self, child, keys, ascending):
        self.child = child
        self.keys = list(keys)
        self.ascending = list(ascending)

    @property
    def output_width(self):
        return self.child.output_width

    def children(self):
        return (self.child,)


class Limit(PlanNode):
    def __init__(self, child, limit, offset=0):
        self.child = child
        self.limit = limit
        self.offset = offset

    @property
    def output_width(self):
        return self.child.output_width

    def children(self):
        return (self.child,)

    def describe(self):
        return "Limit(%r offset=%r)" % (self.limit, self.offset)


class Distinct(PlanNode):
    def __init__(self, child):
        self.child = child

    @property
    def output_width(self):
        return self.child.output_width

    def children(self):
        return (self.child,)
