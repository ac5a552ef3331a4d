"""Rule-based logical-plan optimizer.

Three classic rewrites, each preserving results exactly:

- **predicate pushdown** — Filter directly above a Scan folds into the
  scan, so non-qualifying rows are dropped during the table read;
- **projection pruning** — a Scan only materializes columns some
  ancestor actually references (wide tables are the thesis's setting,
  so unread dimension columns are pure overhead);
- **constant folding** — bound sub-expressions with no column inputs
  are evaluated once at plan time.

The optimizer is idempotent; ``optimize(optimize(p))`` equals
``optimize(p)`` structurally.
"""

from repro.sql import plan as p
from repro.sql.errors import SqlExecutionError
from repro.sql.scalar import evaluate


def optimize(node):
    """Apply all rewrite rules; returns a new plan tree."""
    node = _fold_constants_in_plan(node)
    node = _push_down_predicates(node)
    node = _prune_scan_columns(node)
    return node


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------

_FOLDABLE_TAGS = frozenset(
    ["cmp", "arith", "and", "or", "not", "neg", "isnull", "between", "cast"]
)


def fold_expr(expr):
    """Fold constant sub-expressions of one bound expression."""
    if not isinstance(expr, tuple) or not expr:
        return expr
    tag = expr[0]
    if tag in ("const", "col", "grouping"):
        return expr
    folded = tuple(
        fold_expr(part)
        if isinstance(part, tuple) and part and isinstance(part[0], str)
        else _fold_parts(part)
        for part in expr
    )
    if folded[0] in _FOLDABLE_TAGS and _all_const_operands(folded):
        try:
            return ("const", evaluate(folded, ()))
        except SqlExecutionError:
            return folded  # fold at run time instead, preserving the error
    return folded


def _fold_parts(part):
    """Fold a tuple of sub-expressions (e.g. CASE whens, IN items)."""
    if isinstance(part, tuple):
        return tuple(
            fold_expr(x)
            if isinstance(x, tuple) and x and isinstance(x[0], str)
            else _fold_parts(x)
            if isinstance(x, tuple)
            else x
            for x in part
        )
    return part


def _all_const_operands(expr):
    for part in expr[1:]:
        if isinstance(part, tuple) and part and isinstance(part[0], str):
            if part[0] != "const":
                return False
    return True


def _fold_constants_in_plan(node):
    for child_name in ("child", "left", "right"):
        child = getattr(node, child_name, None)
        if isinstance(child, p.PlanNode):
            setattr(node, child_name, _fold_constants_in_plan(child))
    if isinstance(node, p.Filter):
        node.predicate = fold_expr(node.predicate)
    elif isinstance(node, p.Project):
        node.exprs = [fold_expr(e) for e in node.exprs]
    elif isinstance(node, p.Scan) and node.predicate is not None:
        node.predicate = fold_expr(node.predicate)
    elif isinstance(node, p.Aggregate):
        node.group_exprs = [fold_expr(e) for e in node.group_exprs]
        node.agg_specs = [
            (name, None if arg is None else fold_expr(arg), distinct)
            for name, arg, distinct in node.agg_specs
        ]
    elif isinstance(node, p.Sort):
        node.keys = [fold_expr(k) for k in node.keys]
    return node


# ----------------------------------------------------------------------
# Predicate pushdown
# ----------------------------------------------------------------------


def _push_down_predicates(node):
    for child_name in ("child", "left", "right"):
        child = getattr(node, child_name, None)
        if isinstance(child, p.PlanNode):
            setattr(node, child_name, _push_down_predicates(child))
    if isinstance(node, p.Filter) and isinstance(node.child, p.Scan):
        scan = node.child
        if scan.predicate is None:
            scan.predicate = node.predicate
        else:
            scan.predicate = ("and", scan.predicate, node.predicate)
        return scan
    if isinstance(node, p.Filter) and node.predicate == ("const", True):
        return node.child
    return node


# ----------------------------------------------------------------------
# Projection pruning
# ----------------------------------------------------------------------


def _prune_scan_columns(node):
    """Narrow every Scan to the columns its consumers reference.

    Only the straightforward case is rewritten: a Scan whose immediate
    parent chain consists of Filter / Project nodes.  Join children are
    left at full width (their slot spaces are interleaved and the
    payoff is small at this scale).
    """
    if isinstance(node, (p.Project, p.Aggregate, p.Filter, p.Sort,
                         p.Limit, p.Distinct)):
        child = node.children()[0] if node.children() else None
        if isinstance(child, p.Scan) and isinstance(node, p.Project):
            # The scan's predicate is evaluated against the *full*
            # relation row before projection, so only the Project's own
            # references decide which columns the scan must emit.
            used = set()
            for expr in node.exprs:
                _collect_columns(expr, used)
            full = child.column_slots
            kept = [slot for i, slot in enumerate(full) if i in used]
            if len(kept) < len(full):
                remap = {
                    old_index: new_index
                    for new_index, old_index in enumerate(
                        i for i in range(len(full)) if i in used
                    )
                }
                child.column_slots = kept
                node.exprs = [_remap_columns(e, remap) for e in node.exprs]
    for child_name in ("child", "left", "right"):
        child = getattr(node, child_name, None)
        if isinstance(child, p.PlanNode):
            setattr(node, child_name, _prune_scan_columns(child))
    return node


def _collect_columns(expr, out):
    """Record every referenced column slot of a bound expression."""
    if not isinstance(expr, tuple) or not expr:
        return
    if isinstance(expr[0], str):
        if expr[0] == "col":
            out.add(expr[1])
            return
        parts = expr[1:]
    else:
        parts = expr  # untagged container, e.g. CASE's whens tuple
    for part in parts:
        if isinstance(part, tuple):
            _collect_columns(part, out)


def _remap_columns(expr, remap):
    """Rewrite column slots of a bound expression through ``remap``."""
    if not isinstance(expr, tuple) or not expr:
        return expr
    if isinstance(expr[0], str):
        if expr[0] == "col":
            return ("col", remap[expr[1]])
        return (expr[0],) + tuple(
            _remap_columns(part, remap) if isinstance(part, tuple) else part
            for part in expr[1:]
        )
    return tuple(
        _remap_columns(part, remap) if isinstance(part, tuple) else part
        for part in expr
    )
