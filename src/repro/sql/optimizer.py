"""Rule-based logical-plan optimizer.

Three classic rewrites, each preserving results exactly:

- **predicate pushdown** — Filter directly above a Scan folds into the
  scan, so non-qualifying rows are dropped during the table read.  It
  stops at a join: a ``WHERE`` over a join stays a Filter above it.
  Moving a conjunct below the join would evaluate it on every row of
  one side instead of on the joined rows, and the executor's contract
  is that data-dependent errors surface for exactly the rows the row
  interpreter reaches — so that step needs its own lane argument and
  is not taken here;
- **projection pruning** — one top-down pass carries the set of output
  slots each parent reads through Filter / Sort / Limit, resets it at
  Project / Aggregate, splits it at a join's left width (adding the
  join's own keys and residual) and narrows every Scan to what is left,
  so a scan under a join materializes only the columns some ancestor
  references (wide tables are the thesis's setting, so unread dimension
  columns are pure overhead).  It never moves a predicate;
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
    """Narrow every Scan to the columns its consumers reference."""
    _prune(node, set(range(node.output_width)))
    return node


def _prune(node, required):
    """Narrow the scans under ``node`` to what is read; returns a slot remap.

    ``required`` holds the output slots of ``node`` its parent reads.
    One top-down walk carries that set to every Scan; on the way back
    each node rewrites its own expressions through the ``{old slot: new
    slot}`` remap of its (now narrower) child and returns the remap of
    its own output.  A scan's predicate indexes the full relation row,
    so it never decides what the scan emits.
    """
    if isinstance(node, p.Scan):
        kept = sorted(required)
        node.column_slots = [node.column_slots[i] for i in kept]
        return {old: new for new, old in enumerate(kept)}
    if isinstance(node, (p.HashJoin, p.CrossJoin)):
        return _prune_join(node, required)
    if isinstance(node, p.Distinct):
        # Every column takes part in row equality.
        return _prune(node.child, set(range(node.child.output_width)))
    if isinstance(node, p.Limit):
        return _prune(node.child, required)
    if isinstance(node, p.Filter):
        remap = _prune(node.child, required | _columns_of([node.predicate]))
        node.predicate = _remap_columns(node.predicate, remap)
        return remap
    if isinstance(node, p.Sort):
        remap = _prune(node.child, required | _columns_of(node.keys))
        node.keys = [_remap_columns(k, remap) for k in node.keys]
        return remap
    # Project and Aggregate emit a fixed layout computed from their own
    # expressions: what the parent reads does not narrow them, and the
    # child owes them exactly what those expressions reference.
    if isinstance(node, p.Project):
        remap = _prune(node.child, _columns_of(node.exprs))
        node.exprs = [_remap_columns(e, remap) for e in node.exprs]
    elif isinstance(node, p.Aggregate):
        args = [arg for _name, arg, _distinct in node.agg_specs if arg is not None]
        remap = _prune(node.child, _columns_of(node.group_exprs + args))
        node.group_exprs = [_remap_columns(e, remap) for e in node.group_exprs]
        node.agg_specs = [
            (name, None if arg is None else _remap_columns(arg, remap), distinct)
            for name, arg, distinct in node.agg_specs
        ]
    return {slot: slot for slot in range(node.output_width)}


def _prune_join(node, required):
    """Split ``required`` at the left width, add what the join itself reads."""
    is_hash = isinstance(node, p.HashJoin)
    condition = node.residual if is_hash else node.condition
    left_width = node.left.output_width
    needed = required | _columns_of([condition])
    left_needed = {slot for slot in needed if slot < left_width}
    right_needed = {slot - left_width for slot in needed if slot >= left_width}
    if is_hash:
        left_needed |= _columns_of(node.left_keys)
        right_needed |= _columns_of(node.right_keys)
    left_remap = _prune(node.left, left_needed)
    right_remap = _prune(node.right, right_needed)
    remap = dict(left_remap)
    for old, new in right_remap.items():
        remap[left_width + old] = node.left.output_width + new
    if is_hash:
        node.left_keys = [_remap_columns(k, left_remap) for k in node.left_keys]
        node.right_keys = [_remap_columns(k, right_remap) for k in node.right_keys]
        node.residual = _remap_columns(node.residual, remap)
    else:
        node.condition = _remap_columns(node.condition, remap)
    return remap


def _columns_of(exprs):
    """Every column slot referenced by a list of bound expressions."""
    used = set()
    for expr in exprs:
        _collect_columns(expr, used)
    return used


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
