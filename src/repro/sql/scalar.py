"""Scalar evaluation of bound expressions, one row at a time.

The optimizer folds constant subexpressions with :func:`evaluate` (the
row-interpreter oracle in ``tests/sql/oracle.py`` runs whole plans
through it; the shipped executor does not call it);
:func:`output_names` names a plan's result columns.  Rows are plain
tuples; NULL is ``None``.  Three-valued logic follows SQL:
comparisons with NULL yield NULL and ``AND``/``OR`` short-circuit
through UNKNOWN.
"""

from repro.sql.errors import SqlExecutionError
from repro.sql import plan as plan_nodes


def evaluate(expr, row):
    """Evaluate a bound expression against one row tuple."""
    tag = expr[0]
    if tag == "col":
        return row[expr[1]]
    if tag == "const":
        return expr[1]
    if tag == "cmp":
        return _compare(expr[1], evaluate(expr[2], row), evaluate(expr[3], row))
    if tag == "arith":
        return _arithmetic(expr[1], evaluate(expr[2], row), evaluate(expr[3], row))
    if tag == "and":
        left = evaluate(expr[1], row)
        if left is False:
            return False
        right = evaluate(expr[2], row)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if tag == "or":
        left = evaluate(expr[1], row)
        if left is True:
            return True
        right = evaluate(expr[2], row)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False
    if tag == "not":
        value = evaluate(expr[1], row)
        return None if value is None else (not value)
    if tag == "neg":
        value = evaluate(expr[1], row)
        return None if value is None else -value
    if tag == "isnull":
        value = evaluate(expr[1], row)
        return (value is not None) if expr[2] else (value is None)
    if tag == "in":
        value = evaluate(expr[1], row)
        if value is None:
            return None
        hit = value in expr[2]
        return (not hit) if expr[3] else hit
    if tag == "in_exprs":
        value = evaluate(expr[1], row)
        if value is None:
            return None
        saw_null = False
        for item in expr[2]:
            candidate = evaluate(item, row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return False if expr[3] else True
        if saw_null:
            return None
        return True if expr[3] else False
    if tag == "between":
        value = evaluate(expr[1], row)
        low = evaluate(expr[2], row)
        high = evaluate(expr[3], row)
        if value is None or low is None or high is None:
            return None
        hit = low <= value <= high
        return (not hit) if expr[4] else hit
    if tag == "case":
        for condition, result in expr[1]:
            if evaluate(condition, row) is True:
                return evaluate(result, row)
        return evaluate(expr[2], row)
    if tag == "cast":
        return _cast(evaluate(expr[1], row), expr[2])
    if tag == "call":
        fn, null_aware, args = expr[1], expr[2], expr[3]
        values = [evaluate(a, row) for a in args]
        if not null_aware and any(v is None for v in values):
            return None
        try:
            return fn(*values)
        except SqlExecutionError:
            raise
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SqlExecutionError("function call failed: %s" % exc) from exc
    if tag == "grouping":
        # Resolved by the Aggregate operator: bits live after the
        # aggregate results.  The planner only emits this tag inside a
        # Project directly above an Aggregate.
        raise SqlExecutionError("GROUPING() used outside an aggregate context")
    raise SqlExecutionError("unknown expression tag %r" % tag)


def _compare(op, left, right):
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise SqlExecutionError(
            "cannot compare %r with %r" % (left, right)
        ) from exc
    raise SqlExecutionError("unknown comparison %r" % op)


def _arithmetic(op, left, right):
    if op == "||":
        if left is None or right is None:
            return None
        return str(left) + str(right)
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise SqlExecutionError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return left / right  # SQL float division, PostgreSQL-style
            return left / right
        if op == "%":
            if right == 0:
                raise SqlExecutionError("modulo by zero")
            return left % right
    except TypeError as exc:
        raise SqlExecutionError(
            "bad operands for %s: %r, %r" % (op, left, right)
        ) from exc
    raise SqlExecutionError("unknown operator %r" % op)


def _cast(value, type_name):
    if value is None:
        return None
    try:
        if type_name == "INTEGER":
            return int(value)
        if type_name == "FLOAT":
            return float(value)
        if type_name == "TEXT":
            return str(value)
    except (TypeError, ValueError) as exc:
        raise SqlExecutionError(
            "cannot cast %r to %s" % (value, type_name)
        ) from exc
    raise SqlExecutionError("unknown cast type %r" % type_name)


def output_names(node):
    """Output column names of a plan subtree."""
    if isinstance(node, plan_nodes.Project):
        return list(node.names)
    if isinstance(node, plan_nodes.Scan):
        return [node.relation.columns[i] for i in node.column_slots]
    children = node.children()
    if children:
        return output_names(children[0])
    return []
