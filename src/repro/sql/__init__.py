"""A small SQL engine over :class:`repro.data.table.Table` relations.

The thesis evaluates SIRUM expressed as SQL on PostgreSQL (§2.6.1) and
as HiveQL on Hive (§2.6.2): candidate-rule generation is a data-cube
group-by and iterative scaling is a sequence of aggregate queries.  To
reproduce those comparisons faithfully this package implements the SQL
surface those platforms provide, end to end:

- :mod:`repro.sql.tokens` / :mod:`repro.sql.parser` — tokenizer and a
  recursive-descent parser for the dialect (SELECT with WHERE, GROUP BY
  including ``CUBE`` / ``GROUPING SETS``, HAVING, ORDER BY, LIMIT,
  inner JOIN, scalar and aggregate expressions);
- :mod:`repro.sql.planner` / :mod:`repro.sql.optimizer` — translation
  to a logical plan and rule-based rewrites (predicate pushdown,
  projection pruning, constant folding);
- :mod:`repro.sql.vectorized` — the physical executor: every
  operator runs over NumPy column batches with NULLs as validity
  masks, metered per batch through the cluster cost model when run via
  a platform simulator;
- :mod:`repro.sql.scalar` — one-row evaluation of bound expressions:
  the optimizer's constant folding and the executor's per-lane
  fallbacks (the row-at-a-time plan interpreter that defines the
  semantics is the test oracle in ``tests/sql/oracle.py``);
- :class:`repro.sql.engine.SqlEngine` — the facade, with a
  statement-level LRU plan cache and a ``prepare()`` /
  ``execute_prepared()`` API so repeated statements skip
  parse → plan → optimize.

``GROUP BY CUBE(A1, ..., Ad)`` computes exactly the candidate-rule
aggregates of thesis §3.1 — each output row is an element of the cube
lattice (§2.5) with wildcards surfaced as SQL NULLs.
"""

from repro.sql.engine import PreparedStatement, SqlEngine
from repro.sql.errors import SqlError
from repro.sql.parser import parse
from repro.sql.render import render
from repro.sql.result import ResultSet

__all__ = [
    "SqlEngine",
    "PreparedStatement",
    "SqlError",
    "ResultSet",
    "parse",
    "render",
]
