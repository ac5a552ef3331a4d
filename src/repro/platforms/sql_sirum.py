"""SIRUM expressed as SQL — the PostgreSQL implementation of §2.6.1.

The thesis's single-node comparator runs informative rule mining as SQL
statements inside one database session.  This module reproduces that
architecture against :mod:`repro.sql`:

- candidate rules and their aggregates come from one
  ``GROUP BY CUBE(A1, ..., Ad)`` query per iteration — every output row
  is an element of the cube lattice (§2.5) and the gain of Eq. 2.2 is
  computed in the select list as ``SUM(m) * LN(SUM(m) / SUM(mhat))``;
- rule coverage (the ``t  r`` tests iterative scaling needs) comes from
  ``SELECT rid FROM d WHERE A_j = value AND ...`` queries;
- the estimate column ``mhat`` is re-registered after each scaling run,
  standing in for the SQL UPDATE a real session would issue (the thesis
  notes this random write traffic as a PostgreSQL bottleneck).

Exhaustive exploration (no sampling) is used, matching how prior work
[16] ran on PostgreSQL, so results cross-validate against the
operator-based ``mine(table, variant="naive", exhaustive=True)``.
"""

import numpy as np

from repro.common.errors import ConfigError
from repro.core.divergence import kl_divergence
from repro.core.measure import MeasureTransform
from repro.core.result import MinedRule, RuleSet
from repro.core.rule import Rule, WILDCARD
from repro.core.scaling import iterative_scale
from repro.sql.catalog import dimension_column
from repro.sql.engine import SqlEngine

#: Name of the data relation inside the session's catalog.
DATA_TABLE = "d"


class SqlMiningResult:
    """Outcome of a SQL-driven mining run.

    Mirrors the fields of :class:`repro.core.result.MiningResult` that
    the comparisons use; ``queries_issued`` counts SQL statements.
    """

    def __init__(self, rule_set, kl_trace, estimates, queries_issued, metrics):
        self.rule_set = rule_set
        self.kl_trace = list(kl_trace)
        self.estimates = estimates
        self.queries_issued = queries_issued
        self.metrics = metrics

    @property
    def final_kl(self):
        return self.kl_trace[-1] if self.kl_trace else float("nan")

    @property
    def simulated_seconds(self):
        return 0.0 if self.metrics is None else self.metrics["simulated_seconds"]

    def __repr__(self):
        return "SqlMiningResult(rules=%d, kl=%.4g, queries=%d)" % (
            len(self.rule_set),
            self.final_kl,
            self.queries_issued,
        )


class SqlSirum:
    """Mines informative rules through SQL statements.

    Parameters
    ----------
    k:
        Number of rules to mine beyond the all-wildcards root.
    epsilon:
        Iterative-scaling convergence threshold (thesis default 0.01).
    cluster:
        Optional :class:`~repro.engine.cluster.ClusterContext`; when
        given, every SQL operator charges its cost regime per batch,
        making runs comparable with the platform benchmarks of §5.2.
    """

    def __init__(self, k=10, epsilon=0.01, cluster=None, optimize_plans=True):
        if k < 1:
            raise ConfigError("k must be at least 1")
        if epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        self.k = k
        self.epsilon = epsilon
        self._cluster = cluster
        self._optimize = optimize_plans
        #: Number of SQL statements issued by the last mine() call.
        self.queries_issued = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def mine(self, table):
        """Mine ``self.k`` rules from ``table``; returns a MiningResult."""
        engine = SqlEngine(
            cluster=self._cluster,
            optimize_plans=self._optimize,
        )
        self.queries_issued = 0
        dims = list(table.schema.dimensions)
        transform = MeasureTransform.fit(table.measure)
        measure = transform.transformed
        raw_measure = np.asarray(table.measure, dtype=np.float64)

        root = Rule.all_wildcards(table.schema.arity)
        masks = [np.ones(len(table), dtype=bool)]
        scaled = iterative_scale(masks, measure, epsilon=self.epsilon)
        estimates = scaled.estimates
        lambdas = scaled.lambdas

        kl_trace = [kl_divergence(measure, estimates)]
        mined = [
            MinedRule(
                root,
                avg_measure=float(raw_measure.mean()),
                count=len(table),
                gain=0.0,
                iteration=0,
            )
        ]
        selected = {root}

        for iteration in range(1, self.k + 1):
            self._register_data(engine, table, measure, estimates)
            best = self._best_candidate(engine, table, dims, selected)
            if best is None:
                break
            rule, gain = best
            mask = self._coverage_mask(engine, table, dims, rule)
            masks.append(mask)
            scaled = iterative_scale(
                masks,
                measure,
                lambdas=lambdas,
                estimates=estimates,
                epsilon=self.epsilon,
            )
            estimates = scaled.estimates
            lambdas = scaled.lambdas
            kl_trace.append(kl_divergence(measure, estimates))
            mined.append(
                MinedRule(
                    rule,
                    avg_measure=float(raw_measure[mask].mean()),
                    count=int(mask.sum()),
                    gain=gain,
                    iteration=iteration,
                )
            )
            selected.add(rule)

        return SqlMiningResult(
            rule_set=RuleSet(mined),
            kl_trace=kl_trace,
            estimates=transform.inverse(estimates),
            queries_issued=self.queries_issued,
            metrics=(
                None if self._cluster is None else self._cluster.metrics.snapshot()
            ),
        )

    # ------------------------------------------------------------------
    # SQL building blocks
    # ------------------------------------------------------------------

    def _register_data(self, engine, table, measure, estimates):
        """(Re-)register relation ``d`` with the current mhat column.

        Stands in for the UPDATE statements a live session would issue
        after iterative scaling converges.  Registration is columnar:
        dimensions decode through one NumPy gather each and the measure
        and estimate vectors are handed over as-is, so no per-row
        Python loop runs between scaling iterations.
        """
        columns = ["rid"] + list(table.schema.dimensions) + ["m", "mhat"]
        data = [np.arange(len(table), dtype=np.int64)]
        for encoder, codes in zip(table.encoders(), table.dimension_columns()):
            data.append(dimension_column(encoder, codes))
        data.append(np.asarray(measure, dtype=np.float64))
        data.append(np.asarray(estimates, dtype=np.float64))
        engine.catalog.register_columns(DATA_TABLE, columns, data)

    def _best_candidate(self, engine, table, dims, selected):
        """Run the CUBE query and return the best unselected rule.

        Returns ``(rule, gain)`` or None when no candidate has positive
        gain (the estimate already reproduces every aggregate).
        """
        quoted = ", ".join('"%s"' % d for d in dims)
        grouping_cols = ", ".join(
            'GROUPING("%s") AS g%d' % (d, j) for j, d in enumerate(dims)
        )
        sql = (
            "SELECT %s, %s, SUM(m) AS sm, SUM(mhat) AS se, COUNT(*) AS c, "
            "SUM(m) * LN(SUM(m) / SUM(mhat)) AS gain "
            "FROM %s GROUP BY CUBE(%s) "
            "HAVING SUM(m) > 0 AND SUM(mhat) > 0 "
            "ORDER BY gain DESC"
            % (quoted, grouping_cols, DATA_TABLE, quoted)
        )
        result = engine.query(sql)
        self.queries_issued += 1
        arity = len(dims)
        for row in result.rows:
            gain = row[-1]
            if gain is None or gain <= 0:
                break  # ordered descending: nothing informative remains
            rule = self._rule_from_row(table, dims, row, arity)
            if rule not in selected:
                return rule, float(gain)
        return None

    def _rule_from_row(self, table, dims, row, arity):
        """Decode one CUBE output row into a Rule.

        GROUPING bits (columns ``arity .. 2*arity-1``) distinguish a
        wildcard from a genuine NULL group value.
        """
        values = []
        for j in range(arity):
            if row[arity + j] == 1:
                values.append(WILDCARD)
            else:
                values.append(table.encoder(dims[j]).encode_existing(row[j]))
        return Rule(values)

    def _coverage_mask(self, engine, table, dims, rule):
        """Fetch the support set of ``rule`` via a rid query."""
        predicate = self._rule_predicate(table, dims, rule)
        sql = "SELECT rid FROM %s%s" % (
            DATA_TABLE,
            " WHERE %s" % predicate if predicate else "",
        )
        result = engine.query(sql)
        self.queries_issued += 1
        mask = np.zeros(len(table), dtype=bool)
        mask[np.asarray(result.column_array("rid"), dtype=np.int64)] = True
        return mask

    def _rule_predicate(self, table, dims, rule):
        """Render a rule as a WHERE conjunction (empty for the root)."""
        parts = []
        for j, value in enumerate(rule.values):
            if value == WILDCARD:
                continue
            decoded = table.encoder(dims[j]).decode(value)
            parts.append('"%s" = %s' % (dims[j], _sql_literal(decoded)))
        return " AND ".join(parts)


def _sql_literal(value):
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return repr(value)
