"""The SQL engine facade: parse, plan, optimize, execute.

    >>> engine = SqlEngine()
    >>> engine.catalog.register_rows("t", ["a", "m"], [("x", 1.0), ("y", 2.0)])
    >>> engine.query("SELECT a, SUM(m) FROM t GROUP BY a ORDER BY a").rows
    [('x', 1.0), ('y', 2.0)]

Execution is vectorized: plans run over NumPy column batches
(:mod:`repro.sql.vectorized`).

Repeated statements skip parse → plan → optimize through a
statement-level LRU plan cache keyed by SQL text.  Cached plans are
invalidated whenever the catalog changes (``register_*`` / ``drop``
bump :attr:`Catalog.version`), because bound plans hold direct
references to the relations they scan.  For explicit reuse:

    >>> stmt = engine.prepare("SELECT SUM(m) FROM t")
    >>> stmt.execute().scalar()
    3.0

Pass a :class:`~repro.engine.cluster.ClusterContext` to meter execution
through a platform cost regime (how the §5.2 PostgreSQL/Hive
comparisons are reproduced); each operator charges its cost per batch.

One engine may be shared across threads (the concurrent mining service
does): the plan cache, its statistics and prepared-statement rebinding
are guarded by an internal lock, so planning is serialized while
execution itself runs fully in parallel.  Metered engines (``cluster``
set) still assume one caller at a time — the cluster's phase stack is
not thread-safe.
"""

import threading

from collections import OrderedDict

from repro.sql.catalog import Catalog
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.sql.result import ResultSet
from repro.sql.vectorized import VectorizedExecutor


class PreparedStatement:
    """A statement planned once and executable many times.

    Holds the optimized plan together with the catalog version it was
    bound against; :meth:`execute` replans transparently if the catalog
    changed (a re-registered table invalidates the bound relations).
    """

    __slots__ = ("_engine", "sql_text", "_plan", "_catalog_version")

    def __init__(self, engine, sql_text):
        self._engine = engine
        self.sql_text = sql_text
        self._plan = None
        self._catalog_version = None

    def execute(self):
        """Run the statement; returns a :class:`ResultSet`."""
        return self._engine.execute_prepared(self)

    def explain(self):
        """EXPLAIN-style text for the statement's (possibly cached) plan."""
        return self._engine._plan_for(self).explain()

    def __repr__(self):
        return "PreparedStatement(%r)" % self.sql_text


class SqlEngine:
    """Executes SQL text against registered relations.

    Parameters
    ----------
    catalog:
        Shared :class:`Catalog`; a fresh one is created by default.
    cluster:
        Optional :class:`~repro.engine.cluster.ClusterContext` charged
        per operator batch (platform metering).
    optimize_plans:
        Apply the rule-based optimizer (default True).
    plan_cache_size:
        Maximum number of cached statement plans (0 disables caching).
    """

    def __init__(self, catalog=None, cluster=None, optimize_plans=True,
                 plan_cache_size=128):
        self.catalog = catalog or Catalog()
        self._cluster = cluster
        self._optimize = optimize_plans
        self._plan_cache = OrderedDict()  # sql_text -> (catalog_version, plan)
        self._plan_cache_size = plan_cache_size
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Guards the plan cache, its statistics and prepared-statement
        # rebinding so one engine can serve many worker threads.
        self._lock = threading.RLock()

    def register_table(self, name, table, row_id_column=None):
        """Register a SIRUM columnar table under ``name``."""
        self.catalog.register_table(name, table, row_id_column=row_id_column)

    # ------------------------------------------------------------------
    # Planning and the plan cache
    # ------------------------------------------------------------------

    def plan(self, sql_text):
        """Parse and plan without executing or caching (returns the root)."""
        select = parse(sql_text)
        logical = Planner(self.catalog).plan_select(select)
        if self._optimize:
            logical = optimize(logical)
        return logical

    def _cached_plan(self, sql_text):
        """The optimized plan for ``sql_text``, via the LRU plan cache.

        Holds the engine lock for the whole lookup-or-plan step: the
        catalog version is read under the lock, so a concurrent
        ``register_table`` cannot interleave between the version read
        and the cache insert and leave a fresh plan filed under a stale
        version (or the reverse).
        """
        with self._lock:
            version = self.catalog.version
            entry = self._plan_cache.get(sql_text)
            if entry is not None and entry[0] == version:
                self._plan_cache.move_to_end(sql_text)
                self.plan_cache_hits += 1
                return entry[1]
            self.plan_cache_misses += 1
            logical = self.plan(sql_text)
            if self._plan_cache_size > 0:
                self._plan_cache[sql_text] = (version, logical)
                self._plan_cache.move_to_end(sql_text)
                while len(self._plan_cache) > self._plan_cache_size:
                    self._plan_cache.popitem(last=False)
            return logical

    def clear_plan_cache(self):
        """Drop every cached plan (statistics are kept)."""
        with self._lock:
            self._plan_cache.clear()

    @property
    def plan_cache_info(self):
        """Cache statistics: hits, misses, current size, capacity."""
        with self._lock:
            return {
                "hits": self.plan_cache_hits,
                "misses": self.plan_cache_misses,
                "size": len(self._plan_cache),
                "max_size": self._plan_cache_size,
            }

    def explain(self, sql_text):
        """EXPLAIN-style text for the optimized plan of ``sql_text``."""
        return self.plan(sql_text).explain()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def query(self, sql_text):
        """Execute ``sql_text``; returns a :class:`ResultSet`."""
        return self._run(self._cached_plan(sql_text))

    def prepare(self, sql_text):
        """Plan ``sql_text`` once for repeated execution.

        Returns a :class:`PreparedStatement` whose :meth:`execute` skips
        parse → plan → optimize on every call until the catalog changes.
        """
        statement = PreparedStatement(self, sql_text)
        self._plan_for(statement)  # plan eagerly so errors surface here
        return statement

    def execute_prepared(self, statement):
        """Execute a :class:`PreparedStatement` from :meth:`prepare`."""
        return self._run(self._plan_for(statement))

    def _plan_for(self, statement):
        with self._lock:
            version = self.catalog.version
            if statement._plan is None or statement._catalog_version != version:
                statement._plan = self._cached_plan(statement.sql_text)
                statement._catalog_version = version
            return statement._plan

    def _run(self, logical):
        batch, names = VectorizedExecutor(self._cluster).run(logical)
        return ResultSet.from_batch(names, batch)
