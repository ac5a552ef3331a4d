"""Catalog: named relations visible to the SQL engine.

A relation is a list of column names plus its data, held in *both*
physical forms on demand: row tuples (what ``register_rows`` is given)
and NumPy column batches (what the executor scans).  Either form can be the source of truth — ``Relation(columns, rows)``
materializes columns lazily, :meth:`Relation.from_columns` materializes
rows lazily — and each conversion is computed once and cached, so
repeated queries against the same relation never re-convert.

SIRUM's columnar :class:`~repro.data.table.Table` registers with its
dimensions kept dictionary-coded: each becomes a
:class:`~repro.sql.columns.DictColumn` over the table's own code array
(held by reference, never copied) and the encoder's values, decoded on
demand.  SQL predicates still compare what the analyst wrote
(``origin = 'SF'``), exactly as on PostgreSQL — against the dictionary's
entries, not a per-row copy of them.

The catalog carries a monotonically increasing :attr:`Catalog.version`,
bumped by every ``register_*`` / ``drop``: bound plans reference
relations directly, so the engine's plan cache uses the version to
invalidate stale plans.

The catalog is safe to share across threads: registration, drops and
the versioned lookups hold an internal lock, and
:meth:`Catalog.lookup_with_version` returns a relation *together with*
the version it was read under, so a ``register_table`` racing an
in-flight query can never pair a new relation with a stale version
number (or vice versa) in a caller's versioned result cache.
"""

import threading

import numpy as np

from repro.sql.columns import (
    Column,
    DictColumn,
    as_column,
    column_from_values,
)
from repro.sql.errors import SqlAnalysisError


class Relation:
    """A named relation: ordered column names plus rows and/or columns."""

    def __init__(self, columns, rows):
        self.columns = list(columns)
        _check_unique(self.columns)
        self._rows = [tuple(row) for row in rows]
        for row in self._rows:
            if len(row) != len(self.columns):
                raise SqlAnalysisError(
                    "row arity %d does not match %d columns"
                    % (len(row), len(self.columns))
                )
        self._n = len(self._rows)
        self._column_data = None

    @classmethod
    def from_columns(cls, columns, data):
        """Build a relation from columnar data without materializing rows.

        ``data`` is one :class:`~repro.sql.columns.Column`, NumPy array
        or value sequence per column name.
        """
        relation = cls.__new__(cls)
        relation.columns = list(columns)
        _check_unique(relation.columns)
        cols = [as_column(d) for d in data]
        if len(cols) != len(relation.columns):
            raise SqlAnalysisError(
                "got %d data columns for %d column names"
                % (len(cols), len(relation.columns))
            )
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise SqlAnalysisError(
                "column lengths differ: %s" % sorted(lengths)
            )
        relation._n = lengths.pop() if lengths else 0
        relation._column_data = (cols, relation._n)
        relation._rows = None
        return relation

    @property
    def rows(self):
        """Row tuples (materialized from columns on first access)."""
        if self._rows is None:
            cols, n = self._column_data
            if cols:
                self._rows = list(zip(*[c.to_pylist() for c in cols]))
            else:
                self._rows = [() for _ in range(n)]
        return self._rows

    def column_data(self):
        """``(columns, row_count)`` in batch form (computed once)."""
        if self._column_data is None:
            width = len(self.columns)
            cols = [
                column_from_values([row[i] for row in self._rows])
                for i in range(width)
            ]
            self._column_data = (cols, self._n)
        return self._column_data

    def column_index(self, name):
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.lower() == lowered:
                return i
        raise SqlAnalysisError("unknown column %r" % name)

    def __len__(self):
        return self._n


def _check_unique(columns):
    seen = set()
    for name in columns:
        lowered = name.lower()
        if lowered in seen:
            raise SqlAnalysisError("duplicate column name %r" % name)
        seen.add(lowered)


class Catalog:
    """Case-insensitive mapping of table names to relations."""

    def __init__(self):
        self._relations = {}
        #: Bumped on every registration/drop; consumed by the engine's
        #: plan cache to invalidate plans bound to stale relations.
        self.version = 0
        # Serializes mutation and versioned reads.  A plain attribute
        # read of ``version`` stays lock-free (it is a monotonic int);
        # use lookup_with_version() when the pairing matters.
        self._lock = threading.Lock()

    def register(self, name, relation):
        """Register (or replace) relation ``name``."""
        if not name or not isinstance(name, str):
            raise SqlAnalysisError("table name must be a non-empty string")
        with self._lock:
            self._relations[name.lower()] = relation
            self.version += 1

    def register_rows(self, name, columns, rows):
        """Convenience: build a :class:`Relation` from columns + rows."""
        self.register(name, Relation(columns, rows))

    def register_columns(self, name, columns, data):
        """Register columnar data directly (no per-row conversion).

        ``data`` is one Column / NumPy array / sequence per name; this
        is the fast path for NumPy-resident inputs such as the platform
        sims' measure and estimate vectors.
        """
        self.register(name, Relation.from_columns(columns, data))

    def register_table(self, name, table, row_id_column=None):
        """Register a SIRUM columnar table as relation ``name``.

        Columns are the schema's dimensions (dictionary-coded, see
        :func:`dimension_column`) followed by the measure.  If
        ``row_id_column`` is given, a leading integer row-id column of
        that name is added — the thesis's flight table carries a
        ``Flight ID`` this models.
        """
        schema = table.schema
        columns = list(schema.dimensions) + [schema.measure]
        data = [
            dimension_column(encoder, codes)
            for encoder, codes in zip(
                table.encoders(), table.dimension_columns()
            )
        ]
        data.append(Column(np.asarray(table.measure, dtype=np.float64)))
        if row_id_column is not None:
            columns = [row_id_column] + columns
            data = [Column(np.arange(1, len(table) + 1, dtype=np.int64))] + data
        self.register(name, Relation.from_columns(columns, data))

    def drop(self, name):
        """Remove relation ``name``; missing names are ignored."""
        with self._lock:
            if self._relations.pop(name.lower(), None) is not None:
                self.version += 1

    def lookup(self, name):
        try:
            return self._relations[name.lower()]
        except KeyError:
            raise SqlAnalysisError("unknown table %r" % name) from None

    def lookup_with_version(self, name):
        """Atomically return ``(relation, version)`` for table ``name``.

        A concurrent ``register``/``drop`` either happens entirely
        before this read (new relation, new version) or entirely after
        it (old relation, old version) — never a mix, which is what a
        versioned result cache needs to stay coherent.
        """
        with self._lock:
            return self.lookup(name), self.version

    def names(self):
        return sorted(self._relations)

    def __contains__(self, name):
        return name.lower() in self._relations


def dimension_column(encoder, codes):
    """One dictionary-encoded dimension as a :class:`DictColumn`.

    ``codes`` is held as given (an int64 array is not copied); the
    dictionary is the encoder's values.  ``None`` dimension values
    surface as SQL NULLs: the NULL mask is computed over the dictionary
    and gathered through the codes.
    """
    values = encoder.values()
    dictionary = np.empty(len(values), dtype=object)
    dictionary[:] = values
    codes = np.asarray(codes, dtype=np.int64)
    is_null = np.array([v is None for v in values], dtype=bool)
    valid = ~is_null[codes] if is_null.any() else None
    return DictColumn(codes, dictionary, valid)
