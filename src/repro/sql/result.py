"""Query result container.

A :class:`ResultSet` is constructed either from row tuples or directly
from a column batch (the executor, via :meth:`ResultSet.from_batch`).  Batch-backed results keep the
columns and materialize row tuples only when ``rows`` is first touched,
so columnar consumers — ``column()``, ``column_array()``, ``len()`` —
never pay a per-row conversion.
"""

import numpy as np

from repro.sql.errors import SqlError


class ResultSet:
    """Materialized query output: column names plus row tuples.

    Iterable and indexable like a list of rows; ``column(name)``
    extracts one column for convenience in tests and reports.
    """

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self._rows = [tuple(row) for row in rows]
        self._n = len(self._rows)
        self._batch = None

    @classmethod
    def from_batch(cls, columns, batch):
        """Wrap a :class:`~repro.sql.columns.Batch` without row conversion."""
        result = cls.__new__(cls)
        result.columns = list(columns)
        result._rows = None
        result._n = batch.n
        result._batch = batch
        return result

    @property
    def rows(self):
        """Row tuples (materialized from the batch on first access)."""
        if self._rows is None:
            self._rows = self._batch.to_rows()
        return self._rows

    def __len__(self):
        return self._n

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def column_index(self, name):
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.lower() == lowered:
                return i
        raise SqlError("result has no column %r" % name)

    def column(self, name):
        """All values of the named output column, in row order."""
        i = self.column_index(name)
        if self._batch is not None:
            return self._batch.columns[i].to_pylist()
        return [row[i] for row in self.rows]

    def column_array(self, name):
        """The named column as a read-only NumPy array (no NULLs).

        Batch-backed results hand out a read-only *view* of the
        executor's array — zero-copy, but ``copy()`` it before writing
        (a scan's output may alias the registered table's storage).
        Raises :class:`SqlError` if the column contains NULLs (they
        have no array representation).
        """
        i = self.column_index(name)
        if self._batch is not None:
            col = self._batch.columns[i]
            if col.valid is not None and not col.valid.all():
                raise SqlError("column %r contains NULLs" % name)
            view = col.values.view()
            view.setflags(write=False)
            return view
        values = [row[i] for row in self.rows]
        if any(v is None for v in values):
            raise SqlError("column %r contains NULLs" % name)
        return np.asarray(values)

    def scalar(self):
        """The single value of a 1x1 result; raises otherwise."""
        if self._n != 1 or len(self.columns) != 1:
            raise SqlError(
                "scalar() requires a 1x1 result, got %dx%d"
                % (self._n, len(self.columns))
            )
        return self.rows[0][0]

    def to_dicts(self):
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def pretty(self, max_rows=20):
        """Fixed-width text rendering (for examples and the CLI)."""
        shown = self.rows[:max_rows]
        cells = [[_render(v) for v in row] for row in shown]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append("... (%d more rows)" % (len(self.rows) - max_rows))
        return "\n".join(lines)

    def __repr__(self):
        return "ResultSet(%d rows, columns=%r)" % (self._n, self.columns)


def _render(value):
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return "%g" % value
    return str(value)
