"""Columnar batch representation for the vectorized SQL executor.

A :class:`Column` is a NumPy value array plus an optional validity
mask: ``valid[i]`` is False where the SQL value is NULL.  ``valid`` of
``None`` means every lane is valid, which keeps the common no-NULL case
allocation-free.  Value dtypes are restricted to the four kinds the
engine distinguishes:

- ``float64`` — every non-NULL value is a Python/NumPy float;
- ``int64``   — every non-NULL value is an integer (never a bool);
- ``bool``    — every non-NULL value is a boolean;
- ``object``  — anything else, including mixed-type columns, so the
  row interpreter's per-value Python semantics are preserved exactly.

Invalid lanes hold an arbitrary placeholder (0 / False / None); every
operation in :mod:`repro.sql.vectorized` restricts itself to valid
lanes before touching values.

A :class:`DictColumn` is a dictionary-coded column: integer ``codes``
into an ``object`` array of entries.  Its ``values`` decode
``dictionary[codes]`` on first access, so the four-dtype rule above
still describes ``values`` — a decoded dictionary column is an
``object`` column — and the operators that can answer from the
dictionary never decode at all.
"""

import numpy as np


class Column:
    """One column of a batch: values plus an optional validity mask."""

    __slots__ = ("values", "valid")

    def __init__(self, values, valid=None):
        self.values = values
        self.valid = valid

    def __len__(self):
        return len(self.values)

    def take(self, indices):
        """Lanes at ``indices``, in that order (NumPy fancy indexing)."""
        valid = None if self.valid is None else self.valid[indices]
        return Column(self.values[indices], valid)

    def slice(self, start, stop):
        valid = None if self.valid is None else self.valid[start:stop]
        return Column(self.values[start:stop], valid)

    def validity(self):
        """The validity mask, materialized (all-True when ``valid`` is None)."""
        if self.valid is None:
            return np.ones(len(self), dtype=bool)
        return self.valid

    def to_pylist(self):
        """Python scalars with ``None`` at invalid lanes (row-engine types)."""
        out = self.values.tolist()
        if self.valid is not None:
            out = [v if ok else None for v, ok in zip(out, self.valid.tolist())]
        return out


class DictColumn(Column):
    """A dictionary-coded column: ``codes`` into ``dictionary`` entries.

    ``codes`` is an int array (a registered table's own read-only array,
    held by reference), ``dictionary`` an ``object`` array of entries.
    Entries are never merged, even when equal: decoding returns each
    row's own object, so ``1`` from one table and ``1.0`` from another
    stay distinct.  ``take`` / ``slice`` stay coded; ``values`` decodes
    once and caches.
    """

    __slots__ = ("codes", "dictionary", "_decoded")

    def __init__(self, codes, dictionary, valid=None):
        self.codes = codes
        self.dictionary = dictionary
        self.valid = valid
        self._decoded = None

    @property
    def values(self):
        if self._decoded is None:
            self._decoded = self.dictionary[self.codes]
        return self._decoded

    def __len__(self):
        return len(self.codes)

    def take(self, indices):
        valid = None if self.valid is None else self.valid[indices]
        return DictColumn(self.codes[indices], self.dictionary, valid)

    def slice(self, start, stop):
        valid = None if self.valid is None else self.valid[start:stop]
        return DictColumn(self.codes[start:stop], self.dictionary, valid)

    def present(self):
        """Indices of the dictionary entries held by valid lanes."""
        codes = self.codes if self.valid is None else self.codes[self.valid]
        counts = np.bincount(codes, minlength=len(self.dictionary))
        return np.flatnonzero(counts)


class Batch:
    """An ordered set of equal-length columns plus an explicit row count.

    The row count is carried separately because a batch may legally have
    zero columns (e.g. ``SELECT 1 FROM t`` after projection pruning).
    """

    __slots__ = ("columns", "n")

    def __init__(self, columns, n):
        self.columns = list(columns)
        self.n = n

    def take(self, indices):
        return Batch([c.take(indices) for c in self.columns], len(indices))

    def to_rows(self):
        """Materialize the batch as a list of row tuples."""
        if not self.columns:
            return [() for _ in range(self.n)]
        return list(zip(*[c.to_pylist() for c in self.columns]))


def _is_float(v):
    return isinstance(v, (float, np.floating))


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(
        v, (bool, np.bool_)
    )


def _is_bool(v):
    return isinstance(v, (bool, np.bool_))


def column_from_values(values):
    """Build a :class:`Column` from a Python sequence (None = NULL).

    The narrowest of the four dtypes that represents every non-NULL
    value exactly is chosen; mixed int/float columns stay ``object`` so
    each value keeps its original Python type.
    """
    vals = list(values)
    n = len(vals)
    null = np.fromiter((v is None for v in vals), dtype=bool, count=n)
    any_null = bool(null.any())
    nonnull = [v for v in vals if v is not None]
    if nonnull and all(_is_float(v) for v in nonnull):
        arr = np.fromiter(
            (0.0 if v is None else v for v in vals), dtype=np.float64, count=n
        )
    elif nonnull and all(_is_int(v) for v in nonnull):
        try:
            arr = np.fromiter(
                (0 if v is None else v for v in vals), dtype=np.int64, count=n
            )
        except OverflowError:
            arr = _object_array(vals)
    elif nonnull and all(_is_bool(v) for v in nonnull):
        arr = np.fromiter(
            (False if v is None else bool(v) for v in vals),
            dtype=bool,
            count=n,
        )
    else:
        arr = _object_array(vals)
    return Column(arr, ~null if any_null else None)


def _object_array(vals):
    arr = np.empty(len(vals), dtype=object)
    arr[:] = vals
    return arr


def constant_column(value, n):
    """A column holding ``value`` in every lane."""
    if value is None:
        return Column(np.empty(n, dtype=object), np.zeros(n, dtype=bool))
    if _is_bool(value):
        return Column(np.full(n, bool(value), dtype=bool))
    if _is_int(value):
        try:
            return Column(np.full(n, value, dtype=np.int64))
        except OverflowError:
            pass
    elif _is_float(value):
        return Column(np.full(n, value, dtype=np.float64))
    arr = np.empty(n, dtype=object)
    arr[:] = [value] * n
    return Column(arr)


def as_column(data):
    """Coerce ``data`` (Column, ndarray, or sequence) into a Column.

    NumPy numeric/bool arrays are taken as fully-valid columns without
    copying; everything else goes through :func:`column_from_values`.
    """
    if isinstance(data, Column):
        return data
    if isinstance(data, np.ndarray) and data.ndim == 1:
        if data.dtype == np.float64 or data.dtype == np.int64 or data.dtype == bool:
            return Column(data)
        if data.dtype.kind == "f":
            return Column(data.astype(np.float64))
        if data.dtype.kind in "iu":
            if data.dtype.kind == "u" and len(data) and int(data.max()) > 2**63 - 1:
                # uint values beyond int64: widen to exact Python ints
                # rather than letting astype wrap silently.
                return column_from_values([int(v) for v in data.tolist()])
            return Column(data.astype(np.int64))
        if data.dtype == object:
            return column_from_values(data.tolist())
    return column_from_values(list(data))


def combined_validity(columns, n):
    """AND of the columns' validity masks; None when all lanes valid."""
    out = None
    for col in columns:
        if col.valid is None:
            continue
        out = col.valid.copy() if out is None else out
        out &= col.valid
    return out


def concat_columns(columns):
    """Concatenate columns, widening to object dtype on a mismatch.

    Dictionary columns stay coded: over one shared dictionary the codes
    concatenate; over different ones the dictionaries concatenate and
    each column's codes shift past the entries before it.
    """
    if all(isinstance(c, DictColumn) for c in columns):
        return _concat_dictionary_columns(columns)
    dtypes = {c.values.dtype for c in columns}
    if len(dtypes) == 1:
        values = np.concatenate([c.values for c in columns])
    else:
        values = np.concatenate(
            [c.values.astype(object) for c in columns]
        )
    if all(c.valid is None for c in columns):
        return Column(values)
    valid = np.concatenate([c.validity() for c in columns])
    return Column(values, valid)


def _concat_dictionary_columns(columns):
    dictionaries = []
    offsets = {}
    codes = []
    for col in columns:
        offset = offsets.get(id(col.dictionary))
        if offset is None:
            offset = sum(len(d) for d in dictionaries)
            offsets[id(col.dictionary)] = offset
            dictionaries.append(col.dictionary)
        codes.append(col.codes + offset if offset else col.codes)
    dictionary = (
        dictionaries[0] if len(dictionaries) == 1
        else np.concatenate(dictionaries)
    )
    if all(c.valid is None for c in columns):
        valid = None
    else:
        valid = np.concatenate([c.validity() for c in columns])
    return DictColumn(np.concatenate(codes), dictionary, valid)


def scatter_columns(n, pieces):
    """Merge (indices, column) pieces into one column of ``n`` lanes.

    Lanes not covered by any piece are NULL.  Used by CASE evaluation,
    where each branch is evaluated only on the lanes it owns.
    """
    dtypes = {p[1].values.dtype for p in pieces if len(p[0])}
    if len(dtypes) == 1:
        values = np.zeros(n, dtype=dtypes.pop())
        if values.dtype == object:
            values[:] = None
    else:
        values = np.empty(n, dtype=object)
        values[:] = None
    valid = np.zeros(n, dtype=bool)
    for indices, col in pieces:
        if not len(indices):
            continue
        if values.dtype == object and col.values.dtype != object:
            values[indices] = col.values.astype(object)
        else:
            values[indices] = col.values
        valid[indices] = col.validity()
    return Column(values, valid)
