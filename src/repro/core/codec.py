"""Packed-row codec: encode (value | wildcard) tuples into integer keys.

The candidate-generation hot paths group huge numbers of rule tuples
(LCAs, cuboid cells).  Packing each tuple into a single integer — one
bit-field per attribute, with 0 reserved for the wildcard — turns
row-wise grouping into one 1-D key sort + ``np.bincount``, which is
orders of magnitude faster than lexicographic row sorting.

A codec *fits* whenever the summed per-attribute bit widths stay within
63 bits (true for every thesis dataset: 29–38 bits); its keys are then
``int64``.  A wider codec keys with unbounded Python ints in ``object``
arrays (:attr:`RowCodec.key_dtype`): the same kernels, the same bit
operations and the same canonical summation order, only slower per key.
Every key is built in ``key_dtype`` before it is shifted, and
:func:`position_bits` sends every group-by of a wide codec through
``np.unique``.

A group-by of the mining loop is a :class:`GroupPlan` (who is summed
into which group, in which order — estimate-independent, kept by the
job across iterations) applied to a weight vector.
"""

import sys

import numpy as np

from repro.common.errors import DataError
from repro.core.rule import WILDCARD

_MAX_BITS = 63


class RowCodec:
    """Bit-field packing of encoded dimension tuples (wildcards allowed)."""

    def __init__(self, cardinalities):
        cardinalities = [int(c) for c in cardinalities]
        if not cardinalities or any(c < 1 for c in cardinalities):
            raise DataError("cardinalities must be positive")
        self.cardinalities = cardinalities
        # Attribute j stores value+1 in [0, card]; 0 encodes wildcard.
        self.widths = [max(1, c.bit_length()) for c in cardinalities]
        self.offsets = []
        offset = 0
        for width in self.widths:
            self.offsets.append(offset)
            offset += width
        self.total_bits = offset

    @classmethod
    def from_table(cls, table):
        return cls(
            [table.domain_size(name) for name in table.schema.dimensions]
        )

    @property
    def fits(self):
        """True if packed keys fit a signed int64."""
        return self.total_bits <= _MAX_BITS

    @property
    def key_dtype(self):
        """``int64`` when the codec fits, else ``object`` (Python ints)."""
        return np.dtype(np.int64) if self.fits else np.dtype(object)

    @property
    def arity(self):
        return len(self.cardinalities)

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------

    def pack_columns(self, columns):
        """Pack aligned code columns (no wildcards) into keys."""
        packed = np.zeros(len(columns[0]), dtype=self.key_dtype)
        for j, col in enumerate(columns):
            packed += (col.astype(self.key_dtype) + 1) << self.offsets[j]
        return packed

    def pack_values(self, values):
        """Pack one tuple (wildcards allowed) into an int key."""
        key = 0
        for j, v in enumerate(values):
            if v != WILDCARD:
                key += (int(v) + 1) << self.offsets[j]
        return key

    # ------------------------------------------------------------------
    # Unpacking
    # ------------------------------------------------------------------

    def unpack(self, key):
        """Decode one key back to a tuple with WILDCARD entries."""
        keys = np.array([key], dtype=self.key_dtype)
        return tuple(int(v) for v in self.unpack_batch(keys)[0])

    def unpack_batch(self, keys):
        """Decode a key array to an (n, d) int64 matrix of codes/-1."""
        keys = np.asarray(keys, dtype=self.key_dtype)
        out = np.empty((keys.size, self.arity), dtype=np.int64)
        for j in range(self.arity):
            field = (keys >> self.offsets[j]) & ((1 << self.widths[j]) - 1)
            out[:, j] = field - 1
        return out


def position_bits(key_bits, *counts):
    """Bits of the position field(s) under a ``key_bits``-wide key.

    ``bit_length(count - 1)`` summed over the counts, or None when
    ``key << bits | position`` would overflow int64 (or the key width
    is unknown, or a count is 0) and the caller must group through
    ``np.unique``.  Only the codec width and the input shape decide,
    never the data.
    """
    if key_bits is None or 0 in counts:
        return None
    bits = sum((count - 1).bit_length() for count in counts)
    return bits if key_bits + bits <= _MAX_BITS else None


def sort_groups(composite, bits):
    """Group ``key << bits | position`` composites by one in-place sort.

    Returns ``(unique_keys, group_ids, positions, counts)``, the middle
    two in sorted order.  Positions ascend inside a group, so
    ``np.bincount(group_ids, weights=w[positions])`` sums each group in
    ascending input position, left to right: the canonical order, and
    what ``np.bincount`` over ``np.unique``'s inverse does.
    """
    composite.sort()
    sorted_keys = composite >> bits
    first = np.ones(composite.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=composite.size)
    group_ids = np.repeat(np.arange(starts.size), counts)
    positions = composite & ((1 << bits) - 1)
    return sorted_keys[starts], group_ids, positions, counts


def plan_groups(keys, key_bits=None):
    """Group packed keys: ``(unique_keys, group_ids, positions)``.

    Summand ``i`` of the canonical order is input element
    ``positions[i]`` and belongs to group ``group_ids[i]``; every group
    sums in ascending input position.  With ``key_bits`` (keys lie in
    ``[0, 2**key_bits)``) and room for the positions the grouping is
    one key sort (:func:`sort_groups`); otherwise ``np.unique`` does it
    and ``positions`` is None — the summands are the input as it
    stands.  Same bytes either way.
    """
    bits = position_bits(key_bits, keys.size)
    if bits is None:
        uniq, group_ids = np.unique(keys, return_inverse=True)
        return uniq, group_ids.ravel(), None
    uniq, group_ids, positions, _ = sort_groups(
        (keys << bits) | np.arange(keys.size), bits
    )
    return uniq, group_ids, positions


def index_dtype(bound):
    """Narrowest of uint16 / int32 / int64 holding indices below ``bound``."""
    if bound <= 1 << 16:
        return np.uint16
    if bound <= 1 << 31:
        return np.int32
    return np.int64


class GroupPlan:
    """The estimate-independent half of one group-by of the mining loop.

    Keys, group boundaries and summation order of the LCA, ancestor and
    merge group-bys are functions of the partition, the sample and the
    codec; between iterations only the ``SUM(m-hat)`` column moves.  A
    plan keeps the rest: the distinct ``keys``; per summand of the
    canonical order its group (``group_ids``) and the input element it
    reads (``sources``, None when the summands are the input as it
    stands); the ``(g, 3)`` aggregate table with ``SUM(m)`` and the
    count already summed (``fixed``); and the group-by's
    data-dependent tally (agreements, emitted instances).
    :meth:`apply` is then one gather and one ``np.bincount`` over
    exactly the weight vector, grouped by exactly the ids, a one-shot
    group-by would sum — identical bytes.

    A job retains plans across iterations (see
    :func:`repro.engine.task.job_slot`), so the arrays are read-only —
    an in-place write raises instead of corrupting a later iteration —
    and the index arrays take the narrowest dtype that holds them.
    """

    __slots__ = ("keys", "group_ids", "sources", "fixed", "tally", "nbytes")

    def __init__(self, keys, group_ids, sources, sum_m, counts, tally=0):
        self.keys = keys
        self.group_ids = group_ids.astype(index_dtype(keys.size),
                                         copy=False)
        self.sources = (
            None if sources is None
            else sources.astype(index_dtype(sum_m.size), copy=False)
        )
        self.tally = tally
        self.fixed = np.zeros((keys.size, 3), dtype=np.float64)
        self.fixed[:, 0] = self._sums(sum_m)
        self.fixed[:, 2] = self._sums(counts)
        arrays = [
            array
            for array in (self.keys, self.group_ids, self.sources, self.fixed)
            if array is not None
        ]
        for array in arrays:
            array.setflags(write=False)
        #: What the job-state store charges for the plan: an ``object``
        #: key array's ``nbytes`` counts only its pointers, so the ints
        #: they point to are added here, once.
        self.nbytes = sum(array.nbytes for array in arrays)
        if keys.dtype == object:
            self.nbytes += sum(map(sys.getsizeof, keys))

    def _sums(self, weights):
        if self.sources is not None:
            # ``take``, not ``weights[...]``: fancy indexing first widens
            # a narrow index array, at three times the cost.
            weights = weights.take(self.sources)
        return np.bincount(
            self.group_ids, weights=weights, minlength=self.keys.size
        )

    def apply(self, sum_mhat):
        """The ``(g, 3)`` aggregates with ``sum_mhat`` summed per group."""
        aggs = self.fixed.copy()
        aggs[:, 1] = self._sums(sum_mhat)
        return aggs


def planned(state, build, *args):
    """``build(*args)``, kept in ``state`` when there is one.

    ``state`` is a job slot (:func:`repro.engine.task.job_slot`) or
    None.  There is one path: an empty, evicted or absent slot means
    "build", and iteration 1 is plan-then-apply like every other.
    """
    if state is None:
        return build(*args)
    plan = state.get()
    if plan is None:
        plan = build(*args)
        state.put(plan)
    return plan
