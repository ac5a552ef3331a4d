"""Materialized cube: per-cuboid group aggregates plus queries."""

from repro.common.errors import DataError
from repro.core.rule import WILDCARD
from repro.cube.cuboid import CuboidLattice, popcount, positions_of


class GroupAggregate:
    """Count and measure sum for one group (extendable per measure)."""

    __slots__ = ("count", "sum_measure")

    def __init__(self, count=0, sum_measure=0.0):
        self.count = count
        self.sum_measure = sum_measure

    def add(self, measure_value):
        self.count += 1
        self.sum_measure += measure_value

    def merge(self, other):
        self.count += other.count
        self.sum_measure += other.sum_measure
        return self

    @property
    def avg(self):
        if self.count == 0:
            raise DataError("average of an empty group is undefined")
        return self.sum_measure / self.count

    def copy(self):
        return GroupAggregate(self.count, self.sum_measure)

    def __eq__(self, other):
        return (
            isinstance(other, GroupAggregate)
            and self.count == other.count
            and abs(self.sum_measure - other.sum_measure) < 1e-9
        )

    def __repr__(self):
        return "GroupAggregate(count=%d, sum=%.6g)" % (
            self.count,
            self.sum_measure,
        )


class MaterializedCube:
    """A (possibly partial) collection of materialized cuboids.

    ``cuboids`` maps cuboid mask -> {group key tuple -> GroupAggregate}.
    Group keys hold the encoded values of the cuboid's grouped
    attributes, ordered by attribute position.
    """

    def __init__(self, arity, cuboids):
        self.lattice = CuboidLattice(arity)
        self.arity = arity
        self.cuboids = dict(cuboids)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def has_cuboid(self, mask):
        return mask in self.cuboids

    def cuboid(self, mask):
        try:
            return self.cuboids[mask]
        except KeyError:
            raise DataError("cuboid %r is not materialized" % (mask,)) from None

    def num_groups(self):
        """Total group count across materialized cuboids."""
        return sum(len(groups) for groups in self.cuboids.values())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def point(self, rule_values):
        """Aggregate for one rule (wildcard = aggregated attribute).

        ``rule_values`` is a full-arity tuple mixing encoded values and
        :data:`WILDCARD`; the matching cuboid is the one grouping
        exactly the bound positions.  Returns a GroupAggregate or None
        if the group is empty.
        """
        if len(rule_values) != self.arity:
            raise DataError("point query arity mismatch")
        mask = 0
        key = []
        for j, value in enumerate(rule_values):
            if value != WILDCARD:
                mask |= 1 << j
                key.append(value)
        groups = self.cuboid(mask)
        return groups.get(tuple(key))

    def slice(self, mask, fixed):
        """All groups of cuboid ``mask`` matching the ``fixed`` values.

        ``fixed`` maps attribute position -> required encoded value;
        every position must be grouped in ``mask``.  Returns a list of
        (key, GroupAggregate).
        """
        positions = positions_of(mask)
        for position in fixed:
            if position not in positions:
                raise DataError(
                    "slice position %d is aggregated in cuboid %r"
                    % (position, mask)
                )
        index_of = {pos: i for i, pos in enumerate(positions)}
        out = []
        for key, agg in self.cuboid(mask).items():
            if all(key[index_of[pos]] == v for pos, v in fixed.items()):
                out.append((key, agg))
        return out

    def roll_up(self, from_mask, to_mask):
        """Aggregate cuboid ``from_mask`` down to ancestor ``to_mask``.

        Returns the coarser cuboid's groups computed *from* the finer
        one.
        """
        if not self.lattice.is_ancestor(to_mask, from_mask):
            raise DataError("roll_up target must be an ancestor cuboid")
        source = self.cuboid(from_mask)
        out = {}
        for key, agg in source.items():
            coarse_key = self.lattice.project_key(key, from_mask, to_mask)
            if coarse_key in out:
                out[coarse_key].merge(agg.copy())
            else:
                out[coarse_key] = agg.copy()
        return out

    # ------------------------------------------------------------------
    # Validation helpers (used heavily by tests)
    # ------------------------------------------------------------------

    def consistent_with_base(self):
        """True iff every cuboid equals a roll-up of the base cuboid."""
        base = self.lattice.base_mask
        if base not in self.cuboids:
            return False
        for mask in self.cuboids:
            if mask == base:
                continue
            expected = self.roll_up(base, mask)
            if self.cuboids[mask] != expected:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, MaterializedCube)
            and self.arity == other.arity
            and self.cuboids.keys() == other.cuboids.keys()
            and all(
                self.cuboids[mask] == other.cuboids[mask]
                for mask in self.cuboids
            )
        )

    def __repr__(self):
        return "MaterializedCube(arity=%d, cuboids=%d, groups=%d)" % (
            self.arity,
            len(self.cuboids),
            self.num_groups(),
        )
