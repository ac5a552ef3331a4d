"""Rules: elements of (dom(A1) u {*}) x ... x (dom(Ad) u {*}).

Thesis §2.1.  A rule is a tuple over the dimension attributes where
each position holds either an encoded attribute value or the wildcard.
Wildcards are represented by the integer :data:`WILDCARD` (-1) so rules
stay homogeneous integer tuples — hashable dict keys and cheap to
compare — and never collide with dictionary codes (which are >= 0).
"""

import numpy as np

from repro.common.errors import DataError

WILDCARD = -1


class Rule:
    """An immutable rule over ``d`` encoded dimension attributes."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        for v in values:
            if v < WILDCARD:
                raise DataError("rule values must be codes >= 0 or WILDCARD")
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Rule is immutable")

    def __reduce__(self):
        # Pickle by reconstruction: the default slot-state protocol
        # would trip over the immutability guard above, and rules must
        # pickle to cross a process boundary (results, prior rules).
        return (Rule, (self.values,))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def all_wildcards(cls, arity):
        """The root rule (*, *, ..., *) that covers every tuple."""
        return cls((WILDCARD,) * arity)

    @classmethod
    def lca(cls, left, right):
        """Least common ancestor of two encoded tuples (thesis §2.1).

        Positions where the tuples agree keep the value; the rest become
        wildcards.  Also accepts rules, in which case a wildcard on
        either side yields a wildcard.
        """
        left_values = left.values if isinstance(left, Rule) else tuple(left)
        right_values = right.values if isinstance(right, Rule) else tuple(right)
        if len(left_values) != len(right_values):
            raise DataError("lca requires tuples of equal arity")
        return cls(
            tuple(
                a if a == b and a != WILDCARD else WILDCARD
                for a, b in zip(left_values, right_values)
            )
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def arity(self):
        return len(self.values)

    def bound_positions(self):
        """Positions carrying a concrete (non-wildcard) value."""
        return tuple(j for j, v in enumerate(self.values) if v != WILDCARD)

    @property
    def num_bound(self):
        """Number of non-wildcard attributes (lattice depth)."""
        return sum(1 for v in self.values if v != WILDCARD)

    def is_root(self):
        return all(v == WILDCARD for v in self.values)

    # ------------------------------------------------------------------
    # Matching and ordering (thesis §2.1, §2.5)
    # ------------------------------------------------------------------

    def matches(self, codes):
        """True iff the encoded tuple ``codes`` matches this rule."""
        return all(
            v == WILDCARD or v == c for v, c in zip(self.values, codes)
        )

    def match_mask(self, table):
        """Vectorized coverage mask over a :class:`Table`'s rows."""
        mask = np.ones(len(table), dtype=bool)
        for j, v in enumerate(self.values):
            if v != WILDCARD:
                mask &= table.dimension_columns()[j] == v
        return mask

    def is_ancestor_of(self, other):
        """True iff every attribute is a wildcard or equals ``other``'s."""
        return all(
            a == WILDCARD or a == b for a, b in zip(self.values, other.values)
        )

    def is_descendant_of(self, other):
        return other.is_ancestor_of(self)

    def is_disjoint(self, other):
        """Attribute-level disjointness (thesis §2.1).

        True iff some attribute is bound to *different* values on both
        sides.  Disjoint rules have disjoint support sets; overlapping
        rules may still have disjoint supports (the (Wed,*,*) vs
        (*,*,London) example).
        """
        return any(
            a != WILDCARD and b != WILDCARD and a != b
            for a, b in zip(self.values, other.values)
        )

    def overlaps(self, other):
        return not self.is_disjoint(other)

    # ------------------------------------------------------------------
    # Lattice navigation
    # ------------------------------------------------------------------

    def generalize(self, positions):
        """Return the ancestor wildcarding exactly ``positions``."""
        values = list(self.values)
        for pos in positions:
            values[pos] = WILDCARD
        return Rule(values)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def decode(self, table):
        """Human-readable values using the table's encoders ('*' for wildcards)."""
        out = []
        for enc, v in zip(table.encoders(), self.values):
            out.append("*" if v == WILDCARD else enc.decode(v))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Rule) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        rendered = ", ".join(
            "*" if v == WILDCARD else str(v) for v in self.values
        )
        return "Rule(%s)" % rendered
