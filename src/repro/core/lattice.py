"""Column grouping of the cube lattice — thesis §4.3.

Thesis §2.5 defines the cube lattice CL(t) of a tuple; §4.3 splits
ancestor generation into multiple stages along *column groups* so that
shared ancestors are merged (reduced) before their senior ancestors are
generated, shrinking the number of emitted key-value pairs.  The stages
themselves run over packed keys (:mod:`repro.core.lattice_packed`).
Appendix A proves the staged generation emits exactly the same
candidate set with the same aggregates; ``tests/core/test_lattice.py``
checks that theorem property-based.
"""

from repro.common.errors import ConfigError
from repro.common.rng import make_rng


def make_column_groups(arity, num_groups, seed=None):
    """Randomly partition dimension positions into ordered groups.

    Thesis §4.3: "we randomly partition the dimension attributes into g
    ordered parts".  With ``seed=None`` the split is the deterministic
    even split in attribute order (used by tests); otherwise positions
    are shuffled first.
    """
    if not 1 <= num_groups <= arity:
        raise ConfigError(
            "num_groups must be between 1 and the number of dimensions"
        )
    positions = list(range(arity))
    if seed is not None:
        make_rng(seed).shuffle(positions)
    groups = []
    for g in range(num_groups):
        start = arity * g // num_groups
        stop = arity * (g + 1) // num_groups
        groups.append(tuple(sorted(positions[start:stop])))
    return [g for g in groups if g]
