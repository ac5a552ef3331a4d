"""Data-cube computation and querying.

SIRUM's candidate-rule generation *is* a data-cube computation (thesis
§3.1 uses the MapReduce cube algorithm of Nandi et al. [25]), and the
related work chapter situates it against hash-based cube computation
(Agarwal et al. [3]) and sort-based distributed computation (Lee et
al. [22]).  This package implements that family over the columnar
:class:`~repro.data.table.Table`:

- :mod:`repro.cube.cuboid` — the group-by lattice (which attribute
  *sets* exist, distinct from the per-value cube lattice of §2.5);
- :mod:`repro.cube.compute` — four algorithms producing identical
  cubes: naive per-cuboid passes, smallest-parent hash computation,
  pipe-sort style shared-sort computation, and BUC with iceberg
  (minimum-support) pruning;
- :mod:`repro.cube.materialized` — the result container plus point /
  slice / roll-up queries.

All aggregate (count, SUM(m)) per group, the aggregates SIRUM's gain
formula needs.
"""

from repro.cube.compute import buc_cube, hash_cube, naive_cube, sort_cube
from repro.cube.cuboid import CuboidLattice
from repro.cube.materialized import MaterializedCube

__all__ = [
    "CuboidLattice",
    "MaterializedCube",
    "buc_cube",
    "hash_cube",
    "naive_cube",
    "sort_cube",
]
