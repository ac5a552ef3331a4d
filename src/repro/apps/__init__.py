"""Applications of informative rule mining (thesis Chapter 1).

Summarization, the first application, is :func:`repro.mine` itself.

- :mod:`~repro.apps.cube_exploration` — recommending informative cells
  of a data cube given what the analyst has already examined (Figure
  5.15 runs it);
- :mod:`~repro.apps.cleaning` — diagnosing data-quality problems by
  mining rules over a dirtiness indicator.
"""

from repro.apps.cube_exploration import (
    explore_cube,
    group_by_rules,
    lowest_cardinality_dimensions,
)
from repro.apps.cleaning import diagnose_dirty_records

__all__ = [
    "explore_cube",
    "group_by_rules",
    "lowest_cardinality_dimensions",
    "diagnose_dirty_records",
]
