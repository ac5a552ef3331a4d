"""repro — a reproduction of SIRUM: Scalable Informative Rule Mining.

Quickstart::

    from repro import mine
    from repro.data.generators import flight_table

    result = mine(flight_table(), k=3, variant="optimized")
    print(result.rule_set.to_markdown(flight_table()))

See README.md for the tour, the figure benchmarks and the layout, and
docs/ARCHITECTURE.md for the layer map.
"""

from repro.core import (
    Rule,
    WILDCARD,
    SirumConfig,
    Sirum,
    VARIANTS,
    mine,
    MiningResult,
    RuleSet,
    kl_divergence,
    information_gain,
)
from repro.core.config import variant_config
from repro.core.miner import make_default_cluster
from repro.data import Schema, Table

# Composition root: this import registers the remote stage executor
# with the engine, which must not import the wire layer itself.
import repro.net.worker  # noqa: E402,F401

__version__ = "1.0.0"

__all__ = [
    "Rule",
    "WILDCARD",
    "SirumConfig",
    "Sirum",
    "VARIANTS",
    "mine",
    "variant_config",
    "make_default_cluster",
    "MiningResult",
    "RuleSet",
    "kl_divergence",
    "information_gain",
    "Schema",
    "Table",
    "__version__",
]
