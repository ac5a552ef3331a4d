"""The data-cleaning comparisons the thesis positions SIRUM against.

Cited as the alternative data-cleansing technology (§1, Chapter 6):

- :mod:`~repro.baselines.pattern_tableau` — Data Auditor [17]:
  support/confidence pattern tableaux over a dirtiness measure;
- :mod:`~repro.baselines.dataxray` — Data X-Ray [35]: description-
  length cost descent selecting error-explaining features.

The rule-mining prior work of §5.6 runs through the one miner: Naive
SIRUM is the distributed port of El Gebaly et al. [16], and Sarawagi's
explorer [29] is ``SirumConfig(exhaustive=True, reset_lambdas=True)``.
"""

from repro.baselines.pattern_tableau import PatternTableau, generate_tableau
from repro.baselines.dataxray import Diagnosis, diagnose

__all__ = [
    "Diagnosis",
    "PatternTableau",
    "diagnose",
    "generate_tableau",
]
