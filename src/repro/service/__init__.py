"""Concurrent mining service: scheduler, coalescing, versioned cache.

    >>> from repro.service import RuleMiningService
    >>> service = RuleMiningService()
    >>> service.register_dataset("flights", flight_table())
    >>> handle = service.submit_mine("flights", k=3, variant="optimized")
    >>> result = handle.result()          # MiningResult, as from mine()
    >>> service.query("SELECT COUNT(*) FROM flights").scalar()

See :mod:`repro.service.service` for the architecture overview.
"""

from repro.service.budget import BudgetGrant, EngineBudget
from repro.service.cache import ResultCache
from repro.service.fingerprint import mining_fingerprint, sql_fingerprint
from repro.service.jobs import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Job,
    JobHandle,
    JobMetrics,
)
from repro.service.scheduler import JobScheduler
from repro.service.service import (
    DatasetHandle,
    RuleMiningService,
    ServiceConfig,
)

__all__ = [
    "BudgetGrant",
    "DatasetHandle",
    "EngineBudget",
    "Job",
    "JobHandle",
    "JobMetrics",
    "JobScheduler",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "ResultCache",
    "RuleMiningService",
    "ServiceConfig",
    "mining_fingerprint",
    "sql_fingerprint",
]
