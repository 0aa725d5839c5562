"""Multi-tenant session scheduling for the join service.

N sessions share M pool workers (:mod:`~repro.service.scheduler.pool`)
scheduled by weighted deficit round robin over tenants
(:mod:`~repro.service.scheduler.ready`), with per-tenant quotas
(:mod:`~repro.service.scheduler.tenants`), all behind a single-loop
selector transport (:mod:`~repro.service.scheduler.aserver`).
:class:`~repro.service.server.JoinService` owns one of each, plus idle
checkpoint-evict / lazy restore.

Size the pool with ``sssj serve --pool-workers N`` or
``serve(pool_workers=N, scheduler_options={...})``; the default is one
worker per CPU.
"""

from repro.service.scheduler.aserver import SelectorServiceServer
from repro.service.scheduler.pool import WorkerPool, default_pool
from repro.service.scheduler.ready import DRRReadyQueue
from repro.service.scheduler.tenants import (
    QUOTA_CODES,
    QuotaError,
    TenantQuota,
    TenantState,
)

__all__ = [
    "DRRReadyQueue",
    "QUOTA_CODES",
    "QuotaError",
    "SelectorServiceServer",
    "TenantQuota",
    "TenantState",
    "WorkerPool",
    "default_pool",
]
