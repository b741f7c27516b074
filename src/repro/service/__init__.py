"""Scan-as-a-service: the multi-tenant campaign daemon.

The ROADMAP's "millions of users, heavy traffic" framing made concrete:
a persistent daemon that accepts campaign submissions from many tenants
and drives them through the existing engine.  The pieces:

* :class:`CampaignSpec` / :class:`TenantPolicy` (:mod:`~repro.service.
  spec`) — the JSON submission unit and the per-tenant admission/
  fair-share envelope;
* :class:`CampaignQueue` (:mod:`~repro.service.queue`) — durable
  admission-controlled queue with weighted-deficit-round-robin leasing,
  seeded so scheduler decisions replay deterministically;
* :class:`TenantStores` (:mod:`~repro.service.tenants`) — per-tenant
  :class:`~repro.store.store.ResultStore` namespaces with snapshot
  retention and row quotas;
* :class:`ScanService` (:mod:`~repro.service.daemon`) — the asyncio
  scheduler + bounded worker fleet, SIGTERM drain multiplexed across
  leases, SIGKILL-anywhere recovery via the persisted queue;
* :class:`ServiceServer` / :class:`ServiceClient` (:mod:`~repro.service.
  api`) — the stdlib HTTP JSON API and its CLI-facing client;
* the daemon-level kill-anywhere property is the ``daemon`` target of
  :mod:`repro.faults.killtest` (``python -m repro.faults.killtest daemon``).
"""

from repro.service.api import ApiError, ServiceClient, ServiceServer
from repro.service.daemon import (
    TTFR_BUCKETS,
    ActiveLease,
    ScanService,
    ServiceDraining,
    histogram_quantile,
)
from repro.service.queue import (
    DEFAULT_QUANTUM,
    AdmissionError,
    CampaignQueue,
    CampaignRecord,
    QueueError,
)
from repro.service.spec import (
    PRIORITY_FACTORS,
    CampaignSpec,
    SpecError,
    TenantPolicy,
)
from repro.service.tenants import TenantStores

__all__ = [
    "ActiveLease",
    "AdmissionError",
    "ApiError",
    "CampaignQueue",
    "CampaignRecord",
    "CampaignSpec",
    "DEFAULT_QUANTUM",
    "PRIORITY_FACTORS",
    "QueueError",
    "ScanService",
    "ServiceClient",
    "ServiceDraining",
    "ServiceServer",
    "SpecError",
    "TTFR_BUCKETS",
    "TenantPolicy",
    "TenantStores",
    "histogram_quantile",
]
