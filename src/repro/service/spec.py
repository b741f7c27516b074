"""Campaign submissions: the JSON-serialisable unit of tenant work.

A :class:`CampaignSpec` is what crosses the service boundary — an HTTP
body, a CLI ``--submit`` payload, a queue-state record.  It captures
everything needed to rebuild the *same* :class:`~repro.engine.campaign.
Campaign` on any daemon: the scan window, the topology recipe (builder
kind + params, the same pair :class:`~repro.net.spec.TopologySpec`
pickles for pool workers), sharding, and the tenant/priority envelope
the scheduler consumes.  Round-tripping through :meth:`to_dict` /
:meth:`from_dict` is exact, so the persisted queue survives daemon
restarts without losing a parameter.

The determinism this leans on is the engine's: a spec names a seeded
topology and a seeded scan, so running it through the daemon or through
a standalone ``Campaign`` produces bit-identical stores — the acceptance
property the service tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange

#: Priority classes and their scheduling factors.  The factor *divides*
#: a campaign's deficit cost: interactive work drains a tenant's deficit
#: 4x slower than its probe budget suggests (so it leases sooner), batch
#: work 4x faster (so it yields).  Weights stay per-tenant; priorities
#: order work *within* the fair share.
PRIORITY_FACTORS: Dict[str, float] = {
    "interactive": 4.0,
    "normal": 1.0,
    "batch": 0.25,
}


class SpecError(ValueError):
    """A submission that can never run: malformed range, bad priority."""


@dataclass(frozen=True)
class CampaignSpec:
    """One tenant-submitted campaign, JSON-round-trippable."""

    tenant: str
    name: str
    scan_range: str
    topology: str = "mini"
    topology_params: Tuple[Tuple[str, object], ...] = ()
    seed: int = 0
    shards: int = 2
    executor: str = "serial"
    priority: str = "normal"
    rate_pps: float = 25_000.0
    max_probes: Optional[int] = None
    checkpoint_every: int = 64

    def __post_init__(self) -> None:
        if not self.tenant or "/" in self.tenant or "." in self.tenant:
            raise SpecError(f"bad tenant name {self.tenant!r}")
        if self.priority not in PRIORITY_FACTORS:
            raise SpecError(
                f"unknown priority {self.priority!r}; "
                f"pick one of {sorted(PRIORITY_FACTORS)}"
            )
        if self.shards < 1:
            raise SpecError("shards must be >= 1")
        if self.max_probes is not None and self.max_probes < 1:
            # The probe budget is the admission charge: a negative one
            # would credit the tenant's quota and scheduling deficit.
            raise SpecError("max_probes must be >= 1")
        if not (math.isfinite(self.rate_pps) and self.rate_pps > 0):
            raise SpecError("rate_pps must be a positive number")
        if self.checkpoint_every < 0:
            raise SpecError("checkpoint_every must be >= 0")
        # Fail-fast on the range before the campaign is queued, and parse
        # it once: the scheduler asks for the probe budget several times a
        # lease.  Not a field, so it stays out of ``==``, ``hash``, ``repr``
        # and every serialised form; ``scan_range`` is the spec's word.
        try:
            parsed = ScanRange.parse(self.scan_range)
        except Exception as exc:
            raise SpecError(f"bad scan range {self.scan_range!r}: {exc}") from exc
        object.__setattr__(self, "_parsed_range", parsed)

    def parsed_range(self) -> ScanRange:
        return self._parsed_range  # type: ignore[attr-defined]

    @property
    def probe_budget(self) -> int:
        """Worst-case probes this campaign may send (admission currency)."""
        count = self.parsed_range().count
        if self.max_probes is not None:
            count = min(count, self.max_probes)
        return count

    @property
    def priority_factor(self) -> float:
        return PRIORITY_FACTORS[self.priority]

    @property
    def effective_cost(self) -> float:
        """Deficit charge for leasing this campaign: budget ÷ priority."""
        return self.probe_budget / self.priority_factor

    def topology_spec(self):
        from repro.net.spec import TopologySpec

        return TopologySpec(
            self.topology,
            tuple(sorted(dict(self.topology_params).items())),
        )

    def scan_config(self) -> ScanConfig:
        return ScanConfig(
            scan_range=self.parsed_range(),
            rate_pps=self.rate_pps,
            seed=self.seed,
            max_probes=self.max_probes,
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "name": self.name,
            "scan_range": self.scan_range,
            "topology": self.topology,
            "topology_params": dict(self.topology_params),
            "seed": self.seed,
            "shards": self.shards,
            "executor": self.executor,
            "priority": self.priority,
            "rate_pps": self.rate_pps,
            "max_probes": self.max_probes,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        try:
            tenant = str(data["tenant"])
            name = str(data["name"])
            scan_range = str(data["scan_range"])
        except KeyError as exc:
            raise SpecError(f"submission missing field {exc}") from exc
        params = data.get("topology_params") or {}
        if not isinstance(params, Mapping):
            raise SpecError("topology_params must be an object")
        return cls(
            tenant=tenant,
            name=name,
            scan_range=scan_range,
            topology=str(data.get("topology", "mini")),
            topology_params=tuple(sorted(params.items())),
            seed=_integer(data, "seed", 0),
            shards=_integer(data, "shards", 2),
            executor=str(data.get("executor", "serial")),
            priority=str(data.get("priority", "normal")),
            rate_pps=float(_number(data, "rate_pps", 25_000.0)),
            max_probes=(
                None if data.get("max_probes") is None
                else _integer(data, "max_probes", 0)
            ),
            checkpoint_every=_integer(data, "checkpoint_every", 64),
        )


def _number(data: Mapping[str, object], key: str, default: float) -> float:
    """A numeric submission field; JSON lets any type arrive in its place."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{key} must be a number, not {value!r}")
    return value


def _integer(data: Mapping[str, object], key: str, default: int) -> int:
    value = _number(data, key, default)
    if not isinstance(value, int):
        raise SpecError(f"{key} must be an integer, not {value!r}")
    return value


@dataclass
class TenantPolicy:
    """Admission + fair-share envelope for one tenant.

    ``weight`` scales deficit accrual (fair-share bandwidth); a tenant
    with weight 2 leases twice the probe volume of a weight-1 tenant
    under contention.  ``max_in_flight`` bounds concurrent leases;
    ``max_queued`` bounds admission to the backlog; a requeued or
    recovered lease may exceed it by at most ``max_in_flight`` (that work
    was already admitted — refusing its return would drop an acknowledged
    campaign); ``probe_budget`` caps the probes outstanding (queued +
    leased) at once — the service-level analogue of the paper's
    good-citizen rate budget.  ``retain_snapshots`` /
    ``store_quota_rows`` drive the tenant store's retention/compaction
    (see :mod:`repro.service.tenants`).
    """

    weight: float = 1.0
    max_in_flight: int = 2
    max_queued: int = 64
    probe_budget: Optional[int] = None
    retain_snapshots: Optional[int] = None
    store_quota_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise SpecError("tenant weight must be > 0 (starvation)")
        if self.max_in_flight < 1 or self.max_queued < 1:
            raise SpecError("max_in_flight/max_queued must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "weight": self.weight,
            "max_in_flight": self.max_in_flight,
            "max_queued": self.max_queued,
            "probe_budget": self.probe_budget,
            "retain_snapshots": self.retain_snapshots,
            "store_quota_rows": self.store_quota_rows,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TenantPolicy":
        kwargs: Dict[str, object] = {}
        for key in (
            "weight", "max_in_flight", "max_queued", "probe_budget",
            "retain_snapshots", "store_quota_rows",
        ):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)  # type: ignore[arg-type]


__all__ = [
    "PRIORITY_FACTORS",
    "CampaignSpec",
    "SpecError",
    "TenantPolicy",
]
