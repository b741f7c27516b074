"""Per-tenant result-store namespaces with quota and retention.

Every tenant owns one :class:`~repro.store.store.ResultStore` under the
service root (``tenants/<tenant>/store``); each campaign commits its
rows as one snapshot named after its daemon-scoped campaign id, so the
rounds sort in submission order and a tenant's history reads like a
ledger.  Campaign checkpoints live beside it
(``tenants/<tenant>/ckpt/<campaign_id>``) so a resumed lease finds its
shard state where the previous attempt left it.

Retention runs **between** campaigns, never during: the enforcement hook
is only called when the tenant has zero in-flight leases, because
dropping snapshots rewrites the manifest the in-flight campaign is about
to commit into (the store's commit lock makes racing merely *safe*, not
sensible).  Policy is two dials on :class:`~repro.service.spec.
TenantPolicy`:

* ``retain_snapshots`` — keep the newest N rounds, drop the rest (their
  unshared segments are deleted by :meth:`~repro.store.store.ResultStore.
  drop_snapshot`);
* ``store_quota_rows`` — drop oldest rounds until committed rows fit the
  quota, then compact so the disk actually shrinks.

Reads share one handle per tenant: :meth:`TenantStores.open` hands back
the tenant's :class:`~repro.store.store.ResultStore` for as long as its
stamp holds (:meth:`~repro.store.store.ResultStore.valid`) and opens a
fresh one — the full validating open — when it does not.  The shared
handle is read-only: handler threads use it concurrently, so anything
that writes (retention, campaigns) opens its own.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.service.spec import TenantPolicy
from repro.store.store import ResultStore
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY


class TenantStores:
    """Directory layout + retention policy for per-tenant stores."""

    def __init__(
        self,
        root: str,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.root = Path(root)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.events = events
        #: tenant -> the shared read handle (see :meth:`open`).
        self._handles: Dict[str, ResultStore] = {}

    # -- layout ------------------------------------------------------------

    def tenant_dir(self, tenant: str) -> Path:
        return self.root / "tenants" / tenant

    def store_dir(self, tenant: str) -> str:
        return str(self.tenant_dir(tenant) / "store")

    def checkpoint_dir(self, tenant: str, campaign_id: str) -> str:
        return str(self.tenant_dir(tenant) / "ckpt" / campaign_id)

    def open(self, tenant: str) -> ResultStore:
        """The tenant's shared **read-only** handle, current as of now.

        Re-validated by stamp on every call and replaced — never refreshed
        in place — when the manifest has moved, so a thread still reading
        through the previous object keeps one complete manifest.  Two
        threads that miss together each open one; the later assignment
        wins and both handles are good.
        """
        store = self._handles.get(tenant)
        if store is None or not store.valid():
            store = self._private(tenant)
            self._handles[tenant] = store
        return store

    def _private(self, tenant: str) -> ResultStore:
        return ResultStore(self.store_dir(tenant), metrics=self.metrics)

    def tenants(self) -> List[str]:
        base = self.root / "tenants"
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir())

    # -- retention ---------------------------------------------------------

    def enforce(self, tenant: str, policy: TenantPolicy) -> Dict[str, object]:
        """Apply retention/quota to one idle tenant; returns a summary.

        Caller contract: the tenant has no in-flight leases.  Oldest
        rounds go first — snapshot names embed the monotonic campaign id,
        so lexicographic order within a daemon scope *is* submission
        order.
        """
        summary: Dict[str, object] = {
            "tenant": tenant, "dropped": [], "compacted": False,
        }
        if (
            policy.retain_snapshots is None
            and policy.store_quota_rows is None
        ):
            return summary
        store_path = Path(self.store_dir(tenant))
        if not store_path.is_dir():
            return summary
        store = self._private(tenant)  # it mutates: never the shared handle
        dropped: List[str] = []
        names = sorted(store.snapshots)
        if policy.retain_snapshots is not None:
            while len(names) > policy.retain_snapshots:
                victim = names.pop(0)
                store.drop_snapshot(victim)
                dropped.append(victim)
        if policy.store_quota_rows is not None:
            while names and store.total_rows > policy.store_quota_rows:
                victim = names.pop(0)
                store.drop_snapshot(victim)
                dropped.append(victim)
        if dropped:
            store.compact()
            summary["compacted"] = True
            self.metrics.counter(
                "service_retention_drops", tenant=tenant
            ).inc(len(dropped))
            if self.events is not None:
                self.events.emit(
                    "service_retention",
                    tenant=tenant,
                    dropped=dropped,
                    rows=store.total_rows,
                )
        summary["dropped"] = dropped
        summary["rows"] = store.total_rows
        return summary
