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

A round read in full through the shared handle is *rendered once*
(:meth:`TenantStores.render`): its ``/results`` text
(:class:`~repro.core.rows.RowsText` — chunks plus every row's end) is kept
beside the handle, and every later full or ``?limit=`` read of the round
is served from it, the limited one as a prefix of its chunks.  A rendered
round lives as long as the handle it was read through: the handle is
replaced when the stamp moves (commit, retention, compaction, quarantine),
and its rounds go with it.  Before text is served from a rendered round,
the blocks an uncached read would decode are checked as that read checks
them — each segment's size, its magic, every block's CRC — and each
block's CRC trailer must be the one seen when the text was rendered, so a
corrupt block is still a quarantine and a 500, and a segment rewritten
behind the handle is rendered again, never served stale.  A ``?limit=``
read that finds nothing rendered decodes only its rows and keeps nothing.
The rendered rounds of every tenant share :data:`RENDERED_BUDGET` bytes,
least recently used out first; a round over it is served and not kept.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.rows import RowsText, as_buffer, rows_text
from repro.service.spec import TenantPolicy
from repro.store.snapshot import Snapshot
from repro.store.store import ResultStore
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY


#: Bytes of rendered rounds (text and row ends) kept across all tenants.
RENDERED_BUDGET = 32 << 20


class _Rendered(NamedTuple):
    """One round's ``/results`` text, and what it was rendered from."""

    #: The shared handle the round was read through.
    store: ResultStore
    #: CRC trailer of every block read, in read order.
    crcs: List[int]
    text: RowsText


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
        #: (tenant, snapshot) -> its rendered round (see :meth:`render`),
        #: least recently used first, and their bytes; under the lock.
        self._rendered: "OrderedDict[Tuple[str, str], _Rendered]" = (
            OrderedDict()
        )
        self._rendered_bytes = 0
        self._rendered_lock = threading.Lock()

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
            with self._rendered_lock:  # the old handle's rounds go with it
                for key in [key for key in self._rendered if key[0] == tenant]:
                    self._rendered_bytes -= self._rendered.pop(key).text.nbytes
        return store

    def render(
        self,
        tenant: str,
        store: ResultStore,
        snapshot: Snapshot,
        limit: Optional[int] = None,
    ) -> list:
        """The ``/results`` text of the first ``limit`` rows of
        ``snapshot`` (all by default), read through ``store`` — the handle
        :meth:`open` returned — as buffers (:meth:`RowsText.pieces`).

        Served from the round's rendered text when there is one and the
        blocks it came from are unchanged; otherwise decoded and rendered,
        and kept when the read was a full one.  Raises what the store's
        read raises (:class:`~repro.store.store.StoreCorruption`,
        :class:`~repro.store.store.StoreStale`).
        """
        key = (tenant, snapshot.name)
        with self._rendered_lock:
            kept = self._rendered.get(key)
            if kept is not None:
                self._rendered.move_to_end(key)
        if kept is not None and kept.store is store:
            seen = [crc for crc, _count, _rows
                    in store.iter_blocks(snapshot.segments, limit, None)]
            whole = limit is None or limit >= len(kept.text)
            if seen == (kept.crcs if whole else kept.crcs[:len(seen)]):
                return kept.text.pieces(limit)
            with self._rendered_lock:  # rewritten since: render it again
                if self._rendered.get(key) is kept:
                    del self._rendered[key]
                    self._rendered_bytes -= kept.text.nbytes
        crcs: List[int] = []

        def blocks():
            for crc, _count, rows in store.iter_blocks(
                snapshot.segments, limit, as_buffer
            ):
                crcs.append(crc)
                yield rows

        text = rows_text(blocks())
        if limit is None:
            self._keep(key, _Rendered(store, crcs, text))
        return text.pieces()

    def _keep(self, key: Tuple[str, str], rendered: _Rendered) -> None:
        """Keep a rendered round under :data:`RENDERED_BUDGET`, evicting
        the least recently used, unless it is over the budget alone or its
        handle has been replaced meanwhile (its rounds are gone)."""
        size = rendered.text.nbytes
        if size > RENDERED_BUDGET:
            return
        with self._rendered_lock:
            if self._handles.get(key[0]) is not rendered.store:
                return
            old = self._rendered.pop(key, None)
            if old is not None:
                self._rendered_bytes -= old.text.nbytes
            self._rendered[key] = rendered
            self._rendered_bytes += size
            while self._rendered_bytes > RENDERED_BUDGET:
                _, evicted = self._rendered.popitem(last=False)
                self._rendered_bytes -= evicted.text.nbytes

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
