"""The scan-service daemon: scheduler loop + worker fleet + drain.

``ScanService`` composes the queue (:mod:`repro.service.queue`), the
tenant store layout (:mod:`repro.service.tenants`), and the engine's
:class:`~repro.engine.campaign.Campaign` into one long-running process:

* an **asyncio scheduler** (:meth:`ScanService.run`) leases campaigns
  from the WDRR queue whenever fleet slots are free and hands each lease
  to a bounded ``ThreadPoolExecutor`` — ``Campaign.run`` is synchronous,
  so the fleet is threads — and off the main thread a campaign's SIGTERM
  scopes are pass-through, so no lease ever touches the process signal
  table;
* one **service-level SIGTERM handler** (:meth:`ScanService.sigterm_scope`,
  the supervisor's :func:`~repro.engine.supervisor.sigterm_drain_scope`)
  multiplexes drain across every in-flight lease: draining stops
  admission and leasing, each campaign's injected ``abort_check`` trips
  at its next shard boundary, the lease raises
  :class:`~repro.engine.campaign.CampaignAborted` *without committing*,
  and the queue requeues it with ``resume=True`` — so a drained daemon's
  state file describes exactly the work a successor must finish;
* **crash safety for free**: the queue persists through the store's
  oslayer at every transition, and a SIGKILLed daemon's leases reload as
  queued-with-resume; the engine's checkpoint/resume then converges each
  re-run to a store bit-identical to an uninterrupted one.

Every campaign runs with its own :class:`~repro.telemetry.events.
EventLog` labelled ``{"tenant": ...}`` — worker records ingested into it
carry the tenant on every line — while the service keeps its own log for
queue/lease lifecycle.  Service metrics (queue depth, accepted/leased/
done counters, per-tenant time-to-first-result histograms) flow through
one :class:`~repro.telemetry.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import ContextManager, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.rows import Rows, as_packed
from repro.engine.campaign import Campaign, CampaignAborted
from repro.engine.supervisor import sigterm_drain_scope
from repro.service.queue import (
    DEFAULT_QUANTUM,
    CampaignQueue,
    CampaignRecord,
    QueueError,
)
from repro.service.spec import CampaignSpec, TenantPolicy
from repro.service.tenants import TenantStores
from repro.store.store import StoreStale
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import Histogram, MetricsRegistry

#: Time-to-first-result histogram bounds (seconds): sub-second buckets
#: for demo topologies, a long tail for real sweeps.
TTFR_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class ServiceDraining(RuntimeError):
    """Submission refused: the daemon is draining for shutdown/upgrade."""


class ResultsGone(RuntimeError):
    """A finished campaign's round is no longer in its tenant's store."""


def histogram_quantile(hist: Histogram, q: float) -> float:
    """Conservative bucket-boundary quantile (the p99 the status API
    reports).  Observations past the last bound report that bound."""
    if hist.count == 0:
        return 0.0
    target = q * hist.count
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.counts):
        cumulative += count
        if cumulative >= target:
            return bound
    return hist.bounds[-1]


@dataclass
class ActiveLease:
    """Scheduler-side view of one running campaign."""

    record: CampaignRecord
    started: float
    #: Set by the worker thread once the Campaign object exists, so
    #: ``cancel``/drain can ask it to abort mid-run.
    campaign: Optional[Campaign] = None
    events_path: str = ""
    first_result_at: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)


class ScanService:
    """The multi-tenant campaign daemon.  Thread-safe public API."""

    def __init__(
        self,
        root: str,
        policies: Optional[Mapping[str, TenantPolicy]] = None,
        default_policy: Optional[TenantPolicy] = None,
        max_workers: int = 2,
        seed: int = 0,
        scope: Optional[str] = None,
        quantum: float = DEFAULT_QUANTUM,
        poll_interval: float = 0.02,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_workers = max_workers
        self.poll_interval = poll_interval
        self.metrics = MetricsRegistry()
        #: The service's own journal (lease lifecycle, drain, recovery).
        self.events = EventLog(campaign_id="service")
        self.queue = CampaignQueue(
            str(self.root / "queue.json"),
            policies=policies,
            default_policy=default_policy,
            seed=seed,
            scope=scope,
            quantum=quantum,
            metrics=self.metrics,
            events=self.events,
        )
        self.stores = TenantStores(
            str(self.root), metrics=self.metrics, events=self.events
        )
        (self.root / "logs").mkdir(exist_ok=True)
        self._lock = threading.RLock()
        self._draining = threading.Event()
        self._in_flight: Dict[str, ActiveLease] = {}
        self._submitted_at: Dict[str, float] = {}

    # -- tenant-facing API (callable from HTTP handler threads) ------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def submit(
        self, spec: Union[CampaignSpec, Mapping[str, object]]
    ) -> Dict[str, object]:
        """Admit a campaign; returns its queue record as a dict."""
        if self._draining.is_set():
            self.metrics.counter(
                "service_admission_rejected", reason="draining"
            ).inc()
            raise ServiceDraining("service is draining; resubmit later")
        if not isinstance(spec, CampaignSpec):
            spec = CampaignSpec.from_dict(spec)
        record = self.queue.submit(spec)
        with self._lock:
            self._submitted_at[record.campaign_id] = time.monotonic()
        return record.to_dict()

    def status(self, campaign_id: str) -> Dict[str, object]:
        return self.queue.get(campaign_id).to_dict()

    def cancel(self, campaign_id: str) -> Dict[str, object]:
        record = self.queue.cancel(campaign_id)
        with self._lock:
            lease = self._in_flight.get(campaign_id)
        if lease is not None and lease.campaign is not None:
            lease.campaign.request_abort()
        return record.to_dict()

    def list_campaigns(
        self, tenant: Optional[str] = None
    ) -> List[Dict[str, object]]:
        records = self.queue.in_state(*("queued", "leased", "done",
                                        "failed", "cancelled"))
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return [r.to_dict() for r in records]

    def results(
        self, campaign_id: str, limit: Optional[int] = None
    ) -> Rows:
        """Committed rows of one finished campaign's store round — the
        first ``limit`` of them (0 is none; negative is a ValueError) —
        packed, as the segments hold them."""
        return self._read_round(
            self._finished(campaign_id, limit),
            lambda store, snap: Rows.of(list(store.iter_rows(
                snap.segments, limit=limit, project=as_packed
            ))),
        )

    def results_text(
        self, campaign_id: str, limit: Optional[int] = None
    ) -> list:
        """What ``/results`` serves between the brackets for the same
        arguments as :meth:`results` — ``", ".join`` of each row's JSON
        text, byte for byte — as buffers, from the round's rendered text
        when the tenant has it (:meth:`TenantStores.render`)."""
        record = self._finished(campaign_id, limit)
        return self._read_round(
            record,
            lambda store, snap: self.stores.render(
                record.tenant, store, snap, limit
            ),
        )

    def _finished(
        self, campaign_id: str, limit: Optional[int]
    ) -> CampaignRecord:
        """The record of a campaign whose results may be read."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        record = self.queue.get(campaign_id)
        if record.state != "done":
            raise QueueError(
                f"campaign {campaign_id} is {record.state}; "
                "results exist only once done"
            )
        return record

    def _read_round(self, record: CampaignRecord, read):
        """``read(store, snapshot)`` of the record's round through the
        tenant's shared handle; ResultsGone once retention dropped it."""
        while True:
            try:
                store = self.stores.open(record.tenant)
                snap = store.snapshots.get(record.snapshot)
                if snap is None:
                    raise self._gone(record)
                return read(store, snap)
            except StoreStale:
                # Retention dropped or compacted segments under this read;
                # nothing is corrupt, the handle is just out of date.  The
                # manifest moved, so the next open() loads the new one.
                pass

    def _gone(self, record: CampaignRecord) -> ResultsGone:
        policy = self.queue.policy(record.tenant)
        dials = ", ".join(
            f"{dial}={getattr(policy, dial)}"
            for dial in ("retain_snapshots", "store_quota_rows")
            if getattr(policy, dial) is not None
        )
        return ResultsGone(
            f"round {record.snapshot} of campaign {record.campaign_id} "
            + (f"was dropped by tenant retention ({dials})" if dials
               else "is no longer in the tenant's store")
        )

    def service_status(self) -> Dict[str, object]:
        """The /v1/status document: queue + fleet + latency summary."""
        with self._lock:
            in_flight = {
                cid: lease.record.tenant
                for cid, lease in self._in_flight.items()
            }
        states: Dict[str, int] = {}
        for record in self.queue.in_state(
            "queued", "leased", "done", "failed", "cancelled"
        ):
            states[record.state] = states.get(record.state, 0) + 1
        ttfr = {
            tenant: {
                "p50": histogram_quantile(hist, 0.50),
                "p99": histogram_quantile(hist, 0.99),
                "count": hist.count,
            }
            for tenant, hist in self._ttfr_histograms().items()
        }
        return {
            "draining": self.draining,
            "queue_depth": self.queue.depth,
            "in_flight": in_flight,
            "states": states,
            "tenants": self.stores.tenants(),
            "scope": self.queue.allocator.scope,
            "ttfr_seconds": ttfr,
        }

    def _ttfr_histograms(self) -> Dict[str, Histogram]:
        return {
            str(dict(labels).get("tenant", "")): hist
            for labels, hist in self.metrics.histograms_named(
                "service_ttfr_seconds"
            ).items()
        }

    # -- drain -------------------------------------------------------------

    def request_drain(self) -> None:
        """Stop admitting and leasing; abort in-flight leases at their
        next shard boundary (they requeue with ``resume=True``)."""
        if self._draining.is_set():
            return
        self._draining.set()
        self.metrics.counter("service_drains").inc()
        self.events.emit("service_drain_requested")
        with self._lock:
            leases = list(self._in_flight.values())
        for lease in leases:
            if lease.campaign is not None:
                lease.campaign.request_abort()

    def sigterm_scope(self) -> ContextManager[None]:
        """One process-level SIGTERM handler multiplexed over all leases:
        the first SIGTERM requests a drain, a second escalates."""
        return sigterm_drain_scope(self._draining.is_set, self.request_drain)

    # -- scheduler ---------------------------------------------------------

    def _tenant_counts(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for lease in self._in_flight.values():
                tenant = lease.record.tenant
                counts[tenant] = counts.get(tenant, 0) + 1
            return counts

    async def run(self, until_idle: bool = False) -> None:
        """The scheduler loop.  ``until_idle=True`` returns once the
        queue is empty and the fleet is idle (tests, batch mode); the
        default runs until a drain empties the fleet."""
        loop = asyncio.get_running_loop()
        pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="lease"
        )
        pending: Dict[asyncio.Future, str] = {}
        self.events.emit(
            "service_started",
            workers=self.max_workers,
            recovered=self.queue.recovered_leases,
            depth=self.queue.depth,
        )
        try:
            while True:
                if not self._draining.is_set():
                    while len(pending) < self.max_workers:
                        record = self.queue.next_lease(self._tenant_counts())
                        if record is None:
                            break
                        lease = ActiveLease(
                            record=record, started=time.monotonic()
                        )
                        with self._lock:
                            self._in_flight[record.campaign_id] = lease
                        future = loop.run_in_executor(
                            pool, self._run_lease, lease
                        )
                        pending[future] = record.campaign_id
                if not pending:
                    if self._draining.is_set():
                        break
                    if until_idle and self.queue.depth == 0:
                        break
                    await asyncio.sleep(self.poll_interval)
                    continue
                done, _ = await asyncio.wait(
                    set(pending),
                    timeout=self.poll_interval,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for future in done:
                    campaign_id = pending.pop(future)
                    self._finish(campaign_id, future.result())
        finally:
            pool.shutdown(wait=True)
            self.queue.save()
            self.events.emit(
                "service_stopped",
                drained=self.draining,
                depth=self.queue.depth,
            )
            self.events.write(str(self.root / "logs" / "service.ndjson"))

    def run_until_idle(self) -> None:
        """Synchronous convenience wrapper (tests, ``--once`` CLI mode)."""
        asyncio.run(self.run(until_idle=True))

    # -- lease execution (worker threads) ----------------------------------

    def _run_lease(self, lease: ActiveLease) -> Tuple[str, object]:
        record = lease.record
        spec = record.spec
        log = EventLog(
            campaign_id=record.campaign_id,
            labels={"tenant": record.tenant},
        )
        submitted = self._submitted_at.get(record.campaign_id, lease.started)

        def watch_first_result(event: Dict[str, object]) -> None:
            if (
                lease.first_result_at is None
                and event.get("type") == "shard_finished"
            ):
                lease.first_result_at = time.monotonic()
                self.metrics.histogram(
                    "service_ttfr_seconds", TTFR_BUCKETS,
                    tenant=record.tenant,
                ).observe(lease.first_result_at - submitted)

        log.subscribe(watch_first_result)
        campaign = Campaign(
            spec.topology_spec(),
            {spec.name: spec.scan_config()},
            shards=spec.shards,
            executor=spec.executor,
            checkpoint_dir=self.stores.checkpoint_dir(
                record.tenant, record.campaign_id
            ),
            checkpoint_every=spec.checkpoint_every,
            resume=record.resume,
            store_dir=self.stores.store_dir(record.tenant),
            snapshot=record.snapshot,
            backoff_base=0.0,
            events=log,
            abort_check=lambda: (
                self._draining.is_set() or record.cancel_requested
            ),
        )
        with self._lock:
            lease.campaign = campaign
        lease.events_path = str(
            self.root / "logs" / f"{record.campaign_id}.ndjson"
        )
        try:
            result = campaign.run()
        except CampaignAborted:
            log.write(lease.events_path)
            return ("aborted", None)
        except Exception as exc:
            log.write(lease.events_path)
            return ("failed", f"{type(exc).__name__}: {exc}")
        log.write(lease.events_path)
        return ("done", result.metadata())

    # -- lease completion (scheduler thread) -------------------------------

    def _finish(self, campaign_id: str, outcome: Tuple[str, object]) -> None:
        kind, payload = outcome
        with self._lock:
            lease = self._in_flight.pop(campaign_id)
        record = lease.record
        if kind == "done":
            self.queue.complete(campaign_id, payload or {})
            self._submitted_at.pop(campaign_id, None)
            self.events.emit(
                "service_lease_done",
                id=campaign_id,
                tenant=record.tenant,
                wall_seconds=time.monotonic() - lease.started,
            )
            if self._tenant_counts().get(record.tenant, 0) == 0:
                self.stores.enforce(
                    record.tenant, self.queue.policy(record.tenant)
                )
        elif kind == "aborted":
            requeued = self.queue.requeue(campaign_id)
            if requeued.state == "cancelled":
                self._submitted_at.pop(campaign_id, None)
        else:
            self.queue.fail(campaign_id, str(payload))
            self._submitted_at.pop(campaign_id, None)
