"""The campaign queue: admission control, fair-share leasing, durability.

Three properties the daemon stands on, all decided *here* so they are
testable without a daemon:

**Admission** (:meth:`CampaignQueue.submit`) — a tenant's backlog and its
outstanding probe volume are bounded by its :class:`~repro.service.spec.
TenantPolicy`; over-budget submissions are rejected synchronously with
:class:`AdmissionError`, never silently dropped from the queue.

**Fair-share leasing** (:meth:`CampaignQueue.next_lease`) — weighted
deficit round-robin across tenants.  Each tenant carries a deficit
counter; every accrual round adds ``quantum × weight``, and leasing a
campaign charges its :attr:`~repro.service.spec.CampaignSpec.
effective_cost` (probe budget ÷ priority factor).  Within a tenant,
campaigns lease in submission order.  The per-round visit order is a
seeded blake2b shuffle of the eligible tenants keyed by (seed, round,
tenant) — deterministic, so the same submission trace replays to the
identical lease order in tests, but unbiased, so no tenant name wins
ties forever.  Starvation-freedom follows from accrual: any tenant with
queued work, lease capacity, and weight > 0 gains deficit every round
and eventually affords its head-of-line campaign, no matter how much
higher-priority traffic other tenants pour in.

**Durability** (:meth:`CampaignQueue.save` / :meth:`CampaignQueue.load`)
— the whole queue (records, deficits, counters, the id-allocator
watermark) is one durable document (:func:`repro.store.oslayer.
write_document`: checksummed, replaced atomically, then a directory
fsync), so the kill-anywhere harness counts every queue write as a crash
point, and a state file that fails its checksum is refused with
:class:`QueueError` rather than loaded.  A
daemon that died holding leases reloads them as ``queued`` with
``resume=True`` and ``attempts+1``: the engine's checkpoint/resume
machinery makes re-running them converge to bit-identical stores, which
is what "no lost or duplicated campaigns" means operationally.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.service.spec import CampaignSpec, TenantPolicy
from repro.store.oslayer import (
    DocumentCorrupt,
    get_default_os,
    read_document,
    write_document,
)
from repro.telemetry.events import CampaignIdAllocator, EventLog
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY

#: 2: the document carries a ``checksum`` (v1 recorded none).
QUEUE_STATE_VERSION = 2

#: Probes of deficit accrued per round per unit weight.  Small enough
#: that priority factors matter (a 4096-probe interactive campaign costs
#: 1024), large enough that the accrual loop converges in a handful of
#: rounds for demo-sized windows.
DEFAULT_QUANTUM = 4096.0

#: Record lifecycle.  ``queued`` and ``leased`` are live; the rest are
#: terminal.  A leased record found in a *loaded* state file means the
#: previous daemon died mid-lease: it requeues with ``resume=True``.
STATES = ("queued", "leased", "done", "failed", "cancelled")


class AdmissionError(RuntimeError):
    """Submission rejected by tenant policy (backlog or probe budget)."""


class QueueError(RuntimeError):
    """Unknown campaign id, illegal state transition, corrupt state file."""


@dataclass
class CampaignRecord:
    """One campaign's trip through the queue."""

    campaign_id: str
    spec: CampaignSpec
    submit_seq: int
    state: str = "queued"
    attempts: int = 0
    #: True when a re-run must resume from checkpoints (daemon death or
    #: drain requeued an in-flight lease).
    resume: bool = False
    #: Set by :meth:`CampaignQueue.cancel` on a leased record; the daemon
    #: polls it via the campaign's ``abort_check``.
    cancel_requested: bool = False
    #: Global lease ordinal (the scheduler-determinism witness).
    lease_seq: Optional[int] = None
    error: str = ""
    #: ``CampaignResult.metadata()`` once done.
    result: Dict[str, object] = field(default_factory=dict)

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def snapshot(self) -> str:
        """The store round this campaign commits under (stable across
        resumes: keyed by the daemon-scoped campaign id)."""
        return f"round-{self.campaign_id}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign_id": self.campaign_id,
            "spec": self.spec.to_dict(),
            "submit_seq": self.submit_seq,
            "state": self.state,
            "attempts": self.attempts,
            "resume": self.resume,
            "cancel_requested": self.cancel_requested,
            "lease_seq": self.lease_seq,
            "error": self.error,
            "result": dict(self.result),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignRecord":
        state = str(data.get("state", "queued"))
        if state not in STATES:
            raise QueueError(f"corrupt queue record: state {state!r}")
        lease_seq = data.get("lease_seq")
        return cls(
            campaign_id=str(data["campaign_id"]),
            spec=CampaignSpec.from_dict(data["spec"]),  # type: ignore[arg-type]
            submit_seq=int(data["submit_seq"]),  # type: ignore[arg-type]
            state=state,
            attempts=int(data.get("attempts", 0)),  # type: ignore[arg-type]
            resume=bool(data.get("resume", False)),
            cancel_requested=bool(data.get("cancel_requested", False)),
            lease_seq=None if lease_seq is None else int(lease_seq),  # type: ignore[arg-type]
            error=str(data.get("error", "")),
            result=dict(data.get("result") or {}),  # type: ignore[arg-type]
        )


def _visit_key(seed: int, round_no: int, tenant: str) -> str:
    """Seeded, replayable per-round tenant shuffle key."""
    return hashlib.blake2b(
        f"{seed}:{round_no}:{tenant}".encode(), digest_size=8
    ).hexdigest()


class CampaignQueue:
    """Durable multi-tenant campaign queue with WDRR fair-share leasing.

    Thread-safe: every public method takes the internal lock, so HTTP
    handler threads and the scheduler loop share one instance directly.
    """

    def __init__(
        self,
        state_path: str,
        policies: Optional[Mapping[str, TenantPolicy]] = None,
        default_policy: Optional[TenantPolicy] = None,
        seed: int = 0,
        scope: Optional[str] = None,
        quantum: float = DEFAULT_QUANTUM,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.state_path = Path(state_path)
        self.policies: Dict[str, TenantPolicy] = dict(policies or {})
        self.default_policy = default_policy or TenantPolicy()
        self.seed = seed
        self.quantum = float(quantum)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.events = events
        #: Captured at construction like the store's writers, so a
        #: fault-injection or kill-switch layer installed beforehand sees
        #: every queue-state write.
        self.os = get_default_os()
        self._lock = threading.RLock()
        self.records: Dict[str, CampaignRecord] = {}
        self.allocator = CampaignIdAllocator(scope=scope)
        self._submit_seq = 0
        self._lease_seq = 0
        self._round = 0
        self._deficit: Dict[str, float] = {}
        self._recovered: List[str] = []
        if self.state_path.exists():
            self._load()

    # -- policy ------------------------------------------------------------

    def policy(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default_policy)

    # -- views -------------------------------------------------------------

    def in_state(self, *states: str) -> List[CampaignRecord]:
        with self._lock:
            return sorted(
                (r for r in self.records.values() if r.state in states),
                key=lambda r: r.submit_seq,
            )

    @property
    def depth(self) -> int:
        return len(self.in_state("queued"))

    @property
    def recovered_leases(self) -> List[str]:
        """Campaign ids requeued at load time (previous daemon died)."""
        return list(self._recovered)

    def get(self, campaign_id: str) -> CampaignRecord:
        with self._lock:
            record = self.records.get(campaign_id)
            if record is None:
                raise QueueError(f"unknown campaign {campaign_id!r}")
            return record

    def outstanding_probes(self, tenant: str) -> int:
        with self._lock:
            return sum(
                r.spec.probe_budget
                for r in self.records.values()
                if r.tenant == tenant and r.state in ("queued", "leased")
            )

    # -- admission ---------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> CampaignRecord:
        """Admit a campaign or raise :class:`AdmissionError`; durable on
        return."""
        with self._lock:
            policy = self.policy(spec.tenant)
            queued = [
                r for r in self.records.values()
                if r.tenant == spec.tenant and r.state == "queued"
            ]
            if len(queued) >= policy.max_queued:
                self.metrics.counter(
                    "service_admission_rejected", reason="backlog"
                ).inc()
                raise AdmissionError(
                    f"tenant {spec.tenant!r} backlog full "
                    f"({len(queued)}/{policy.max_queued} queued)"
                )
            if policy.probe_budget is not None:
                outstanding = self.outstanding_probes(spec.tenant)
                if outstanding + spec.probe_budget > policy.probe_budget:
                    self.metrics.counter(
                        "service_admission_rejected", reason="probe_budget"
                    ).inc()
                    raise AdmissionError(
                        f"tenant {spec.tenant!r} probe budget exhausted "
                        f"({outstanding} outstanding + {spec.probe_budget} "
                        f"requested > {policy.probe_budget})"
                    )
            record = CampaignRecord(
                campaign_id=self.allocator.next(),
                spec=spec,
                submit_seq=self._submit_seq,
            )
            self._submit_seq += 1
            self.records[record.campaign_id] = record
            self.save()
            self.metrics.counter(
                "service_campaigns_submitted", tenant=spec.tenant
            ).inc()
            self.metrics.gauge("service_queue_depth").set(self.depth)
            if self.events is not None:
                self.events.emit(
                    "service_submitted",
                    id=record.campaign_id,
                    tenant=spec.tenant,
                    name=spec.name,
                    priority=spec.priority,
                    budget=spec.probe_budget,
                )
            return record

    def cancel(self, campaign_id: str) -> CampaignRecord:
        """Cancel a queued campaign now, or flag a leased one for abort.

        Terminal states raise — cancelling finished work is a caller bug
        worth surfacing, not an idempotent no-op.
        """
        with self._lock:
            record = self.get(campaign_id)
            if record.state == "queued":
                record.state = "cancelled"
                self.save()
                self._note_terminal(record)
            elif record.state == "leased":
                record.cancel_requested = True
                self.save()
            else:
                raise QueueError(
                    f"campaign {campaign_id} is {record.state}; "
                    "nothing to cancel"
                )
            if self.events is not None:
                self.events.emit(
                    "service_cancel",
                    id=campaign_id,
                    tenant=record.tenant,
                    state=record.state,
                )
            return record

    # -- fair-share leasing ------------------------------------------------

    def _eligible(self, in_flight: Mapping[str, int]) -> Dict[str, List[CampaignRecord]]:
        """Tenants with queued work and spare lease capacity, with their
        queued records in submission order."""
        backlog: Dict[str, List[CampaignRecord]] = {}
        for record in self.in_state("queued"):
            backlog.setdefault(record.tenant, []).append(record)
        return {
            tenant: records
            for tenant, records in backlog.items()
            if in_flight.get(tenant, 0) < self.policy(tenant).max_in_flight
        }

    def next_lease(
        self, in_flight: Optional[Mapping[str, int]] = None
    ) -> Optional[CampaignRecord]:
        """Lease the next campaign under WDRR, or None if nothing is
        eligible.  Durable before return: a daemon SIGKILLed right after
        this call finds the record ``leased`` and requeues it on restart.
        """
        with self._lock:
            in_flight = dict(in_flight or {})
            eligible = self._eligible(in_flight)
            if not eligible:
                return None
            # Deficits of tenants with no queued work decay to zero so an
            # idle tenant cannot bank unbounded credit.
            for tenant in list(self._deficit):
                if tenant not in eligible:
                    del self._deficit[tenant]
            while True:
                order = sorted(
                    eligible,
                    key=lambda t: (_visit_key(self.seed, self._round, t), t),
                )
                for tenant in order:
                    head = eligible[tenant][0]
                    if self._deficit.get(tenant, 0.0) >= head.spec.effective_cost:
                        self._deficit[tenant] -= head.spec.effective_cost
                        return self._lease(head)
                # Accrual round: nobody could afford their head-of-line.
                self._round += 1
                for tenant in eligible:
                    weight = self.policy(tenant).weight
                    self._deficit[tenant] = (
                        self._deficit.get(tenant, 0.0) + self.quantum * weight
                    )

    def _lease(self, record: CampaignRecord) -> CampaignRecord:
        record.state = "leased"
        record.lease_seq = self._lease_seq
        self._lease_seq += 1
        record.attempts += 1
        self.save()
        self.metrics.counter(
            "service_campaigns_leased", tenant=record.tenant
        ).inc()
        self.metrics.gauge("service_queue_depth").set(self.depth)
        if self.events is not None:
            self.events.emit(
                "service_leased",
                id=record.campaign_id,
                tenant=record.tenant,
                lease_seq=record.lease_seq,
                attempt=record.attempts,
                resume=record.resume,
            )
        return record

    # -- lease outcomes ----------------------------------------------------

    def _require_leased(self, campaign_id: str) -> CampaignRecord:
        record = self.get(campaign_id)
        if record.state != "leased":
            raise QueueError(
                f"campaign {campaign_id} is {record.state}, not leased"
            )
        return record

    def complete(
        self, campaign_id: str, result: Mapping[str, object]
    ) -> CampaignRecord:
        with self._lock:
            record = self._require_leased(campaign_id)
            record.state = "done"
            record.result = dict(result)
            self.save()
            self._note_terminal(record)
            return record

    def fail(self, campaign_id: str, error: str) -> CampaignRecord:
        with self._lock:
            record = self._require_leased(campaign_id)
            record.state = "failed"
            record.error = error
            self.save()
            self._note_terminal(record)
            return record

    def requeue(self, campaign_id: str) -> CampaignRecord:
        """A lease aborted at a boundary (drain/preemption): back to the
        queue, resuming from checkpoints on the next lease."""
        with self._lock:
            record = self._require_leased(campaign_id)
            if record.cancel_requested:
                record.state = "cancelled"
                self.save()
                self._note_terminal(record)
                return record
            record.state = "queued"
            record.resume = True
            record.lease_seq = None
            self.save()
            self.metrics.counter(
                "service_campaigns_requeued", tenant=record.tenant
            ).inc()
            if self.events is not None:
                self.events.emit(
                    "service_requeued",
                    id=record.campaign_id,
                    tenant=record.tenant,
                    attempts=record.attempts,
                )
            return record

    def _note_terminal(self, record: CampaignRecord) -> None:
        self.metrics.counter(
            f"service_campaigns_{record.state}", tenant=record.tenant
        ).inc()
        self.metrics.gauge("service_queue_depth").set(self.depth)
        if self.events is not None:
            self.events.emit(
                "service_terminal",
                id=record.campaign_id,
                tenant=record.tenant,
                state=record.state,
                attempts=record.attempts,
            )

    # -- durability --------------------------------------------------------

    def _payload(self) -> Dict[str, object]:
        return {
            "version": QUEUE_STATE_VERSION,
            "scope": self.allocator.scope,
            "allocated": self.allocator.allocated,
            "submit_seq": self._submit_seq,
            "lease_seq": self._lease_seq,
            "round": self._round,
            "seed": self.seed,
            "quantum": self.quantum,
            "deficit": dict(self._deficit),
            "records": [
                r.to_dict()
                for r in sorted(
                    self.records.values(), key=lambda r: r.submit_seq
                )
            ],
        }

    def save(self) -> None:
        """Atomically persist the queue through the oslayer (crash point)."""
        with self._lock:
            self.state_path.parent.mkdir(parents=True, exist_ok=True)
            write_document(self.os, self.state_path, self._payload())
            try:
                self.os.fsync_dir(self.state_path.parent)
            except OSError:
                self.metrics.counter("service_queue_fsync_failures").inc()

    def _load(self) -> None:
        try:
            data = read_document(self.state_path)
        except (OSError, DocumentCorrupt) as exc:
            # A version-1 file lands here too: it recorded no checksum.
            raise QueueError(
                f"corrupt queue state {self.state_path}: {exc}"
            ) from exc
        if data.get("version") != QUEUE_STATE_VERSION:
            raise QueueError(
                f"queue state version {data.get('version')!r} unsupported"
            )
        self.allocator = CampaignIdAllocator(scope=str(data["scope"]))
        self.allocator.reserve(int(data.get("allocated", 0)))
        self._submit_seq = int(data.get("submit_seq", 0))
        self._lease_seq = int(data.get("lease_seq", 0))
        self._round = int(data.get("round", 0))
        self.seed = int(data.get("seed", self.seed))
        self.quantum = float(data.get("quantum", self.quantum))
        self._deficit = {
            str(t): float(d) for t, d in (data.get("deficit") or {}).items()
        }
        self.records = {}
        self._recovered = []
        changed = False
        for raw in data.get("records", []):
            record = CampaignRecord.from_dict(raw)
            if record.state == "leased":
                changed = True
                if record.cancel_requested:
                    # The abort never landed before the daemon died; honour
                    # the cancellation instead of resurrecting the lease.
                    record.state = "cancelled"
                    record.lease_seq = None
                else:
                    # The daemon that held this lease is gone.  Requeue for
                    # a checkpoint resume — the engine makes the re-run
                    # converge to the identical store, so nothing is lost
                    # or doubled.
                    record.state = "queued"
                    record.resume = True
                    record.lease_seq = None
                    self._recovered.append(record.campaign_id)
            self.records[record.campaign_id] = record
        if changed:
            self.save()
        if self._recovered:
            self.metrics.counter("service_leases_recovered").inc(
                len(self._recovered)
            )
            if self.events is not None:
                self.events.emit(
                    "service_leases_recovered", ids=list(self._recovered)
                )
