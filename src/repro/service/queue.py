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
higher-priority traffic other tenants pour in.  Rounds in which nobody can
afford their head only add to every deficit, so they are taken in one
closed-form step: a lease holds the queue lock for O(tenants) work however
many rounds a /32-64 window is worth.

**Durability** — a snapshot plus a write-ahead journal, so a transition
costs what it changed and not what the queue has ever held::

    queue.json   the snapshot: every record, the deficits and counters,
                 the id-allocator watermark and a ``generation``; one
                 durable document (:func:`repro.store.oslayer.
                 write_document`: checksummed, replaced atomically, then
                 a directory fsync)
    queue.log    the journal extending it: a header naming the generation
                 it extends, then one chained record per transition
                 (:mod:`repro.store.framing`)

Every transition is one *delta* — the post-state of the one record that
changed (its spec only the first time it appears) plus the scalars
``allocated / submit_seq / lease_seq / round / deficit`` — and goes
through :meth:`CampaignQueue._commit`: build the delta, append it durably
(``write, fsync``; the first of a generation creates the file: ``write,
fsync, replace, fsync_dir``), and only then :meth:`CampaignQueue._apply`
it to memory.  A failed append therefore leaves memory as it was — the
caller gets the ``OSError``, nothing it was refused exists — and poisons
only the journal handle: the next transition starts a new generation.
:meth:`CampaignQueue.save` is the compaction: it writes the snapshot at
the next generation and drops the journal that snapshot supersedes.  It
runs before the first transition on a fresh root (a journal always
extends a snapshot), when the journal has outgrown the snapshot
(:data:`COMPACT_MIN_BYTES`), at the end of every load, and when the daemon
exits.  Terminal records stay in the snapshot — the status API serves
them — they are just not re-serialised between compactions.

Loading applies the snapshot and then each journal delta with the *same*
``_apply`` the live transitions use.  A torn journal tail is dropped (its
caller was never answered); damage before the tail, a bad header, a
journal of a **newer** generation than the snapshot, or a journal with no
snapshot is :class:`QueueError` — the daemon refuses to start on a queue
it cannot trust, as it does for a snapshot that fails its checksum; a
journal of an **older** generation is the leftover of a crash between a
compaction and its unlink, and is ignored and removed.  A daemon that
died holding leases reloads them as ``queued`` with ``resume=True``: the
engine's checkpoint/resume machinery makes re-running them converge to
bit-identical stores, which is what "no lost or duplicated campaigns"
means operationally.  A load never appends to a journal it found: it ends
with a ``save()``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.service.spec import CampaignSpec, TenantPolicy
from repro.store.framing import ChainedLog, FrameCorrupt, chain_start, replay
from repro.store.oslayer import (
    DocumentCorrupt,
    get_default_os,
    read_document,
    write_document,
)
from repro.telemetry.events import CampaignIdAllocator, EventLog
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY

#: 3: the snapshot carries a ``generation`` and may be extended by a
#: journal.  2 (checksummed, no journal) still loads, as generation 0;
#: v1 recorded no checksum and is refused.
QUEUE_STATE_VERSION = 3

#: Journal file header: magic, version, the snapshot generation it extends.
_JOURNAL_HEADER = struct.Struct(">4sB3xQ")
_JOURNAL_MAGIC = b"RPQJ"

#: The journal is compacted into a new snapshot once it is at least this
#: long *and* at least as long as the snapshot it extends: rewriting the
#: snapshot then costs no more than the journal bytes written since the
#: last rewrite, so durable work per transition stays O(1) amortised.
COMPACT_MIN_BYTES = 64 * 1024

#: Probes of deficit accrued per round per unit weight.  Small enough
#: that priority factors matter (a 4096-probe interactive campaign costs
#: 1024), large enough that the accrual loop converges in a handful of
#: rounds for demo-sized windows.
DEFAULT_QUANTUM = 4096.0

#: Record lifecycle.  ``queued`` and ``leased`` are live; the rest are
#: terminal.  A leased record found in a *loaded* state file means the
#: previous daemon died mid-lease: it requeues with ``resume=True``.
STATES = ("queued", "leased", "done", "failed", "cancelled")
_LIVE = ("queued", "leased")


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

    def to_dict(self, spec: bool = True) -> Dict[str, object]:
        """The record as JSON-ready data; ``spec=False`` leaves the spec
        out (a journal delta for a record the queue already holds)."""
        data: Dict[str, object] = {"campaign_id": self.campaign_id}
        if spec:
            data["spec"] = self.spec.to_dict()
        data.update(
            submit_seq=self.submit_seq,
            state=self.state,
            attempts=self.attempts,
            resume=self.resume,
            cancel_requested=self.cancel_requested,
            lease_seq=self.lease_seq,
            error=self.error,
            result=dict(self.result),
        )
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignRecord":
        record = cls(
            campaign_id=str(data["campaign_id"]),
            spec=CampaignSpec.from_dict(data["spec"]),  # type: ignore[arg-type]
            submit_seq=int(data["submit_seq"]),  # type: ignore[arg-type]
        )
        record.update(data)
        return record

    def update(self, data: Mapping[str, object]) -> None:
        """Take on the post-state ``data`` describes — everything but the
        identity (id, spec, submit order) — **in place**: a lease's worker
        holds this very object and polls ``cancel_requested`` on it."""
        state = str(data.get("state", "queued"))
        if state not in STATES:
            raise QueueError(f"corrupt queue record: state {state!r}")
        lease_seq = data.get("lease_seq")
        self.state = state
        self.attempts = int(data.get("attempts", 0))  # type: ignore[arg-type]
        self.resume = bool(data.get("resume", False))
        self.cancel_requested = bool(data.get("cancel_requested", False))
        self.lease_seq = None if lease_seq is None else int(lease_seq)  # type: ignore[arg-type]
        self.error = str(data.get("error", ""))
        self.result = dict(data.get("result") or {})  # type: ignore[arg-type]


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
        self.journal_path = self.state_path.with_suffix(".log")
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
        #: Derived from ``records`` by :meth:`_apply`, so admission and
        #: leasing cost what is live, not what the queue has ever held:
        #: each tenant's queued records in submission order, and its
        #: probes outstanding (queued + leased).
        self._queued: Dict[str, List[CampaignRecord]] = {}
        self._outstanding: Dict[str, int] = {}
        #: The snapshot on disk, and the journal extending it.  No journal
        #: (a fresh root, or an append failed) means the next transition
        #: starts a new generation with a :meth:`save`.
        self._generation = 0
        self._snapshot_bytes = 0
        self._journal: Optional[ChainedLog] = None
        if self.state_path.exists():
            self._load()
        elif self.journal_path.exists():
            raise QueueError(
                f"queue journal {self.journal_path} has no snapshot to extend"
            )

    # -- policy ------------------------------------------------------------

    def policy(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default_policy)

    # -- views -------------------------------------------------------------

    def in_state(self, *states: str) -> List[CampaignRecord]:
        """Every record in ``states``, in submission order — O(history):
        for the listing and status APIs, not for transitions."""
        with self._lock:
            return sorted(
                (r for r in self.records.values() if r.state in states),
                key=lambda r: r.submit_seq,
            )

    @property
    def depth(self) -> int:
        with self._lock:
            return sum(map(len, self._queued.values()))

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
            return self._outstanding.get(tenant, 0)

    # -- admission ---------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> CampaignRecord:
        """Admit a campaign or raise :class:`AdmissionError`; durable on
        return."""
        with self._lock:
            policy = self.policy(spec.tenant)
            queued = len(self._queued.get(spec.tenant, ()))
            if queued >= policy.max_queued:
                self.metrics.counter(
                    "service_admission_rejected", reason="backlog"
                ).inc()
                raise AdmissionError(
                    f"tenant {spec.tenant!r} backlog full "
                    f"({queued}/{policy.max_queued} queued)"
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
            record = self._commit(
                CampaignRecord(
                    campaign_id=self.allocator.peek(),
                    spec=spec,
                    submit_seq=self._submit_seq,
                ),
                allocated=self.allocator.allocated + 1,
                submit_seq=self._submit_seq + 1,
            )
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
                self._commit(replace(record, state="cancelled"))
                self._note_terminal(record)
            elif record.state == "leased":
                self._commit(replace(record, cancel_requested=True))
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

    def next_lease(
        self, in_flight: Optional[Mapping[str, int]] = None
    ) -> Optional[CampaignRecord]:
        """Lease the next campaign under WDRR, or None if nothing is
        eligible.  Durable before return: a daemon SIGKILLed right after
        this call finds the record ``leased`` and requeues it on restart.
        """
        with self._lock:
            in_flight = in_flight or {}
            # Tenants with queued work and spare lease capacity, with
            # their head-of-line record.
            heads = {
                tenant: fifo[0]
                for tenant, fifo in self._queued.items()
                if in_flight.get(tenant, 0) < self.policy(tenant).max_in_flight
            }
            if not heads:
                return None
            cost = {t: head.spec.effective_cost for t, head in heads.items()}
            accrual = {t: self.quantum * self.policy(t).weight for t in heads}
            # Worked on copies (write-ahead: the lease is not real until it
            # is durable).  Deficits of tenants with no queued work decay to
            # zero so an idle tenant cannot bank unbounded credit.
            deficit = {
                t: d for t, d in self._deficit.items() if t in heads
            }
            round_no = self._round
            while True:
                order = sorted(
                    heads,
                    key=lambda t: (_visit_key(self.seed, round_no, t), t),
                )
                for tenant in order:
                    if deficit.get(tenant, 0.0) >= cost[tenant]:
                        deficit[tenant] -= cost[tenant]
                        return self._lease(heads[tenant], round_no, deficit)
                # Accrual: nobody could afford their head-of-line.  While
                # that stays true a round only adds quantum x weight to
                # everyone, so the rounds that cannot change it are taken
                # in one step — stopping short of the first round in which
                # anyone might afford theirs, which (with its visit order)
                # is played out above.
                rounds = max(1, min(
                    int((cost[t] - deficit.get(t, 0.0)) // accrual[t])
                    for t in heads
                ) - 1)
                round_no += rounds
                for tenant in heads:
                    deficit[tenant] = (
                        deficit.get(tenant, 0.0) + rounds * accrual[tenant]
                    )

    def _lease(self, head: CampaignRecord, round_no: int,
               deficit: Dict[str, float]) -> CampaignRecord:
        record = self._commit(
            replace(
                head,
                state="leased",
                lease_seq=self._lease_seq,
                attempts=head.attempts + 1,
            ),
            lease_seq=self._lease_seq + 1,
            round=round_no,
            deficit=deficit,
        )
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
            self._commit(replace(record, state="done", result=dict(result)))
            self._note_terminal(record)
            return record

    def fail(self, campaign_id: str, error: str) -> CampaignRecord:
        with self._lock:
            record = self._require_leased(campaign_id)
            self._commit(replace(record, state="failed", error=error))
            self._note_terminal(record)
            return record

    def requeue(self, campaign_id: str) -> CampaignRecord:
        """A lease aborted at a boundary (drain/preemption): back to the
        queue, resuming from checkpoints on the next lease."""
        with self._lock:
            record = self._require_leased(campaign_id)
            if record.cancel_requested:
                self._commit(replace(record, state="cancelled"))
                self._note_terminal(record)
                return record
            self._commit(
                replace(record, state="queued", resume=True, lease_seq=None)
            )
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

    # -- durability: one delta shape, one commit, one apply ----------------

    def _scalars(self) -> Dict[str, object]:
        """The queue-wide half of a delta (and of the snapshot)."""
        return {
            "allocated": self.allocator.allocated,
            "submit_seq": self._submit_seq,
            "lease_seq": self._lease_seq,
            "round": self._round,
            "deficit": dict(self._deficit),
        }

    def _commit(self, post: CampaignRecord,
                **scalars: object) -> CampaignRecord:
        """One transition, write-ahead: ``post`` is the post-state of the
        record that changes (a copy — the live object is not touched
        here), ``scalars`` the queue-wide values that change with it.
        Durable, then applied; returns the live record.  An ``OSError``
        leaves memory exactly as it was."""
        delta = {
            **self._scalars(),
            **scalars,
            "records": [
                post.to_dict(spec=post.campaign_id not in self.records)
            ],
        }
        journal = self._journal
        if journal is None or journal.length >= max(
            COMPACT_MIN_BYTES, self._snapshot_bytes
        ):
            self.save()
            journal = self._journal
            assert journal is not None
        creates = journal.handle is None
        try:
            journal.append(json.dumps(delta, separators=(",", ":")).encode())
        except BaseException:
            self._journal = None
            _discard(journal)
            raise
        if creates:
            # Unlike a checkpoint log, losing this file loses acknowledged
            # submissions: the rename must be durable before the reply.
            self._sync_dir()
        self._apply(delta)
        return self.records[post.campaign_id]

    def _apply(self, delta: Mapping[str, object]) -> None:
        """The one place queue state changes: live transitions, the
        snapshot, journal replay and lease recovery all come through here.
        Emits nothing — events and metrics belong to the call sites."""
        for raw in delta["records"]:
            record = self.records.get(str(raw["campaign_id"]))
            if record is None:
                record = CampaignRecord.from_dict(raw)
                self.records[record.campaign_id] = record
                was = None
            else:
                was = record.state
                record.update(raw)
            now = record.state
            if was == now:
                continue
            tenant = record.tenant
            if was == "queued":
                fifo = self._queued[tenant]
                fifo.remove(record)
                if not fifo:
                    del self._queued[tenant]
            if now == "queued":
                bisect.insort(
                    self._queued.setdefault(tenant, []), record,
                    key=lambda r: r.submit_seq,
                )
            live = (now in _LIVE) - (was in _LIVE)
            if live:
                self._outstanding[tenant] = (
                    self._outstanding.get(tenant, 0)
                    + live * record.spec.probe_budget
                )
        self.allocator.reserve(int(delta.get("allocated", 0)))
        self._submit_seq = int(delta.get("submit_seq", 0))
        self._lease_seq = int(delta.get("lease_seq", 0))
        self._round = int(delta.get("round", 0))
        self._deficit = {
            str(t): float(d)
            for t, d in (delta.get("deficit") or {}).items()
        }

    def _payload(self) -> Dict[str, object]:
        """The snapshot: the delta that rebuilds everything."""
        return {
            "version": QUEUE_STATE_VERSION,
            "scope": self.allocator.scope,
            "seed": self.seed,
            "quantum": self.quantum,
            **self._scalars(),
            "records": [
                r.to_dict()
                for r in sorted(
                    self.records.values(), key=lambda r: r.submit_seq
                )
            ],
        }

    def save(self) -> None:
        """Compact: atomically persist the whole queue as the snapshot of
        the next generation (through the oslayer — a crash point), and
        drop the journal that snapshot supersedes."""
        with self._lock:
            self.state_path.parent.mkdir(parents=True, exist_ok=True)
            generation = self._generation + 1
            write_document(
                self.os, self.state_path,
                {**self._payload(), "generation": generation},
            )
            # The snapshot is in place: whatever the old journal holds is
            # in it, and nothing may be appended to that journal again.
            self._generation = generation
            if self._journal is not None:
                self._journal.close()
            header = _JOURNAL_HEADER.pack(
                _JOURNAL_MAGIC, QUEUE_STATE_VERSION, generation
            )
            self._journal = ChainedLog(
                self.os, self.journal_path, header, chain_start(header)
            )
            self._sync_dir()
            self._snapshot_bytes = self.state_path.stat().st_size
            try:
                # Best effort: a stale journal is recognised by its
                # generation and ignored.
                self.journal_path.unlink()
            except OSError:
                pass

    def close(self) -> None:
        """Release the journal descriptor.  Nothing is lost — every
        transition was durable when it returned — and the queue stays
        usable: the next transition starts a new generation."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def _sync_dir(self) -> None:
        try:
            self.os.fsync_dir(self.state_path.parent)
        except OSError:
            self.metrics.counter("service_queue_fsync_failures").inc()

    def _journal_deltas(self) -> List[Dict[str, object]]:
        """The acknowledged deltas of the journal extending the loaded
        snapshot (none when there is no journal, or only a stale one)."""
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            return []

        def corrupt(why: str) -> QueueError:
            return QueueError(
                f"corrupt queue journal {self.journal_path}: {why}"
            )

        header = raw[:_JOURNAL_HEADER.size]
        if len(header) < _JOURNAL_HEADER.size:
            raise corrupt("short header")
        magic, version, generation = _JOURNAL_HEADER.unpack(header)
        if magic != _JOURNAL_MAGIC or version != QUEUE_STATE_VERSION:
            raise corrupt("bad header")
        try:
            payloads, _, _ = replay(raw, header)
        except FrameCorrupt as exc:
            raise corrupt(str(exc)) from exc
        if not payloads:
            # The file is renamed into place with its first record already
            # fsynced, so that record is never a torn tail.  (The chain is
            # seeded by the header: this is also what vouches for the
            # generation read from it.)
            raise corrupt("first record does not verify")
        if generation > self._generation:
            raise corrupt(
                f"it extends generation {generation}, but the snapshot is "
                f"generation {self._generation}"
            )
        if generation < self._generation:
            # A crash fell between a compaction and its unlink; the
            # save() that ends this load removes it.
            return []
        return [json.loads(payload) for payload in payloads]

    def _load(self) -> None:
        try:
            data = read_document(self.state_path)
        except (OSError, DocumentCorrupt) as exc:
            # A version-1 file lands here too: it recorded no checksum.
            raise QueueError(
                f"corrupt queue state {self.state_path}: {exc}"
            ) from exc
        if data.get("version") not in (2, QUEUE_STATE_VERSION):
            raise QueueError(
                f"queue state version {data.get('version')!r} unsupported"
            )
        try:
            # A version-2 snapshot has no generation and never a journal.
            self._generation = int(data.get("generation", 0))
            self.allocator = CampaignIdAllocator(scope=str(data["scope"]))
            self.seed = int(data.get("seed", self.seed))
            self.quantum = float(data.get("quantum", self.quantum))
            self._apply(data)
            for delta in self._journal_deltas():
                self._apply(delta)
        except (KeyError, TypeError, ValueError) as exc:
            raise QueueError(
                f"corrupt queue state {self.state_path}: malformed ({exc!r})"
            ) from exc
        posts = []
        for record in self.in_state("leased"):
            if record.cancel_requested:
                # The abort never landed before the daemon died; honour
                # the cancellation instead of resurrecting the lease.
                post = replace(record, state="cancelled", lease_seq=None)
            else:
                # The daemon that held this lease is gone.  Requeue for
                # a checkpoint resume — the engine makes the re-run
                # converge to the identical store, so nothing is lost
                # or doubled.
                post = replace(
                    record, state="queued", resume=True, lease_seq=None
                )
                self._recovered.append(record.campaign_id)
            posts.append(post.to_dict(spec=False))
        self._apply({**self._scalars(), "records": posts})
        # Never append to a journal that was found: a new generation.
        self.save()
        if self._recovered:
            self.metrics.counter("service_leases_recovered").inc(
                len(self._recovered)
            )
            if self.events is not None:
                self.events.emit(
                    "service_leases_recovered", ids=list(self._recovered)
                )


def _discard(journal: ChainedLog) -> None:
    """Close a journal whose append failed, first cutting off whatever the
    failed append left past the acknowledged length — a record that was
    written whole but never fsynced would otherwise replay as if its
    caller had been answered.  Best effort: the disk is already failing."""
    if journal.handle is not None:
        try:
            journal.handle.flush()
            os.ftruncate(journal.handle.fileno(), journal.length)
        except OSError:
            pass
    try:
        journal.close()
    except OSError:
        pass
