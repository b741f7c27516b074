"""The structured event log: JSON-lines campaign journal.

Where :class:`~repro.telemetry.metrics.MetricsRegistry` answers "how many",
the event log answers "what happened when": every campaign-level state
transition — campaign start/finish, shard completion with its shard
coordinates, retries with backoff, checkpoint writes, worker restores —
lands here as one dict with a monotonic timestamp, a sequence number, and
the campaign id.  :class:`~repro.engine.monitor.ProgressMonitor` is a
subscriber that renders human status lines (or raw JSON with
``--log-json``) over these events instead of synthesising strings of its
own, so the log is the single source of truth.

Worker processes cannot share the campaign's log object; they accumulate
plain event dicts locally (see :mod:`repro.engine.worker`) and the campaign
:meth:`EventLog.ingest`\\ s them when outcomes return, preserving the
worker-side relative timestamps under ``worker_t``.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Mapping, Optional

#: Default in-memory retention; the tail stays available for tests/views.
DEFAULT_MAX_EVENTS = 10_000

Subscriber = Callable[[Dict[str, object]], None]


def make_campaign_id() -> str:
    """A short, unique campaign identifier for correlating artifacts."""
    return uuid.uuid4().hex[:12]


class CampaignIdAllocator:
    """Monotonic, collision-safe campaign ids for multi-campaign processes.

    A one-shot CLI run can live with a random :func:`make_campaign_id`,
    but a daemon minting ids for *many* campaigns wants two stronger
    properties: ids are unique **across everything the daemon ever ran**
    (the per-daemon ``scope`` is random, the counter is monotonic), and
    they sort in submission order — so event streams, store snapshots, and
    checkpoint directories from concurrent campaigns never collide and
    stay greppable.  Thread-safe; a restarted daemon restores the counter
    with :meth:`reserve` from its persisted state.
    """

    def __init__(self, scope: Optional[str] = None, start: int = 0) -> None:
        self.scope = scope or uuid.uuid4().hex[:8]
        self._next = int(start)
        self._lock = threading.Lock()

    def next(self) -> str:
        with self._lock:
            n = self._next
            self._next += 1
        return f"{self.scope}-{n:04d}"

    def peek(self) -> str:
        """The id :meth:`next` would hand out, without handing it out —
        for a caller that must make the allocation durable before it
        happens (it then advances the counter with :meth:`reserve`)."""
        return f"{self.scope}-{self.allocated:04d}"

    def reserve(self, floor: int) -> None:
        """Never hand out a counter below ``floor`` (restart recovery)."""
        with self._lock:
            self._next = max(self._next, int(floor))

    @property
    def allocated(self) -> int:
        """How many ids have been handed out (the persisted watermark)."""
        with self._lock:
            return self._next


class EventLog:
    """Append-only, bounded journal of structured events."""

    def __init__(
        self,
        campaign_id: Optional[str] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        sink: Optional[Callable[[str], None]] = None,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.campaign_id = campaign_id or make_campaign_id()
        self.events: Deque[Dict[str, object]] = deque(maxlen=max_events)
        self.subscribers: List[Subscriber] = []
        #: Optional line sink receiving each event as a JSON string.
        self.sink = sink
        #: Ambient labels stamped onto every record (a daemon sets e.g.
        #: ``{"tenant": ...}`` so multi-tenant streams stay attributable).
        #: Explicit event fields win; :meth:`ingest` therefore preserves a
        #: tenant label already present on a worker/campaign record instead
        #: of overwriting it with this log's own.
        self.labels: Dict[str, object] = dict(labels or {})
        self._seq = 0
        self._t0 = time.monotonic()
        self.started_at = time.time()  # wall anchor for the monotonic axis

    def subscribe(self, subscriber: Subscriber) -> None:
        self.subscribers.append(subscriber)

    def emit(self, event_type: str, **fields: object) -> Dict[str, object]:
        """Record one event; timestamps are monotonic seconds since log start."""
        record: Dict[str, object] = {
            "seq": self._seq,
            "t": round(time.monotonic() - self._t0, 6),
            "campaign": self.campaign_id,
            "type": event_type,
        }
        record.update(fields)
        for key, value in self.labels.items():
            record.setdefault(key, value)
        self._seq += 1
        self.events.append(record)
        for subscriber in self.subscribers:
            subscriber(record)
        if self.sink is not None:
            self.sink(json.dumps(record, sort_keys=True, default=str))
        return record

    def ingest(self, records: Iterable[Dict[str, object]]) -> None:
        """Re-emit worker-local events under this log's clock and sequence.

        The worker's own relative timestamp is preserved as ``worker_t``
        and its local sequence number as ``worker_seq`` — outcomes arrive
        shard-at-a-time, so the campaign-level ``seq`` serialises shards
        back to back; ``worker_seq`` (plus the shard coordinates on the
        records) is what lets flight-recorder readers reconstruct the true
        cross-shard interleaving.
        """
        for record in records:
            fields = {
                k: v
                for k, v in record.items()
                if k not in ("type", "seq", "t", "campaign")
            }
            if "t" in record:
                fields["worker_t"] = record["t"]
            if "seq" in record:
                fields["worker_seq"] = record["seq"]
            self.emit(str(record.get("type", "worker_event")), **fields)

    # -- views -----------------------------------------------------------------

    def of_type(self, event_type: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e["type"] == event_type]

    def ndjson_lines(self) -> Iterator[str]:
        for event in self.events:
            yield json.dumps(event, sort_keys=True, default=str)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for line in self.ndjson_lines():
                handle.write(line + "\n")

    def __len__(self) -> int:
        return len(self.events)


class WorkerEventBuffer:
    """Picklable-friendly event accumulator for shard workers.

    Mirrors :meth:`EventLog.emit`'s record shape minus seq/campaign (the
    campaign log stamps those at ingest time).
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._t0 = time.monotonic()
        self._seq = 0

    def emit(self, event_type: str, **fields: object) -> None:
        record: Dict[str, object] = {
            "type": event_type,
            "t": round(time.monotonic() - self._t0, 6),
            "seq": self._seq,
        }
        self._seq += 1
        record.update(fields)
        self.records.append(record)

    def record(self, record: Dict[str, object]) -> None:
        """File an externally built record (checkpoint hooks, fault
        journals) under the buffer's own clock and sequence; timestamps
        already on the record are kept."""
        stamped = dict(record)
        stamped.setdefault("t", round(time.monotonic() - self._t0, 6))
        stamped["seq"] = self._seq
        self._seq += 1
        self.records.append(stamped)
