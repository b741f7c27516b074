"""ZMap-style periodic status reporting through a pluggable sink.

ZMap prints one status line per second — elapsed, percent complete, send
rate, hit rate, ETA.  The engine's unit of progress is a shard, so the
monitor emits a line as shards start/finish/retry, rate-limited by
``min_interval`` (terminal lines always flush).  The sink is any
``Callable[[str], None]`` — stderr by default, a list's ``append`` in
tests, a logger in services.

The monitor is a *view* over the campaign's structured
:class:`~repro.telemetry.events.EventLog`: subscribe
:meth:`ProgressMonitor.handle_event` to the log and every status line is
rendered from event records rather than ad-hoc method calls.  With
``json_mode=True`` (the CLI's ``--log-json``) the monitor forwards each
raw event as one JSON line instead of formatting human text.

Retained lines are bounded (``max_lines``) so a 48-hour campaign with
per-shard status output cannot grow the monitor without limit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.telemetry.timeseries import sparkline

#: Default retention for :attr:`ProgressMonitor.lines`; old lines fall off
#: the front (the sink already saw them — this is only the in-memory tail).
DEFAULT_MAX_LINES = 2000


def _stderr_sink(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _hms(seconds: float) -> str:
    seconds = max(0, int(seconds))
    return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


class ProgressMonitor:
    """Aggregates shard outcomes into ZMap-style status lines."""

    def __init__(
        self,
        sink: Optional[Callable[[str], None]] = None,
        min_interval: float = 0.0,
        max_lines: int = DEFAULT_MAX_LINES,
        json_mode: bool = False,
    ) -> None:
        self.sink = sink or _stderr_sink
        self.min_interval = min_interval
        self.json_mode = json_mode
        self._started = 0.0
        self._last_emit = 0.0
        self._total_shards = 0
        self._done = 0
        self._from_checkpoint = 0
        self._sent = 0
        self._sent_total = 0  # includes checkpoint-restored shards
        self._validated = 0
        self._retries = 0
        #: Per-shard hit rates as they finish — rendered as a sparkline so
        #: a collapsing shard is visible at a glance mid-campaign.
        self._hit_history: Deque[float] = deque(maxlen=32)
        #: Bounded tail of emitted lines, for tests/inspection.
        self.lines: Deque[str] = deque(maxlen=max_lines)

    # -- event dispatch ----------------------------------------------------------

    def handle_event(self, record: Dict[str, object]) -> None:
        """Render one structured event record (the EventLog subscriber).

        Unknown event types are ignored in human mode (checkpoint writes
        and the like are journal detail, not status) and forwarded
        verbatim in JSON mode.
        """
        if self.json_mode:
            self._emit(
                json.dumps(record, sort_keys=True, default=str), force=True
            )
            return
        handler = self._HANDLERS.get(str(record.get("type", "")))
        if handler is not None:
            handler(self, record)

    def _on_campaign_started(self, record: Dict[str, object]) -> None:
        self._started = time.perf_counter()
        self._total_shards = int(record.get("shards", 0))  # type: ignore[arg-type]
        self._emit(
            f"campaign: {record.get('ranges', 0)} range(s) "
            f"in {self._total_shards} shard(s)",
            force=True,
        )

    def _on_shard_finished(self, record: Dict[str, object]) -> None:
        self._done += 1
        self._sent += int(record.get("sent_this_run", 0))  # type: ignore[arg-type]
        self._sent_total += int(record.get("sent", 0))  # type: ignore[arg-type]
        self._validated += int(record.get("validated", 0))  # type: ignore[arg-type]
        if record.get("from_checkpoint"):
            self._from_checkpoint += 1
        shard_sent = int(record.get("sent", 0))  # type: ignore[arg-type]
        if shard_sent:
            self._hit_history.append(
                int(record.get("validated", 0)) / shard_sent  # type: ignore[arg-type]
            )
        self._status(force=self._done == self._total_shards)

    def _on_shard_retry(self, record: Dict[str, object]) -> None:
        self._retries += 1
        self._emit(
            f"retry: {record.get('job_id')} attempt "
            f"{record.get('attempt')} failed: {record.get('error')}",
            force=True,
        )

    def _on_campaign_finished(self, record: Dict[str, object]) -> None:
        wall = float(record.get("wall_seconds", 0.0))  # type: ignore[arg-type]
        self._emit(
            f"done: {self._done}/{self._total_shards} shards "
            f"({self._from_checkpoint} from checkpoint, "
            f"{self._retries} retries) in {_hms(wall)}; "
            f"sent {self._sent:,} probes",
            force=True,
        )

    _HANDLERS = {
        "campaign_started": _on_campaign_started,
        "shard_finished": _on_shard_finished,
        "shard_retry": _on_shard_retry,
        "campaign_finished": _on_campaign_finished,
    }

    # -- formatting ----------------------------------------------------------------

    def _status(self, force: bool = False) -> None:
        elapsed = time.perf_counter() - self._started
        pct = 100.0 * self._done / self._total_shards if self._total_shards else 0.0
        pps = self._sent / elapsed if elapsed > 0 else 0.0
        hit = self._validated / self._sent_total if self._sent_total else 0.0
        remaining = self._total_shards - self._done
        eta = elapsed / self._done * remaining if self._done else 0.0
        spark = (
            f" | hit/shard {sparkline(self._hit_history)}"
            if len(self._hit_history) >= 2 else ""
        )
        self._emit(
            f"{_hms(elapsed)} {pct:3.0f}% "
            f"(shards: {self._done}/{self._total_shards} done); "
            f"send: {self._sent:,} ({pps:,.0f} p/s); "
            f"hits: {self._validated:,} ({hit:.2%}); "
            f"eta {_hms(eta)}{spark}",
            force=force,
        )

    def _emit(self, line: str, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        self.lines.append(line)
        self.sink(line)
