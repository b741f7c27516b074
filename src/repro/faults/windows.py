"""The fault-window core: one timeline of apply/revert transitions on the
virtual clock, shared by both fault domains.

A schedule's events are windows ``[start, end)``.  :class:`FaultWindows`
precomputes their transitions as one sorted timeline and exposes a single
float, :attr:`next_transition`, that a hot path compares against the
virtual clock — the entire cost of an idle fault layer.  :meth:`sync`
walks the timeline up to a clock reading, :meth:`restore` reverts whatever
is still active when the scan ends mid-window, and every transition is
journalled into :attr:`records` (what the worker ships to the campaign's
EventLog) and counted under ``fault_events{kind,phase}``.  The two
injectors subclass it and keep only what differs: which events they take,
what applying and reverting one *does*, where they attach, and which event
fields their records carry.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Tuple

from repro.faults.schedule import FaultEvent
from repro.telemetry.metrics import NULL_REGISTRY


class FaultWindows:
    """Drives a set of fault windows on the virtual clock."""

    #: Event fields (when set) that this domain's journal records carry.
    RECORD_FIELDS: Tuple[str, ...] = ()

    def __init__(
        self,
        events: Iterable[FaultEvent],
        clock: Callable[[], float],
        metrics=None,
    ) -> None:
        #: Zero-argument callable returning the current *virtual* time.
        self.clock = clock
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: Structured fault records (virtual-clock timestamps) for the
        #: worker event buffer / campaign EventLog.
        self.records: List[Dict[str, object]] = []
        # (time, phase, seq, action, event): reverts sort before applies at
        # the same instant so back-to-back windows hand over cleanly.
        timeline: List[Tuple[float, int, int, str, FaultEvent]] = []
        for seq, event in enumerate(events):
            timeline.append((event.start, 1, seq, "apply", event))
            timeline.append((event.end, 0, seq, "revert", event))
        self._timeline = sorted(timeline)
        self._cursor = 0
        self._active: List[FaultEvent] = []
        #: Virtual time of the next apply/revert; +inf once exhausted.
        self.next_transition = (
            self._timeline[0][0] if self._timeline else math.inf
        )

    # -- what a domain supplies ----------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        """Make ``event``'s fault take effect."""

    def _revert(self, event: FaultEvent) -> None:
        """Undo ``event``'s fault."""

    def _detach(self) -> None:
        """Leave the attachment point pristine (end of :meth:`restore`)."""

    # -- the timeline ----------------------------------------------------------

    def sync(self, clock: float) -> None:
        """Apply/revert every transition due at or before ``clock``."""
        timeline = self._timeline
        cursor = self._cursor
        while cursor < len(timeline) and timeline[cursor][0] <= clock:
            _t, _phase, _seq, action, event = timeline[cursor]
            cursor += 1
            if action == "apply":
                self._apply(event)
                self._active.append(event)
                self._record("applied", event, clock)
            else:
                self._end(event, clock, "window-end")
        self._cursor = cursor
        self.next_transition = (
            timeline[cursor][0] if cursor < len(timeline) else math.inf
        )

    def restore(self) -> None:
        """Revert anything still active (scan ended mid-window) and detach."""
        clock = self.clock()
        for event in list(reversed(self._active)):
            self._end(event, clock, "scan-end")
        self.next_transition = math.inf
        self._detach()

    def _end(self, event: FaultEvent, clock: float, reason: str) -> None:
        self._revert(event)
        self._active.remove(event)
        self._record("reverted", event, clock, reason=reason)

    # -- the journal -----------------------------------------------------------

    def _record(self, phase: str, event: FaultEvent, clock: float,
                **extra: object) -> None:
        record: Dict[str, object] = {
            "type": f"fault_{phase}",
            "kind": event.kind,
            "t_virtual": clock,
            "window": [event.start, event.end],
        }
        record.update(event.set_fields(self.RECORD_FIELDS))
        record.update(extra)
        self.records.append(record)
        self.metrics.counter("fault_events", kind=event.kind,
                             phase=phase).inc()
