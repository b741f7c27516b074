"""Fault schedules: picklable, JSON-loadable chaos timelines.

A schedule is a seed plus a list of :class:`FaultEvent` windows on the
*virtual* clock.  Six fault kinds cover the failure modes the paper's
live scans had to survive (§IV-C, §IV-E) plus the control-plane incidents
the BGP fabric compiles down to route operations:

============== =============================================================
``loss-burst``  Bursty packet loss, globally or on one directed link
                (``link: [src, dst]`` device names), at ``rate``.
``router-crash`` The device goes dark for the window (unregistered from the
                topology — routes through it blackhole, its flow-cache
                consumers invalidate via the generation stamp), then
                reboots with a cold neighbor cache.
``rate-limit``  The device's ICMPv6 error limiter is swapped for a tighter
                :class:`~repro.net.device.ErrorRateLimiter` (``rate``,
                ``burst``) for the window.
``blackhole``   The device null-routes ``prefix`` for the window (any
                pre-existing exact route is restored afterwards).
``route-flap``  The device withdraws its route for ``prefix`` for the
                window and re-announces it at the end — mid-scan churn
                with re-convergence.
``route-set``   The device's route for ``prefix`` is installed/re-homed to
                ``next_hop`` for the window; any pre-existing exact route
                is restored afterwards.  This is how
                :meth:`repro.bgp.scenarios.TableDelta.to_fault_schedule`
                diff-applies a reconverged RIB mid-scan.
============== =============================================================

Three further kinds cover the **host fault domain** — failures of the
scanner host's own storage, armed against the store's
:class:`~repro.store.oslayer.OsLayer` by a
:class:`~repro.faults.host.HostFaultInjector` instead of the network:

=================== ========================================================
``fs-error``         The durability syscall ``op`` (write/fsync/rename)
                     fails with errno ``err`` (EIO/ENOSPC) on files whose
                     path contains ``path`` (None = all).
``fs-torn-write``    Writes tear at byte ``offset``: bytes up to the offset
                     reach the file, the rest are lost, and the write
                     raises EIO — a disk going bad mid-segment.
``fs-crash``         The process "dies" at a rename boundary: ``op``
                     ``before-rename`` crashes with the tmp file written
                     but the rename not performed; ``after-rename`` crashes
                     with the rename durable but nothing after it.
=================== ========================================================

One schedule may mix network and host events: each injector arms only its
own domain (:attr:`FaultEvent.host_domain` is the discriminator).

Events carry only primitives (names, prefix strings, floats) so a schedule
pickles into :class:`~repro.core.scanner.ScanConfig` and ships to process
pool workers unchanged; JSON round-trips via :meth:`FaultSchedule.to_json`
/ :meth:`FaultSchedule.from_json` (the ``--fault-schedule`` CLI format).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

LOSS_BURST = "loss-burst"
ROUTER_CRASH = "router-crash"
RATE_LIMIT = "rate-limit"
BLACKHOLE = "blackhole"
ROUTE_FLAP = "route-flap"
ROUTE_SET = "route-set"

#: Host-domain kinds: faults under the *scanner host* rather than the
#: simulated Internet.  They arm against the store's
#: :class:`~repro.store.oslayer.OsLayer` (via
#: :class:`~repro.faults.host.HostFaultInjector`), not the network.
FS_ERROR = "fs-error"
FS_TORN_WRITE = "fs-torn-write"
FS_CRASH = "fs-crash"

NETWORK_FAULT_KINDS = (LOSS_BURST, ROUTER_CRASH, RATE_LIMIT, BLACKHOLE,
                       ROUTE_FLAP, ROUTE_SET)
HOST_FAULT_KINDS = (FS_ERROR, FS_TORN_WRITE, FS_CRASH)
FAULT_KINDS = NETWORK_FAULT_KINDS + HOST_FAULT_KINDS

#: ``fs-error`` operations / errnos and ``fs-crash`` phases.
FS_OPS = ("write", "fsync", "rename")
FS_ERRNOS = ("EIO", "ENOSPC")
FS_CRASH_OPS = ("before-rename", "after-rename")

#: A :class:`FaultEvent`'s optional fields, in document order.
OPTIONAL_FIELDS = ("device", "link", "prefix", "rate", "burst", "next_hop",
                   "op", "err", "path", "offset")


class ScheduleError(ValueError):
    """A fault schedule is malformed (unknown kind, bad window, ...)."""


@dataclass(frozen=True)
class FaultEvent:
    """One time-windowed fault: active while ``start <= clock < end``."""

    kind: str
    start: float
    end: float
    device: Optional[str] = None
    #: Directed link as (src, dst) device names; None = every link.
    link: Optional[Tuple[str, str]] = None
    #: Prefix text (e.g. ``"2001:db8:1:60::/60"``); kept as a string so the
    #: event stays a pure-primitive, JSON-trivial, picklable value.
    prefix: Optional[str] = None
    rate: Optional[float] = None
    burst: Optional[float] = None
    #: Next-hop address text for ``route-set`` (primitive for pickling).
    next_hop: Optional[str] = None
    #: Host-domain fields.  ``op``: which durability syscall the fault
    #: intercepts (``fs-error``: write/fsync/rename; ``fs-crash``:
    #: before-rename/after-rename).  ``err``: the errno name raised by
    #: ``fs-error`` (EIO/ENOSPC).  ``path``: substring filter — the fault
    #: only fires on files whose path contains it (None = every file).
    #: ``offset``: the byte position an ``fs-torn-write`` tears at.
    op: Optional[str] = None
    err: Optional[str] = None
    path: Optional[str] = None
    offset: Optional[int] = None

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScheduleError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if not (self.start >= 0.0 and self.end > self.start):
            raise ScheduleError(
                f"{self.kind}: window [{self.start}, {self.end}) must "
                "satisfy 0 <= start < end"
            )
        if self.kind == LOSS_BURST:
            if self.rate is None or not (0.0 < self.rate <= 1.0):
                raise ScheduleError(
                    f"{self.kind}: rate must be in (0, 1], got {self.rate!r}"
                )
            if self.link is not None and len(self.link) != 2:
                raise ScheduleError(
                    f"{self.kind}: link must be a [src, dst] device pair"
                )
        elif self.kind in (ROUTER_CRASH, RATE_LIMIT, BLACKHOLE, ROUTE_FLAP,
                           ROUTE_SET):
            if not self.device:
                raise ScheduleError(f"{self.kind}: device is required")
            if self.kind == RATE_LIMIT:
                if self.rate is None or self.rate < 0.0:
                    raise ScheduleError(
                        f"{self.kind}: rate (errors/second) is required"
                    )
            if self.kind in (BLACKHOLE, ROUTE_FLAP, ROUTE_SET) \
                    and not self.prefix:
                raise ScheduleError(f"{self.kind}: prefix is required")
            if self.kind == ROUTE_SET and not self.next_hop:
                raise ScheduleError(f"{self.kind}: next_hop is required")
        elif self.kind == FS_ERROR:
            if self.op not in FS_OPS:
                raise ScheduleError(
                    f"{self.kind}: op must be one of {', '.join(FS_OPS)}, "
                    f"got {self.op!r}"
                )
            if self.err not in FS_ERRNOS:
                raise ScheduleError(
                    f"{self.kind}: err must be one of "
                    f"{', '.join(FS_ERRNOS)}, got {self.err!r}"
                )
        elif self.kind == FS_TORN_WRITE:
            if self.offset is None or self.offset < 0:
                raise ScheduleError(
                    f"{self.kind}: offset (bytes, >= 0) is required, got "
                    f"{self.offset!r}"
                )
        elif self.kind == FS_CRASH:
            if self.op not in FS_CRASH_OPS:
                raise ScheduleError(
                    f"{self.kind}: op must be one of "
                    f"{', '.join(FS_CRASH_OPS)}, got {self.op!r}"
                )

    @property
    def host_domain(self) -> bool:
        """True for faults that arm against the OS layer, not the network."""
        return self.kind in HOST_FAULT_KINDS

    def resource(self) -> tuple:
        """The exclusive resource this event occupies (overlap checking)."""
        if self.kind == LOSS_BURST:
            return ("loss", self.link)
        if self.kind == ROUTER_CRASH:
            return ("device", self.device)
        if self.kind == RATE_LIMIT:
            return ("limiter", self.device)
        if self.kind == FS_ERROR:
            return ("host", self.op, self.path)
        if self.kind == FS_TORN_WRITE:
            # A torn write is a write-path fault: it may not share a window
            # with an fs-error on write for the same files.
            return ("host", "write", self.path)
        if self.kind == FS_CRASH:
            return ("host", self.op, self.path)
        return ("route", self.device, self.prefix)

    def set_fields(self, names: Iterable[str]) -> Dict[str, object]:
        """The named optional fields this event sets, as JSON-ready values —
        what a schedule document and a journal record both carry."""
        fields: Dict[str, object] = {}
        for name in names:
            value = getattr(self, name)
            if value is not None:
                fields[name] = list(value) if name == "link" else value
        return fields

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "start": self.start, "end": self.end,
            **self.set_fields(OPTIONAL_FIELDS),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        if not isinstance(data, dict):
            raise ScheduleError(f"fault event must be an object, got {data!r}")
        unknown = set(data) - {"kind", "start", "end", *OPTIONAL_FIELDS}
        if unknown:
            raise ScheduleError(
                f"unknown fault event field(s): {', '.join(sorted(unknown))}"
            )
        try:
            link = data.get("link")
            event = cls(
                kind=str(data["kind"]),
                start=float(data["start"]),  # type: ignore[arg-type]
                end=float(data["end"]),  # type: ignore[arg-type]
                device=(
                    str(data["device"]) if data.get("device") is not None
                    else None
                ),
                link=(
                    (str(link[0]), str(link[1]))  # type: ignore[index]
                    if link is not None else None
                ),
                prefix=(
                    str(data["prefix"]) if data.get("prefix") is not None
                    else None
                ),
                rate=(
                    float(data["rate"])  # type: ignore[arg-type]
                    if data.get("rate") is not None else None
                ),
                burst=(
                    float(data["burst"])  # type: ignore[arg-type]
                    if data.get("burst") is not None else None
                ),
                next_hop=(
                    str(data["next_hop"])
                    if data.get("next_hop") is not None else None
                ),
                op=str(data["op"]) if data.get("op") is not None else None,
                err=str(data["err"]) if data.get("err") is not None else None,
                path=(
                    str(data["path"]) if data.get("path") is not None
                    else None
                ),
                offset=(
                    int(data["offset"])  # type: ignore[arg-type]
                    if data.get("offset") is not None else None
                ),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ScheduleError(f"malformed fault event {data!r}: {exc}")
        event.validate()
        return event


@dataclass(frozen=True)
class FaultSchedule:
    """A seed plus an ordered tuple of fault-event windows."""

    events: Tuple[FaultEvent, ...] = ()
    #: Seed for the dedicated fault RNG (loss draws); independent of the
    #: topology and scan seeds so chaos reproduces bit-identically.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        self.validate()

    def validate(self) -> None:
        for event in self.events:
            event.validate()
        # Two events may not occupy the same resource at the same time —
        # apply/revert would otherwise have to stack, and "which fault wins"
        # would depend on schedule order rather than the schedule itself.
        by_resource: Dict[tuple, List[FaultEvent]] = {}
        for event in self.events:
            by_resource.setdefault(event.resource(), []).append(event)
        for resource, group in by_resource.items():
            group.sort(key=lambda e: e.start)
            for earlier, later in zip(group, group[1:]):
                if later.start < earlier.end:
                    raise ScheduleError(
                        f"overlapping {earlier.kind}/{later.kind} windows on "
                        f"{resource!r}: [{earlier.start}, {earlier.end}) and "
                        f"[{later.start}, {later.end})"
                    )

    def device_names(self) -> Iterable[str]:
        """Every device name the schedule references (for arming checks)."""
        for event in self.events:
            if event.device is not None:
                yield event.device
            if event.link is not None:
                yield from event.link

    def host_events(self) -> Tuple[FaultEvent, ...]:
        """The host-domain subset (what a HostFaultInjector arms)."""
        return tuple(e for e in self.events if e.host_domain)

    def network_events(self) -> Tuple[FaultEvent, ...]:
        """The network-domain subset (what a FaultInjector arms)."""
        return tuple(e for e in self.events if not e.host_domain)

    # -- (de)serialisation -------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        payload = {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ScheduleError(f"fault schedule is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ScheduleError("fault schedule must be a JSON object")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ScheduleError("'events' must be a list of fault events")
        try:
            seed = int(data.get("seed", 0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ScheduleError(f"'seed' must be an integer, got "
                                f"{data.get('seed')!r}")
        return cls(
            events=tuple(FaultEvent.from_dict(item) for item in events),
            seed=seed,
        )

    @classmethod
    def from_file(cls, path: "str | object") -> "FaultSchedule":
        with open(path) as handle:  # type: ignore[arg-type]
            return cls.from_json(handle.read())

    def __len__(self) -> int:
        return len(self.events)
