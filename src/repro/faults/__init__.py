"""Deterministic, seedable fault injection for the simulated Internet.

The paper's measurements ran for 48 hours against production ISPs, where
the substrate is hostile and non-stationary: links drop bursts of packets,
routers reboot and re-converge, and RFC 4443 §2.4(f) rate limiting silently
swallows the ICMPv6 errors the whole technique depends on.  This package
models that turbulence as data: a :class:`FaultSchedule` is a picklable
list of time-windowed :class:`FaultEvent`\\ s keyed off the network's
*virtual* clock, and a :class:`FaultInjector` arms it against a live
:class:`~repro.net.network.Network` — applying each fault when the clock
enters its window and reverting it when the clock leaves.

The schedule carries two fault **domains** on one timeline.  Network-domain
events (loss bursts, router crashes, rate limiting, routing mutations) arm
against the simulated Internet via :class:`FaultInjector`; host-domain
events (``fs-error`` / ``fs-torn-write`` / ``fs-crash``) arm against the
*scanner host's* storage syscalls via :class:`HostFaultInjector`, which
wraps the store's :class:`~repro.store.oslayer.OsLayer` in a
:class:`FaultyOs` shim.  A mixed schedule is split automatically: each
injector arms only its own domain's events, and both run them on the one
:class:`~repro.faults.windows.FaultWindows` timeline-and-journal core.
The kill-anywhere harness (:mod:`repro.faults.killtest`) lives here too,
with :class:`KillSwitchOs`, the other ``OsLayer`` shim.

Determinism is the design constraint: every random draw the fault layer
makes comes from its own ``random.Random(schedule.seed)``, never from the
network's topology RNG (host faults draw no randomness at all), so the
same seed + schedule reproduces the identical packet-level — and
syscall-level — outcome regardless of executor backend (asserted by the
cross-backend determinism suite).
"""

from repro.faults.schedule import (
    BLACKHOLE,
    FAULT_KINDS,
    FS_CRASH,
    FS_ERROR,
    FS_TORN_WRITE,
    HOST_FAULT_KINDS,
    LOSS_BURST,
    NETWORK_FAULT_KINDS,
    RATE_LIMIT,
    ROUTE_FLAP,
    ROUTE_SET,
    ROUTER_CRASH,
    FaultEvent,
    FaultSchedule,
    ScheduleError,
)
from repro.faults.injector import FaultError, FaultInjector
from repro.faults.host import (
    FaultyOs,
    HostFaultInjector,
    KillSwitchOs,
    SimulatedCrash,
)

__all__ = [
    "BLACKHOLE",
    "FAULT_KINDS",
    "FS_CRASH",
    "FS_ERROR",
    "FS_TORN_WRITE",
    "HOST_FAULT_KINDS",
    "LOSS_BURST",
    "NETWORK_FAULT_KINDS",
    "RATE_LIMIT",
    "ROUTE_FLAP",
    "ROUTE_SET",
    "ROUTER_CRASH",
    "FaultEvent",
    "FaultSchedule",
    "FaultError",
    "FaultInjector",
    "FaultyOs",
    "HostFaultInjector",
    "KillSwitchOs",
    "ScheduleError",
    "SimulatedCrash",
]
