"""Arms a :class:`~repro.faults.schedule.FaultSchedule` against a live
network.

The timeline, the journal and revert-on-restore are the shared
:class:`~repro.faults.windows.FaultWindows` core; the forwarding engine
compares its :attr:`next_transition` against the virtual clock once per
injection — the entire cost of a *disabled or idle* fault layer is that one
comparison (guarded by an ``is not None`` check), which is what keeps the
A/B overhead bench under its 2% budget.  This module is the network
domain's half: what each fault kind does to a live network.

Every fault effect reuses existing simulator machinery rather than adding
parallel code paths:

* loss bursts populate :attr:`Network.link_loss`, drawn against the
  dedicated fault RNG inside ``Network._enqueue``;
* router crashes go through :meth:`Network.unregister` /
  :meth:`Network.register`, so the topology **generation stamp** bump
  invalidates every flow-cache entry that resolved through the dark device
  — exactly the churn path prefix rotation already exercises;
* route flaps and blackhole windows mutate the device's routing table,
  which bumps the same ``Network.generation``;
* rate-limit tightening swaps the device's
  :class:`~repro.net.device.ErrorRateLimiter` for the window and restores
  the original object — suppressed-error accounting keeps accumulating.

:meth:`restore` reverts everything still active (scan ended mid-window)
and detaches from the network, leaving it pristine for reuse.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.faults.schedule import (
    BLACKHOLE,
    LOSS_BURST,
    RATE_LIMIT,
    ROUTE_FLAP,
    ROUTE_SET,
    ROUTER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.windows import FaultWindows
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.device import Device, ErrorRateLimiter
from repro.net.routing import Route


class FaultError(RuntimeError):
    """A schedule cannot be armed or applied against this network."""


class FaultInjector(FaultWindows):
    """Drives one schedule's network-domain events against one network."""

    RECORD_FIELDS = ("device", "link", "prefix", "rate")

    def __init__(
        self,
        network,
        schedule: FaultSchedule,
        metrics=None,
        protected: Tuple[str, ...] = (),
    ) -> None:
        # Host-domain events are not ours — they arm against the store's OS
        # layer via a HostFaultInjector; a mixed schedule is split here.
        super().__init__(
            schedule.network_events(), lambda: network.clock, metrics
        )
        self.network = network
        self.schedule = schedule
        #: Dedicated chaos RNG: loss draws never touch the topology RNG.
        self.rng = random.Random(schedule.seed)
        #: Device names faults must not target (the scan vantage).
        self.protected = tuple(protected)
        self._devices: Dict[str, Device] = {}
        self._crashed: Dict[int, Device] = {}
        self._limiters: Dict[int, ErrorRateLimiter] = {}
        self._routes: Dict[int, Optional[Route]] = {}
        self._armed = False
        self._drops_baseline = 0

    # -- lifecycle ---------------------------------------------------------

    def arm(self) -> None:
        """Attach to the network; resolve and vet every referenced device."""
        network = self.network
        if network.faults is not None and network.faults is not self:
            raise FaultError("another fault schedule is already armed")
        for name in self.schedule.device_names():
            device = network.devices.get(name)
            if device is None:
                raise FaultError(
                    f"fault schedule references unknown device {name!r}"
                )
            self._devices[name] = device
        for event in self.schedule.events:
            if event.kind == ROUTER_CRASH and event.device in self.protected:
                raise FaultError(
                    f"cannot crash protected device {event.device!r} "
                    "(the scan vantage must survive the campaign)"
                )
        self._drops_baseline = network.fault_drops
        network.faults = self
        network.fault_rng = self.rng
        self._armed = True

    def _detach(self) -> None:
        if not self._armed:
            return
        dropped = self.network.fault_drops - self._drops_baseline
        if dropped:
            self.metrics.counter("fault_packets_lost").inc(dropped)
        if self.network.faults is self:
            self.network.faults = None
        self._armed = False

    # -- fault effects -----------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        network = self.network
        kind = event.kind
        if kind == LOSS_BURST:
            network.link_loss[event.link] = event.rate
        elif kind == ROUTER_CRASH:
            device = self._devices[event.device]  # type: ignore[index]
            network.unregister(device)
            self._crashed[id(event)] = device
        elif kind == RATE_LIMIT:
            device = self._devices[event.device]  # type: ignore[index]
            self._limiters[id(event)] = device.error_limiter
            assert event.rate is not None
            device.error_limiter = ErrorRateLimiter(
                rate_per_second=event.rate,
                burst=event.burst if event.burst is not None else 1.0,
            )
        elif kind == BLACKHOLE:
            device = self._devices[event.device]  # type: ignore[index]
            prefix = IPv6Prefix.from_string(event.prefix)  # type: ignore[arg-type]
            self._routes[id(event)] = self._route_for(device, prefix)
            device.table.add_blackhole(prefix)
        elif kind == ROUTE_FLAP:
            device = self._devices[event.device]  # type: ignore[index]
            prefix = IPv6Prefix.from_string(event.prefix)  # type: ignore[arg-type]
            withdrawn = self._route_for(device, prefix)
            if withdrawn is None:
                raise FaultError(
                    f"route-flap: {event.device!r} has no route for "
                    f"{event.prefix} to withdraw"
                )
            self._routes[id(event)] = withdrawn
            device.table.remove(prefix)
        elif kind == ROUTE_SET:
            device = self._devices[event.device]  # type: ignore[index]
            prefix = IPv6Prefix.from_string(event.prefix)  # type: ignore[arg-type]
            self._routes[id(event)] = self._route_for(device, prefix)
            assert event.next_hop is not None
            device.table.add_next_hop(
                prefix, IPv6Addr.from_string(event.next_hop)
            )

    def _revert(self, event: FaultEvent) -> None:
        network = self.network
        kind = event.kind
        if kind == LOSS_BURST:
            network.link_loss.pop(event.link, None)
        elif kind == ROUTER_CRASH:
            device = self._crashed.pop(id(event))
            network.register(device)
            # Reboot semantics: the device comes back with a cold neighbor
            # cache and re-converges through NDP as traffic returns.
            from repro.net.ndp import NeighborCache

            device.neighbor_cache = NeighborCache()
        elif kind == RATE_LIMIT:
            device = self._devices[event.device]  # type: ignore[index]
            device.error_limiter = self._limiters.pop(id(event))
        elif kind == ROUTE_FLAP:
            device = self._devices[event.device]  # type: ignore[index]
            saved = self._routes.pop(id(event))
            assert saved is not None
            device.table.add(saved)
        elif kind in (BLACKHOLE, ROUTE_SET):
            device = self._devices[event.device]  # type: ignore[index]
            prefix = IPv6Prefix.from_string(event.prefix)  # type: ignore[arg-type]
            device.table.remove(prefix)
            saved = self._routes.pop(id(event))
            if saved is not None:
                device.table.add(saved)

    @staticmethod
    def _route_for(device: Device, prefix: IPv6Prefix) -> Optional[Route]:
        """The device's exact-prefix route, if one is installed."""
        for route in device.table.routes():
            if (
                route.prefix.network == prefix.network
                and route.prefix.length == prefix.length
            ):
                return route
        return None
