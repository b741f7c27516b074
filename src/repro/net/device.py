"""Simulated IPv6 devices: hosts, routers, ISP routers, CPEs, and UEs.

These models implement the RFC behaviours the paper's measurements rest on:

* **RFC 4443 §3.1** — a router that cannot deliver a packet generates an
  ICMPv6 Destination Unreachable.  This is the entire basis of the periphery
  discovery technique: a probe to a nonexistent IID inside a delegated prefix
  makes the CPE/UE reveal its own (WAN) address in the error's source field.
* **RFC 8200 §3** — hop-limit decrement on every forwarding hop, with an
  ICMPv6 Time Exceeded when it reaches zero (RFC 4443 §3.3).  This bounds the
  routing-loop attack at a 255−n amplification factor.
* **RFC 7084 requirement (§VI mitigation)** — a correct CPE installs an
  unreachable (discard) route for delegated-but-unassigned space.  The
  vulnerable firmware models omit it, reproducing the paper's flaw.

Devices never generate ICMPv6 errors in response to ICMPv6 errors
(RFC 4443 §2.4(e)) and rate-limit error generation (§2.4(f)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.packet import (
    Icmpv6Message,
    Icmpv6Type,
    Packet,
    TcpFlags,
    TcpSegment,
    TimeExceededCode,
    UdpDatagram,
    UnreachableCode,
    icmpv6_error,
)
from repro.net.routing import BaseRoutingTable, HashRoutingTable, Route, RouteKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.services.base import Service


@dataclass
class ReceiveResult:
    """What a device did with a packet.

    ``replies`` are new packets this device originated (echo replies, service
    responses, ICMPv6 errors).  ``forward`` is a (next-device-address, packet)
    pair when the packet should continue through the network.
    """

    replies: List[Packet] = field(default_factory=list)
    forward: Optional[Tuple[IPv6Addr, Packet]] = None


# -- forwarding flow cache ---------------------------------------------------
#
# Periphery scanning re-traverses the same ISP→CPE route for every target in
# a sub-prefix, so the per-device route resolution is highly cacheable.  A
# FlowEntry is one resolved forwarding decision: the LPM result *plus* the
# next-hop device object, so the fast path skips the routing-table probes,
# the Route-kind branching, and the address→device lookup on every hop.

#: Resolved NEXT_HOP: enqueue straight to ``entry.next_device``.
FLOW_FORWARD = 0
#: On-link delivery: NDP-resolve the (per-packet) destination.
FLOW_CONNECTED = 1
#: No route / unreachable route: answer ICMPv6 no-route unreachable.
FLOW_UNREACHABLE = 2
#: Blackhole route: silent discard.
FLOW_BLACKHOLE = 3
#: Next hop no longer resolves to a device (churn blackhole): drop.
FLOW_UNRESOLVED = 4

#: Entries per device before the cache self-clears (bounds memory when a
#: scan sweeps a huge window through one aggregation router).
FLOW_CACHE_MAX = 65536


class FlowEntry:
    """One cached (egress decision, next-hop device) pair."""

    __slots__ = ("action", "next_device", "route")

    def __init__(self, action: int, next_device: Optional["Device"],
                 route: Optional["Route"]) -> None:
        self.action = action
        self.next_device = next_device
        self.route = route


class ErrorRateLimiter:
    """Token-bucket limiter for ICMPv6 error generation (RFC 4443 §2.4(f))."""

    def __init__(self, rate_per_second: float = 1000.0, burst: float = 100.0):
        self.rate = rate_per_second
        self.burst = burst
        self._tokens = burst
        #: Lazily initialised from the first observed clock: anchoring at
        #: 0.0 would grant the first ``allow()`` a full refill for however
        #: much virtual time passed before this limiter saw any traffic —
        #: wrong for limiters installed mid-scan (fault injection).
        self._last: Optional[float] = None

    def allow(self, now: float) -> bool:
        if self._last is None:
            self._last = now
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def reset(self) -> None:
        """Back to a full bucket that has seen no traffic."""
        self._tokens = self.burst
        self._last = None


class Device:
    """Base class: owns addresses, answers echo probes, runs services."""

    #: Routers forward; plain hosts and UEs-without-tethering do not.
    forwards = False

    def __init__(
        self,
        name: str,
        primary_address: IPv6Addr,
        vendor: str = "",
        model: str = "",
        error_rate_limit: Optional[ErrorRateLimiter] = None,
    ) -> None:
        self.name = name
        self.primary_address = primary_address
        self.vendor = vendor
        self.model = model
        self.table: BaseRoutingTable = HashRoutingTable()
        self.addresses: set[IPv6Addr] = {primary_address}
        self.udp_services: Dict[int, "Service"] = {}
        self.tcp_services: Dict[int, "Service"] = {}
        self.error_limiter = error_rate_limit or ErrorRateLimiter()
        self.errors_suppressed = 0
        #: First-hop router for self-originated traffic on non-forwarding
        #: devices (set by Network.attach_host or the caller).
        self.gateway: Optional["Device"] = None
        #: Hardware address advertised in Neighbor Advertisements.
        self.lladdr: Optional[object] = None
        from repro.net.ndp import NeighborCache

        self.neighbor_cache = NeighborCache()
        #: Route-resolution flow cache (see module docs above) plus the
        #: network ``generation`` it was filled under.
        self._flow_cache: Dict[int, FlowEntry] = {}
        self._flow_stamp = -1
        #: The engine may bypass :meth:`receive`/:meth:`_forward` only when
        #: this device's forwarding is exactly the base implementation;
        #: subclasses with behavioural overrides must clear the flag.
        self.flow_forward_safe = type(self)._forward is Device._forward

    # -- configuration -----------------------------------------------------

    def bind_service(self, service: "Service") -> None:
        """Expose a service on this device (TCP and/or UDP per its spec)."""
        if service.spec.udp:
            self.udp_services[service.spec.port] = service
        if service.spec.tcp:
            self.tcp_services[service.spec.port] = service

    def owns(self, addr: IPv6Addr) -> bool:
        return addr in self.addresses

    def reset_scan_state(self) -> None:
        """Forget everything carrying traffic wrote on this device.

        The device's half of :meth:`repro.net.network.Network.restore`:
        afterwards it is the device its builder constructed — addresses,
        routes and services untouched, a full error bucket, cold neighbour
        and flow caches, zeroed counters.  A per-scan field added to a
        device belongs here (``tests/test_topology_pool.py`` walks
        ``vars(device)`` to say so).
        """
        self.error_limiter.reset()
        self.errors_suppressed = 0
        neighbors = self.neighbor_cache
        neighbors.flush()
        neighbors.hits = neighbors.misses = neighbors.solicitations = 0
        self._flow_cache.clear()
        self._flow_stamp = -1

    # -- packet handling ---------------------------------------------------

    def receive(self, packet: Packet, network: "Network") -> ReceiveResult:
        if self.owns(packet.dst):
            return ReceiveResult(replies=self._deliver_local(packet, network))
        if not self.forwards:
            return ReceiveResult()  # hosts silently drop transit packets
        return self._forward(packet, network)

    def _deliver_local(self, packet: Packet, network: "Network") -> List[Packet]:
        payload = packet.payload
        if isinstance(payload, Icmpv6Message):
            return self._handle_icmpv6(packet, payload)
        if isinstance(payload, UdpDatagram):
            return self._handle_udp(packet, payload, network)
        if isinstance(payload, TcpSegment):
            return self._handle_tcp(packet, payload, network)
        return []

    def _handle_icmpv6(self, packet: Packet, msg: Icmpv6Message) -> List[Packet]:
        if msg.type == Icmpv6Type.ECHO_REQUEST:
            reply = Icmpv6Message(
                int(Icmpv6Type.ECHO_REPLY),
                ident=msg.ident,
                seq=msg.seq,
                payload=msg.payload,
            )
            # Reply from the probed address so the prober sees a live host.
            return [Packet(src=packet.dst, dst=packet.src, payload=reply)]
        return []  # errors and replies terminate here

    def _handle_udp(
        self, packet: Packet, datagram: UdpDatagram, network: "Network"
    ) -> List[Packet]:
        service = self.udp_services.get(datagram.dport)
        if service is None:
            error = self._make_error(
                packet,
                Icmpv6Type.DEST_UNREACHABLE,
                int(UnreachableCode.PORT_UNREACHABLE),
                network,
            )
            return [error] if error else []
        response = service.handle_udp(datagram.payload)
        if response is None:
            return []
        reply = UdpDatagram(datagram.dport, datagram.sport, response)
        return [Packet(src=packet.dst, dst=packet.src, payload=reply)]

    def _handle_tcp(
        self, packet: Packet, segment: TcpSegment, network: "Network"
    ) -> List[Packet]:
        service = self.tcp_services.get(segment.dport)
        if service is None:
            rst = TcpSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=0,
                ack=segment.seq + 1,
                flags=int(TcpFlags.RST) | int(TcpFlags.ACK),
            )
            return [Packet(src=packet.dst, dst=packet.src, payload=rst)]
        if segment.has_flag(TcpFlags.SYN) and not segment.has_flag(TcpFlags.ACK):
            synack = TcpSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=network.rng.getrandbits(32),
                ack=(segment.seq + 1) & 0xFFFFFFFF,
                flags=int(TcpFlags.SYN) | int(TcpFlags.ACK),
            )
            return [Packet(src=packet.dst, dst=packet.src, payload=synack)]
        if segment.payload:
            response = service.handle_tcp(segment.payload)
            if response is None:
                return []
            reply = TcpSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=segment.ack,
                ack=(segment.seq + len(segment.payload)) & 0xFFFFFFFF,
                flags=int(TcpFlags.PSH) | int(TcpFlags.ACK),
                payload=response,
            )
            return [Packet(src=packet.dst, dst=packet.src, payload=reply)]
        return []

    # -- forwarding (routers only) ------------------------------------------

    def flow_entry(self, value: int, network: "Network") -> FlowEntry:
        """Resolve one destination to a cached forwarding decision.

        The cache is keyed by the destination's /64 (the granularity the
        scanner sweeps), is consulted with a single dict probe, and stores
        the matched route together with the *resolved* next-hop device.  An
        entry is inserted only when one decision provably serves the whole
        /64: the LPM-matched prefix must be /64 or shorter and no more-
        specific (>64-bit) route may exist inside that /64.  Staleness is
        detected by one integer comparison: the network bumps its
        ``generation`` on any register/unregister/bind and on any add/remove
        in a registered device's routing table, so prefix rotation, churn
        and route edits invalidate every cache in O(1).
        """
        table = self.table
        cache = self._flow_cache
        if self._flow_stamp != network.generation:
            cache.clear()
            self._flow_stamp = network.generation
        key = value >> 64
        entry = cache.get(key)
        if entry is not None:
            network.flow_hits += 1
            return entry
        network.flow_misses += 1
        route = table.lookup(value)
        if route is None or route.kind is RouteKind.UNREACHABLE:
            entry = FlowEntry(FLOW_UNREACHABLE, None, route)
        elif route.kind is RouteKind.BLACKHOLE:
            entry = FlowEntry(FLOW_BLACKHOLE, None, route)
        elif route.kind is RouteKind.CONNECTED:
            entry = FlowEntry(FLOW_CONNECTED, None, route)
        else:
            assert route.next_hop is not None
            next_device = network.device_at(route.next_hop)
            entry = FlowEntry(
                FLOW_FORWARD if next_device is not None else FLOW_UNRESOLVED,
                next_device,
                route,
            )
        if (route is None or route.prefix.length <= 64) and (
            not table.has_specific_within_slash64(key)
        ):
            if len(cache) >= FLOW_CACHE_MAX:
                cache.clear()
            cache[key] = entry
        return entry

    def _forward(self, packet: Packet, network: "Network") -> ReceiveResult:
        route = self.table.lookup(packet.dst)
        if network.active_trace is not None:
            # The longest-prefix-match decision, exactly as taken.
            network.trace_event(
                "route_lookup",
                device=self.name,
                dst=str(packet.dst),
                route=str(route) if route is not None else "no-route",
                kind=route.kind.value if route is not None else "none",
            )
        if route is not None and route.kind is RouteKind.BLACKHOLE:
            if network.active_trace is not None:
                network.trace_event("drop", device=self.name,
                                    reason="blackhole-route")
            return ReceiveResult()  # silent discard
        if route is None or route.kind is RouteKind.UNREACHABLE:
            error = self._make_error(
                packet,
                Icmpv6Type.DEST_UNREACHABLE,
                int(UnreachableCode.NO_ROUTE),
                network,
            )
            return ReceiveResult(replies=[error] if error else [])

        if packet.hop_limit <= 1:
            if network.active_trace is not None:
                network.trace_event("hop_limit_exhausted", device=self.name,
                                    hop_limit=packet.hop_limit)
            error = self._make_error(
                packet,
                Icmpv6Type.TIME_EXCEEDED,
                int(TimeExceededCode.HOP_LIMIT),
                network,
            )
            return ReceiveResult(replies=[error] if error else [])

        forwarded = packet.with_hop_limit(packet.hop_limit - 1)
        if network.active_trace is not None:
            network.trace_event("hop_limit_decrement", device=self.name,
                                hop_limit=forwarded.hop_limit)
        if route.kind is RouteKind.CONNECTED:
            # On-link delivery: RFC 4861 address resolution must find the
            # target; a failed resolution is reported as ICMPv6 address-
            # unreachable — the error the discovery technique harvests.
            from repro.net.ndp import resolve

            if not resolve(self, packet.dst, network):
                error = self._make_error(
                    packet,
                    Icmpv6Type.DEST_UNREACHABLE,
                    int(UnreachableCode.ADDR_UNREACHABLE),
                    network,
                )
                return ReceiveResult(replies=[error] if error else [])
            return ReceiveResult(forward=(packet.dst, forwarded))
        assert route.next_hop is not None
        return ReceiveResult(forward=(route.next_hop, forwarded))

    # -- ICMPv6 error generation ---------------------------------------------

    def _make_error(
        self,
        invoking: Packet,
        error_type: Icmpv6Type,
        code: int,
        network: "Network",
    ) -> Optional[Packet]:
        payload = invoking.payload
        if isinstance(payload, Icmpv6Message) and payload.is_error:
            return None  # RFC 4443 §2.4(e): never error an error
        if not self.error_limiter.allow(network.clock):
            self.errors_suppressed += 1
            if network.active_trace is not None:
                network.trace_event(
                    "icmpv6_error_suppressed", device=self.name,
                    error_type=int(error_type), code=code,
                )
            return None
        if network.active_trace is not None:
            network.trace_event(
                "icmpv6_error", device=self.name,
                error_type=int(error_type), code=code,
                source=str(self.primary_address),
            )
        return icmpv6_error(
            self.primary_address, invoking.src, error_type, code, invoking
        )


class Host(Device):
    """A plain end host (e.g. a LAN device behind a CPE)."""


class Router(Device):
    """A forwarding device with a routing table."""

    forwards = True


class IspRouter(Router):
    """An ISP access/aggregation router owning an ISP block.

    Per Figure 4's "Routing Table P", the router carries one next-hop route
    per customer (WAN /64 and delegated LAN prefix both via the CPE's WAN
    address; UE /64 via the UE address) — installed by
    :meth:`delegate`.  ``unassigned_behavior`` picks what happens to probes
    for space the ISP never delegated: ``"unreachable"`` answers with a
    Destination Unreachable from the router (exposing the aggregation
    router's own address), ``"blackhole"`` discards silently — the upstream
    filtering the paper names as its false-negative source (§IV-C).

    ``drop_external_errors`` additionally suppresses *all* ICMPv6 errors this
    router would emit toward sources outside its block (full ICMPv6 egress
    filtering, as inferred for BSNL's sparse results).
    """

    def __init__(
        self,
        name: str,
        primary_address: IPv6Addr,
        block: IPv6Prefix,
        unassigned_behavior: str = "blackhole",
        drop_external_errors: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(name, primary_address, **kwargs)
        self.block = block
        self.drop_external_errors = drop_external_errors
        if unassigned_behavior == "blackhole":
            self.table.add_blackhole(block)
        elif unassigned_behavior == "unreachable":
            self.table.add_unreachable(block)
        else:
            raise ValueError(
                f"unknown unassigned_behavior {unassigned_behavior!r}"
            )

    def delegate(self, prefix: IPv6Prefix, via: IPv6Addr) -> None:
        """Install the customer route for an assigned/delegated prefix."""
        self.table.add_next_hop(prefix, via)

    def _make_error(self, invoking, error_type, code, network):
        if self.drop_external_errors and not self.block.contains(invoking.src):
            if network.active_trace is not None:
                network.trace_event(
                    "icmpv6_error_filtered", device=self.name,
                    error_type=int(error_type), code=code,
                )
            return None
        return super()._make_error(invoking, error_type, code, network)


class CpeRouter(Router):
    """A customer-premises-edge router (Figure 1a / Figure 4).

    The ISP assigns ``wan_prefix`` (the point-to-point /64 containing
    ``wan_address``) and delegates ``lan_prefix`` (/64 or shorter).  The CPE
    advertises ``subnet_prefix`` (one /64 of the delegation) to its LAN.

    ``vulnerable_wan`` / ``vulnerable_lan`` select the flawed routing-table
    construction of Figure 4: the firmware fails to install discard routes
    for the unused remainder of the WAN / delegated prefix, so those packets
    match the default route and bounce back to the ISP router in a loop.
    """

    def __init__(
        self,
        name: str,
        wan_address: IPv6Addr,
        wan_prefix: IPv6Prefix,
        lan_prefix: IPv6Prefix,
        subnet_prefix: Optional[IPv6Prefix] = None,
        isp_address: Optional[IPv6Addr] = None,
        vulnerable_wan: bool = False,
        vulnerable_lan: bool = False,
        loop_forward_limit: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, wan_address, **kwargs)
        if not wan_prefix.contains(wan_address):
            raise ValueError("WAN address must fall inside the WAN prefix")
        self.wan_prefix = wan_prefix
        self.lan_prefix = lan_prefix
        self.subnet_prefix = subnet_prefix
        self.isp_address = isp_address
        self.vulnerable_wan = vulnerable_wan
        self.vulnerable_lan = vulnerable_lan
        #: Some firmware (Xiaomi, Gargoyle, librecmc, OpenWrt in Table XII)
        #: stops bouncing a looping packet after ~10 forwards instead of
        #: burning the whole hop-limit budget.
        self.loop_forward_limit = loop_forward_limit
        self._loop_bounces = 0
        #: The loop-mitigation override only deviates from base forwarding
        #: when a bounce limit is armed; without one the fast path is exact.
        self.flow_forward_safe = loop_forward_limit is None
        self._install_routes()

    @property
    def wan_address(self) -> IPv6Addr:
        return self.primary_address

    def _install_routes(self) -> None:
        """Build the routing table per the firmware's (mis)behaviour."""
        if self.isp_address is not None:
            self.table.add_default(self.isp_address)

        if self.vulnerable_wan:
            # Flawed: only a host route for the WAN address itself; the rest
            # of the WAN /64 falls through to the default route.
            self.table.add_connected(self.wan_address.prefix(128), "wan")
        else:
            # Correct: the whole point-to-point subnet is on-link, so probes
            # to nonexistent WAN-prefix addresses get ADDR_UNREACHABLE here.
            self.table.add_connected(self.wan_prefix, "wan")

        if self.subnet_prefix is not None:
            self.table.add_connected(self.subnet_prefix, "lan")
        if (
            self.lan_prefix != self.subnet_prefix
            and self.lan_prefix != self.wan_prefix
            and not self.vulnerable_lan
        ):
            # Correct firmware discards traffic for delegated-but-unassigned
            # space (RFC 7084); vulnerable firmware omits this route.  When
            # the delegation *is* the WAN prefix (single-prefix devices) the
            # WAN branch above already decided the policy.
            self.table.add_unreachable(self.lan_prefix)

    def apply_rfc7084_fix(self) -> None:
        """Install the mitigation of §VII / RFC 7084: discard routes for any
        delegated-but-unassigned space, closing the routing loop."""
        self.vulnerable_wan = False
        self.vulnerable_lan = False
        self.table.add_connected(self.wan_prefix, "wan")
        if self.lan_prefix != self.subnet_prefix and (
            self.lan_prefix != self.wan_prefix
        ):
            self.table.add_unreachable(self.lan_prefix)

    def reset_scan_state(self) -> None:
        super().reset_scan_state()
        self._loop_bounces = 0

    def _forward(self, packet: Packet, network: "Network") -> ReceiveResult:
        if self.loop_forward_limit is not None and (
            self.wan_prefix.contains(packet.dst)
            or self.lan_prefix.contains(packet.dst)
        ):
            route = self.table.lookup(packet.dst)
            bounces_upstream = (
                route is not None
                and route.kind is RouteKind.NEXT_HOP
                and route.next_hop == self.isp_address
            )
            if bounces_upstream:
                self._loop_bounces += 1
                if self._loop_bounces > self.loop_forward_limit:
                    self._loop_bounces = 0
                    return ReceiveResult()  # firmware loop mitigation kicks in
        return super()._forward(packet, network)


class UeDevice(Router):
    """A user equipment (Figure 1b): a phone holding a delegated /64.

    The UE is "the last hop routed infrastructure … or only enables
    connectivity for itself": its prefix is on-link to itself with no other
    neighbours, so any probe to a nonexistent IID inside the prefix draws an
    ADDR_UNREACHABLE from the UE's own address — the same exposure mechanism
    as the CPE, with same-/64 replies (Table II's "same" column).
    """

    def __init__(
        self,
        name: str,
        ue_address: IPv6Addr,
        ue_prefix: IPv6Prefix,
        isp_address: Optional[IPv6Addr] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, ue_address, **kwargs)
        if not ue_prefix.contains(ue_address):
            raise ValueError("UE address must fall inside the UE prefix")
        self.ue_prefix = ue_prefix
        self.table.add_connected(ue_prefix, "radio")
        if isp_address is not None:
            self.table.add_default(isp_address)

    @property
    def ue_address(self) -> IPv6Addr:
        return self.primary_address
