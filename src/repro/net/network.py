"""The in-process IPv6 network simulator.

This is the substrate that stands in for the live Internet: a registry of
devices plus a synchronous forwarding engine.  A probe injected at the
measurement vantage traverses device routing tables hop by hop — decrementing
hop limits, generating ICMPv6 errors, possibly looping between a vulnerable
CPE and its ISP router — until every packet in flight has either been
delivered, dropped, or returned to the vantage.

The engine has two forwarding paths with identical observable behaviour:

* the **slow path** walks ``Device.receive`` → ``Device._forward`` hop by
  hop and emits probe-lifecycle trace events;
* the **fast path** (on by default, ``flow_cache=False`` to disable) runs
  whenever no probe trace is being recorded and the hop's device uses base
  forwarding semantics.  It resolves each destination through the device's
  :meth:`~repro.net.device.Device.flow_entry` route flow cache — one dict
  probe per hop instead of an LPM walk plus result-object allocation.
  Cache entries are invalidated by the **topology generation counter**
  (bumped on register/unregister/bind and on every route add/remove of a
  registered device), so prefix rotation and churn modelling stay correct.

The engine can track per-link traversal counts, which is how the
routing-loop benchmarks measure amplification: the paper's >200x factor is
literally the number of times one attack packet crosses the ISP↔CPE link.
Link recording is opt-in (``record_links``) so the scan hot loop does not
pay for dict updates it never reads.

Time is virtual: the scanner's rate limiter advances :attr:`Network.clock`,
and device ICMPv6 error limiters read it.

A built network is an *artifact* (devices, tables, address ownership, the
compiled FIB — what scans only read) carrying *scan state* (clock, RNG,
counters, fault-layer residue, per-device buckets and caches — what they
write).  :meth:`Network.seal` draws that line and :meth:`Network.restore`
puts the scan state back, which is what lets one build serve many scans
(:meth:`repro.net.spec.TopologySpec.checkout`).
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.net.addr import IPv6Addr
from repro.net.device import (
    FLOW_BLACKHOLE,
    FLOW_CONNECTED,
    FLOW_FORWARD,
    FLOW_UNREACHABLE,
    Device,
    Host,
    ReceiveResult,
)
from repro.net.ndp import resolve
from repro.net.packet import (
    Icmpv6Type,
    Packet,
    TimeExceededCode,
    UnreachableCode,
)
from repro.net.routing import RouteKind

if False:  # TYPE_CHECKING without the import cost on the hot path
    from repro.net.columnar import ColumnarFib
    from repro.telemetry.trace import ProbeTrace


class Link(NamedTuple):
    """A directed device-to-device hop, keyed by device names."""

    src: str
    dst: str


@dataclass
class DeliveryTrace:
    """Per-injection record of what the forwarding engine did.

    ``link_counts`` fills only when the network's ``record_links`` flag is
    set — the loop-attack measurements enable it; the scanner's hot loop
    leaves it off.
    """

    hops: int = 0
    drops: int = 0
    delivered: int = 0
    errors_generated: int = 0
    link_counts: Dict[Link, int] = field(default_factory=dict)

    def crossings(self, a: str, b: str) -> int:
        """Traversals of the (a, b) link, both directions."""
        return self.link_counts.get(Link(a, b), 0) + self.link_counts.get(
            Link(b, a), 0
        )


#: The three ICMPv6 errors the fast path raises, as ``(type, code)``.
TIME_EXCEEDED = (Icmpv6Type.TIME_EXCEEDED, int(TimeExceededCode.HOP_LIMIT))
ADDR_UNREACHABLE = (Icmpv6Type.DEST_UNREACHABLE,
                    int(UnreachableCode.ADDR_UNREACHABLE))
NO_ROUTE = (Icmpv6Type.DEST_UNREACHABLE, int(UnreachableCode.NO_ROUTE))


class NetworkError(RuntimeError):
    """Raised for topology misconfigurations (duplicate addresses, etc.)."""


def loop_exit(here: Device, there: Device, hop_limit: int) -> Tuple[int, Device]:
    """Where a routing loop leaves a packet: ``(steps, holder)``.

    A packet at ``here`` with ``hop_limit`` > 1 whose destination ``here``
    forwards to ``there`` and ``there`` forwards straight back is in a
    deterministic 2-cycle — the paper's amplification loop — for as long as
    both decisions stand.  Each hop burns one hop limit and nothing else,
    so the packet takes ``steps = hop_limit - 1`` more hops and is then
    held, with hop limit 1, by ``there`` if ``steps`` is odd and by ``here``
    if it is even; the holder answers it with Time Exceeded.  Both fast
    engines burn a loop with this arithmetic instead of walking it: the
    scalar one in :meth:`Network._drain`, the vector one (a column at a
    time) in :func:`repro.net.columnar._vector_phase`.
    """
    steps = hop_limit - 1
    return steps, there if steps & 1 else here


class Network:
    """Device registry plus the synchronous packet-forwarding engine."""

    def __init__(
        self,
        seed: int = 0,
        loss_rate: float = 0.0,
        max_hops: int = 4096,
        record_links: bool = False,
        flow_cache: bool = True,
    ) -> None:
        self.rng = random.Random(seed)
        self.loss_rate = loss_rate
        self.max_hops = max_hops
        #: Fill ``DeliveryTrace.link_counts`` per hop.  Opt-in: the loop
        #: attack/case-study paths enable it (they read ``crossings``); the
        #: scanner leaves it off.
        self.record_links = record_links
        #: The oracle override: ``False`` selects the reference engine —
        #: every hop down the slow path, no columnar vector phase — which
        #: every parity test compares the fast engines against.
        self.flow_cache = flow_cache
        self.clock = 0.0
        #: Armed :class:`~repro.faults.injector.FaultInjector`, if any.
        #: :meth:`inject` compares the clock against its ``next_transition``
        #: once per injection — the whole cost of an idle fault layer.
        self.faults = None
        #: Fault-layer loss windows: ``{(src, dst) names | None: rate}``
        #: (None = every link), drawn against :attr:`fault_rng` so chaos
        #: never perturbs the topology RNG stream.  An injector leaves its
        #: RNG here when it detaches, so ``fault_rng is not None`` says one
        #: was armed since construction or the last :meth:`restore`.
        self.link_loss: Dict[Optional[Tuple[str, str]], float] = {}
        self.fault_rng: Optional[random.Random] = None
        #: Packets the fault layer dropped (read by fault telemetry).
        self.fault_drops = 0
        self.devices: Dict[str, Device] = {}
        self._addr_owner: Dict[int, Device] = {}
        self.total_hops = 0
        self.total_injected = 0
        #: Topology generation, the one stamp every cache built from the
        #: topology compares: bumped by every register/unregister/bind and
        #: by every add/remove on a registered device's routing table
        #: (``BaseRoutingTable.networks``).  A plain int of this network's
        #: — only the scan holding a network edits it.
        self.generation = 0
        #: Flow-cache effectiveness counters (read by benches and tests).
        self.flow_hits = 0
        self.flow_misses = 0
        #: Cached :class:`~repro.net.columnar.ColumnarFib`; rebuilt whenever
        #: ``generation`` moves (see ``columnar_fib``).
        self._columnar_fib = None
        #: The probe-lifecycle span currently being recorded, if any.  The
        #: scanner sets this around :meth:`inject` for sampled probes; every
        #: other injection pays one ``is not None`` check per hop and
        #: nothing else (the tracing fast-path contract).  While a span is
        #: active the flow-cache fast path stands down, so the span sees
        #: every route-lookup decision exactly as the slow path takes it.
        self.active_trace: Optional["ProbeTrace"] = None
        #: The baseline :meth:`seal` recorded, by value: (``generation``,
        #: ``rng`` state, ``clock``).  None until sealed.
        self._sealed: Optional[Tuple[int, object, float]] = None

    def trace_event(self, name: str, **fields: object) -> None:
        """Record a forwarding-decision event on the active span, if any."""
        if self.active_trace is not None:
            self.active_trace.add(name, self.clock, **fields)

    # -- topology ------------------------------------------------------------

    def register(self, device: Device) -> Device:
        if device.name in self.devices:
            raise NetworkError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        self.generation += 1
        device.table.networks.append(weakref.ref(self))
        for addr in device.addresses:
            self.bind(addr, device)
        return device

    def unregister(self, device: Device) -> None:
        """Remove a device and all its address bindings (prefix rotation,
        churn modelling).  Routes pointing at it become blackholes naturally
        (the next hop no longer resolves), and the generation bump flushes
        every flow-cache entry that resolved through it."""
        if self.devices.get(device.name) is not device:
            raise NetworkError(f"device {device.name!r} is not registered")
        del self.devices[device.name]
        self.generation += 1
        device.table.networks.remove(weakref.ref(self))
        for addr in list(device.addresses):
            owner = self._addr_owner.get(addr.value)
            if owner is device:
                del self._addr_owner[addr.value]

    def bind(self, addr: IPv6Addr, device: Device) -> None:
        existing = self._addr_owner.get(addr.value)
        if existing is not None and existing is not device:
            raise NetworkError(
                f"address {addr} already owned by {existing.name!r}"
            )
        self._addr_owner[addr.value] = device
        device.addresses.add(addr)
        self.generation += 1

    def attach_host(self, host: Host, gateway: Device) -> Host:
        """Register a LAN host and remember its first-hop gateway."""
        host.gateway = gateway
        return self.register(host)  # type: ignore[return-value]

    def device_at(self, addr: IPv6Addr) -> Optional[Device]:
        return self._addr_owner.get(addr.value)

    def advance(self, seconds: float) -> None:
        self.clock += seconds

    # -- artifact / scan-state boundary --------------------------------------

    def seal(self) -> None:
        """Declare this network a finished artifact; see :meth:`restore`.

        Everything built so far — devices, routing tables, address
        ownership, bound services, the compiled FIB once a block asks for
        it — is from now on the part scans only read.  What they write is
        *scan state*, and its baseline is recorded here by value: the
        topology ``generation``, the RNG state and the clock.  Counters and
        per-device state go back to their constructed values, so the
        network must not have carried traffic yet.
        """
        if self.total_injected:
            raise NetworkError(
                "seal() a network before it carries traffic: device scan "
                "state restores to its constructed values"
            )
        self._sealed = (self.generation, self.rng.getstate(), self.clock)

    def restore(self) -> bool:
        """Put every piece of scan state back to the sealed baseline.

        Afterwards the network is indistinguishable — to a scan, and to a
        walk of its attributes — from a fresh build of the same recipe.
        Returns False, having touched nothing, when that cannot be
        promised: the network was never sealed, a fault injector is still
        attached, or ``generation`` moved (a device, binding or route
        changed — even if it changed back).
        """
        sealed = self._sealed
        if sealed is None or self.faults is not None:
            return False
        generation, rng_state, clock = sealed
        if generation != self.generation:
            return False
        self.clock = clock
        self.rng.setstate(rng_state)
        self.link_loss.clear()
        self.fault_rng = None
        self.fault_drops = 0
        self.total_hops = self.total_injected = 0
        self.flow_hits = self.flow_misses = 0
        self.active_trace = None
        for device in self.devices.values():
            device.reset_scan_state()
        return True

    # -- forwarding engine -----------------------------------------------------

    def hops_unobserved(self) -> bool:
        """Does nothing watch single hops?  The one list of what forces a
        hop-by-hop walk: the reference engine (``flow_cache=False``), an
        active trace span, a loss model (``loss_rate`` or a ``link_loss``
        window — each hop draws from an RNG) and ``record_links`` (each hop
        is recorded).  :meth:`_drain`'s ``plain`` branch and the columnar
        vector phase both run only while this holds."""
        return self.flow_cache and self.active_trace is None and not (
            self.loss_rate or self.link_loss or self.record_links
        )

    def inject(
        self, packet: Packet, vantage: Device
    ) -> Tuple[List[Packet], DeliveryTrace]:
        """Send ``packet`` from ``vantage`` and run the network to quiescence.

        Returns the packets that arrived back at the vantage, plus a trace of
        everything the engine did for this injection.
        """
        trace = DeliveryTrace()
        inbox: List[Packet] = []
        queue: Deque[Tuple[Device, Packet]] = deque()
        self.total_injected += 1

        faults = self.faults
        if faults is not None and self.clock >= faults.next_transition:
            faults.sync(self.clock)

        self._originate(vantage, packet, queue, trace)
        self._drain(queue, vantage, inbox, trace)
        return inbox, trace

    def _drain(
        self,
        queue: Deque[Tuple[Device, Packet]],
        vantage: Device,
        inbox: List[Packet],
        trace: DeliveryTrace,
        home: Optional["ColumnarFib"] = None,
    ) -> None:
        """Run the forwarding engine until every queued packet settles.

        Factored out of :meth:`inject` so the columnar engine can resume
        scalar forwarding mid-flight: it seeds ``trace`` with the hops the
        vectorised phase already took, queues the packet at its ejection
        device, and re-enters here for the stateful tail (NDP, error rate
        limiting, subclass hooks) with bit-identical semantics.

        A routing loop costs O(1) here too.  When nothing observes single
        hops (``plain``: :meth:`hops_unobserved`) and a flow entry forwards
        the only packet in flight back to the device whose flow entry has
        just forwarded it here, the packet is in the 2-cycle of
        :func:`loop_exit` — nothing inside a drain moves the ``generation``
        both entries were resolved under — and is queued once, at the
        holder, with hop limit 1 and all the hops counted; the
        ``hop_limit <= 1`` branch then raises Time Exceeded through
        ``_make_error``, the limiter and the clock as after a walk.  Three
        things keep the walk, hop by hop, exactly as it was: what
        :meth:`hops_unobserved` lists; a device with ``flow_forward_safe =
        False`` (a loop-limited CPE counts forwards, and never reaches the
        fast path); and a second packet in flight, whose turns the walk
        would interleave.  A loop that would carry ``trace.hops`` past
        ``max_hops`` is walked as well, so the ``NetworkError`` is raised
        at the dequeue it always was.

        ``home`` is the :class:`~repro.net.columnar.ColumnarFib` the
        columnar replay forwarded the packet under.  When it is given and
        ``plain`` holds, an ICMPv6 error the fast path raises with nothing
        else in flight is finished by the FIB's return plan
        (:meth:`~repro.net.columnar.ColumnarFib.send_home`): same inbox,
        counters and NDP state as the walk home, without the walk.
        """
        # Hot-loop hoists: every per-hop attribute/constant below is looked
        # up once per injection instead of once per hop.  The flow cache
        # resolves hops unless the reference engine or a trace span runs;
        # when nothing observes individual hops either, the fast path
        # appends to the queue directly instead of paying a _enqueue call
        # per hop.
        fast = self.flow_cache and self.active_trace is None
        plain = self.hops_unobserved()
        max_hops = self.max_hops
        popleft = queue.popleft
        append = queue.append
        addr_owner = self._addr_owner
        # The previous pure hop of this drain: ``hop_from`` forwarded
        # ``hop_dst`` to ``hop_to``.
        hop_from = hop_to = hop_dst = None
        if not plain:
            home = None
        error = self._error

        while queue:
            if trace.hops > max_hops:
                raise NetworkError(
                    f"forwarding exceeded {self.max_hops} hops; "
                    "unbounded loop (hop limits should prevent this)"
                )
            device, current = popleft()
            dst = current.dst
            if device is vantage and dst in device.addresses:
                inbox.append(current)
                trace.delivered += 1
                if self.active_trace is not None:
                    self.active_trace.add(
                        "delivered", self.clock, device=device.name,
                        src=str(current.src),
                    )
                continue
            if (
                fast
                and device.forwards
                and device.flow_forward_safe
                and dst not in device.addresses
            ):
                # Forwarding fast path: one dict probe resolves the hop.
                entry = device.flow_entry(dst.value, self)
                action = entry.action
                if action != FLOW_UNREACHABLE and action != FLOW_BLACKHOLE:
                    # FORWARD / CONNECTED / UNRESOLVED all pass the route
                    # check, so (as in the slow path) the hop-limit test
                    # comes before any next-hop resolution outcome.
                    hop_limit = current.hop_limit
                    if hop_limit <= 1:
                        error(device, current, TIME_EXCEEDED, queue,
                              vantage, inbox, trace, home)
                        continue
                    if action == FLOW_FORWARD:
                        if plain:
                            next_device = entry.next_device
                            if (
                                next_device is hop_from
                                and device is hop_to
                                and dst is hop_dst
                                and not queue
                            ):
                                # Routing-loop exit: the previous pure hop
                                # sent this destination here and this one
                                # sends it straight back.
                                steps, holder = loop_exit(
                                    device, next_device, hop_limit
                                )
                                if trace.hops + steps <= max_hops:
                                    trace.hops += steps
                                    self.total_hops += steps
                                    append((holder, current.with_hop_limit(1)))
                                    continue
                            hop_from, hop_to, hop_dst = device, next_device, dst
                            trace.hops += 1
                            self.total_hops += 1
                            append((
                                next_device,
                                current.with_hop_limit(hop_limit - 1),
                            ))
                        else:
                            self._enqueue(
                                device,
                                entry.next_device,  # type: ignore[arg-type]
                                current.with_hop_limit(hop_limit - 1),
                                queue,
                                trace,
                            )
                        continue
                    if action == FLOW_CONNECTED:
                        # On-link: NDP decides per destination.
                        if resolve(device, dst, self):
                            if plain:
                                trace.hops += 1
                                self.total_hops += 1
                                append((
                                    addr_owner[dst.value],
                                    current.with_hop_limit(hop_limit - 1),
                                ))
                            else:
                                self._enqueue(
                                    device,
                                    addr_owner[dst.value],
                                    current.with_hop_limit(hop_limit - 1),
                                    queue,
                                    trace,
                                )
                            continue
                        error(device, current, ADDR_UNREACHABLE, queue,
                              vantage, inbox, trace, home)
                        continue
                    trace.drops += 1  # FLOW_UNRESOLVED: churn blackhole
                    continue
                if action == FLOW_UNREACHABLE:
                    error(device, current, NO_ROUTE, queue, vantage, inbox,
                          trace, home)
                    continue
                continue  # FLOW_BLACKHOLE: silent discard
            result = device.receive(current, self)
            self._apply(device, result, queue, trace)

    def _error(
        self,
        device: Device,
        invoking: Packet,
        kind: Tuple[Icmpv6Type, int],
        queue: Deque[Tuple[Device, Packet]],
        vantage: Device,
        inbox: List[Packet],
        trace: DeliveryTrace,
        home: Optional["ColumnarFib"],
    ) -> None:
        """The fast path's ICMPv6 error step: ``device`` answers
        ``invoking`` with the error ``kind`` (:data:`TIME_EXCEEDED`,
        :data:`ADDR_UNREACHABLE` or :data:`NO_ROUTE`) and sends it on.

        ``_make_error`` decides whether there is an error at all — never
        one about an error (RFC 4443 §2.4(e)), the device's limiter drawn
        under the current clock, a device's own filter
        (``IspRouter.drop_external_errors``).  One that is raised is
        finished by ``home``'s return plan when a FIB is given and nothing
        else is in flight, else routed out of ``device`` onto ``queue``
        for the walk.  :meth:`_drain` and the columnar replay, which
        settles an ejected lane from its vector-phase verdict, both end an
        error here.
        """
        error = device._make_error(invoking, kind[0], kind[1], self)
        if error is None:
            return
        trace.errors_generated += 1
        if queue or home is None or not home.send_home(
            self, device, error, vantage, inbox, trace
        ):
            self._originate(device, error, queue, trace)

    def inject_block(self, block, vantage: Device,
                     clocks: Optional[List[float]] = None):
        """Inject a chunk of probes, returning one ``inject`` result each.

        ``block`` is a list of packets or a chunk of lanes whose packets
        are not built yet (:class:`repro.net.columnar.Probes`); ``len()`` of
        it is the probe count and the result iterates as ``(inbox,
        DeliveryTrace)`` pairs.  Observably identical to calling
        :meth:`inject` per packet with ``self.clock`` set to the matching
        ``clocks`` entry first (the entry clock is restored afterwards).
        Probes of a block long enough to repay the vector phase
        (:data:`repro.net.columnar.VECTOR_MIN_PROBES`), on a network where
        it is usable (numpy present, :meth:`hops_unobserved`, up to the
        first send a fault transition is due at), advanced through their
        pure forwarding hops as struct-of-arrays vector ops when the block
        was pulled and only eject to the scalar engine for stateful work;
        otherwise this is literally the sequential loop.  A routing loop is O(1) either way: lanes leave
        one by the vector phase's fast-forward, a scalar ``inject`` by
        :meth:`_drain`'s exit (:func:`loop_exit`).
        """
        from repro.net import columnar

        return columnar.inject_block(self, block, vantage, clocks)

    def columnar_fib(self):
        """The cached columnar FIB for the current topology generation.

        Recompiled lazily whenever ``generation`` moved — a device, a
        binding or any registered device's route changed — the stamp the
        per-device flow caches compare too.
        """
        fib = self._columnar_fib
        if fib is None or not fib.valid(self):
            from repro.net import columnar

            fib = columnar.ColumnarFib.compile(self)
            self._columnar_fib = fib
        return fib

    def _apply(
        self,
        device: Device,
        result: ReceiveResult,
        queue: Deque[Tuple[Device, Packet]],
        trace: DeliveryTrace,
    ) -> None:
        for reply in result.replies:
            trace.errors_generated += 1
            self._originate(device, reply, queue, trace)
        if result.forward is not None:
            next_addr, packet = result.forward
            self._hop(device, next_addr, packet, queue, trace)

    def _originate(
        self,
        device: Device,
        packet: Packet,
        queue: Deque[Tuple[Device, Packet]],
        trace: DeliveryTrace,
    ) -> None:
        """Route a self-originated packet out of ``device``."""
        if packet.dst in device.addresses:
            queue.append((device, packet))
            return
        if device.forwards:
            route = device.table.lookup(packet.dst)
            if route is None:
                trace.drops += 1
                return
            if route.kind is RouteKind.UNREACHABLE:
                trace.drops += 1
                return
            if route.kind is RouteKind.BLACKHOLE:
                return  # silent discard, as in ``_forward``
            next_addr = (
                packet.dst if route.kind is RouteKind.CONNECTED else route.next_hop
            )
            assert next_addr is not None
            self._hop(device, next_addr, packet, queue, trace)
            return
        gateway = device.gateway
        if gateway is None:
            trace.drops += 1
            return
        self._enqueue(device, gateway, packet, queue, trace)

    def _hop(
        self,
        device: Device,
        next_addr: IPv6Addr,
        packet: Packet,
        queue: Deque[Tuple[Device, Packet]],
        trace: DeliveryTrace,
    ) -> None:
        next_device = self._addr_owner.get(next_addr.value)
        if next_device is None:
            trace.drops += 1  # next hop fell off the topology: blackhole
            if self.active_trace is not None:
                self.active_trace.add(
                    "drop", self.clock, device=device.name,
                    reason="unresolvable-next-hop", next_hop=str(next_addr),
                )
            return
        self._enqueue(device, next_device, packet, queue, trace)

    def _enqueue(
        self,
        src: Device,
        dst: Device,
        packet: Packet,
        queue: Deque[Tuple[Device, Packet]],
        trace: DeliveryTrace,
    ) -> None:
        if self.loss_rate and self.rng.random() < self.loss_rate:
            trace.drops += 1
            if self.active_trace is not None:
                self.active_trace.add(
                    "loss", self.clock, src=src.name, dst=dst.name,
                )
            return
        if self.link_loss:
            rate = self.link_loss.get((src.name, dst.name))
            if rate is None:
                rate = self.link_loss.get(None)
            if rate is not None and self.fault_rng.random() < rate:  # type: ignore[union-attr]
                trace.drops += 1
                self.fault_drops += 1
                if self.active_trace is not None:
                    self.active_trace.add(
                        "fault_loss", self.clock, src=src.name, dst=dst.name,
                    )
                return
        if self.record_links:
            link = Link(src.name, dst.name)
            trace.link_counts[link] = trace.link_counts.get(link, 0) + 1
        trace.hops += 1
        self.total_hops += 1
        if self.active_trace is not None:
            self.active_trace.add(
                "hop", self.clock, device=dst.name, via=src.name,
                dst=str(packet.dst), hop_limit=packet.hop_limit,
            )
        queue.append((dst, packet))
