"""Control-plane chaos as data: leak / hijack / flap / failover knobs.

A scenario is a frozen, picklable description of one BGP incident.
:func:`compute_delta` re-runs the :mod:`repro.bgp.solver` for exactly the
prefixes the incident can move (incremental reconvergence), recompiles the
affected forwarding rows, and diffs them against the fabric's installed
baseline — yielding a :class:`TableDelta` of per-device route operations.

The delta does **not** mutate the network.  It compiles into a
:class:`repro.faults.FaultSchedule` (:meth:`TableDelta.to_fault_schedule`)
so the incident is applied and reverted mid-scan through the same
virtual-clock fault journal every other chaos kind uses: ``route-set``
events re-home routes, ``route-flap`` events withdraw them, and a hijack
optionally ``blackhole``\\ s captured traffic at the hijacker's edge.

Scenarios:

* :class:`RouteLeak` — ``leaker`` re-exports its best route learned from
  ``from_as`` to ``to_as`` as if it were a customer route; customer
  preference then pulls ``to_as``'s traffic through the leaker (the
  classic valley violation);
* :class:`PrefixHijack` — ``hijacker`` originates ``prefix`` (typically a
  more-specific inside a victim's block); longest-prefix-match diverts
  exactly that slice of the delegation set;
* :class:`SessionFlap` — one eBGP session goes down; every path that used
  it reconverges, and ASes default-homed on it re-home (or lose their
  default entirely when single-homed);
* :class:`Failover` — flap of ``asn``'s primary provider session, the
  multi-homed-CPE-edge drill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.bgp.fabric import BgpFabric, FabricError
from repro.bgp.solver import LeakSpec, Rib
from repro.faults import BLACKHOLE, ROUTE_FLAP, ROUTE_SET, FaultEvent, FaultSchedule
from repro.net.addr import IPv6Prefix
from repro.net.routing import RouteKind


@dataclass(frozen=True)
class RouteLeak:
    leaker: int
    from_as: int
    to_as: int
    #: Prefix strings to leak (None = everything heard from ``from_as``).
    prefixes: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class PrefixHijack:
    hijacker: int
    prefix: str
    #: Sink captured traffic at the hijacker's edge router (otherwise it
    #: falls through the hijacker's default — a leak-like detour).
    blackhole: bool = True


@dataclass(frozen=True)
class SessionFlap:
    a: int
    b: int


@dataclass(frozen=True)
class Failover:
    asn: int


Scenario = Union[RouteLeak, PrefixHijack, SessionFlap, Failover]


@dataclass(frozen=True)
class RouteOp:
    """One forwarding-table operation on one device."""

    device: str
    prefix: str
    action: str  # "set" | "withdraw" | "blackhole"
    next_hop: Optional[str] = None


@dataclass
class TableDelta:
    """The per-device diff a scenario produces, plus the after-RIB."""

    scenario: Scenario
    ops: Tuple[RouteOp, ...]
    #: Prefixes the solver re-ran (the incident's blast radius).
    dirty: Tuple[IPv6Prefix, ...]
    #: The merged RIB with the scenario active (tracked ASes only).
    rib_after: Rib

    def devices(self) -> Tuple[str, ...]:
        return tuple(sorted({op.device for op in self.ops}))

    def to_fault_schedule(
        self, start: float, end: float, seed: int = 0
    ) -> FaultSchedule:
        """The delta as virtual-clock fault events over ``[start, end)``."""
        events = []
        for op in self.ops:
            if op.action == "set":
                events.append(FaultEvent(
                    kind=ROUTE_SET, start=start, end=end,
                    device=op.device, prefix=op.prefix, next_hop=op.next_hop,
                ))
            elif op.action == "withdraw":
                events.append(FaultEvent(
                    kind=ROUTE_FLAP, start=start, end=end,
                    device=op.device, prefix=op.prefix,
                ))
            else:
                events.append(FaultEvent(
                    kind=BLACKHOLE, start=start, end=end,
                    device=op.device, prefix=op.prefix,
                ))
        return FaultSchedule(events=tuple(events), seed=seed)

    def summary(self) -> str:
        kinds: Dict[str, int] = {}
        for op in self.ops:
            kinds[op.action] = kinds.get(op.action, 0) + 1
        parts = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return (
            f"{type(self.scenario).__name__}: {len(self.dirty)} prefix(es) "
            f"reconverged, {len(self.ops)} route op(s) on "
            f"{len(self.devices())} device(s) ({parts or 'no-op'})"
        )


def _paths_using_session(rib: Rib, key: Tuple[int, int]) -> Set[IPv6Prefix]:
    """Prefixes whose current best path crosses the (a, b) adjacency."""
    a, b = key
    dirty: Set[IPv6Prefix] = set()
    for asn, entries in rib.items():
        for prefix, route in entries.items():
            if prefix in dirty:
                continue
            hops = (asn,) + route.path
            for u, v in zip(hops, hops[1:]):
                if (min(u, v), max(u, v)) == key:
                    dirty.add(prefix)
                    break
    return dirty


def compute_delta(fabric: BgpFabric, scenario: Scenario) -> TableDelta:
    """Reconverge the fabric under ``scenario`` and diff the FIBs."""
    if not fabric.compiled or fabric.topology is None:
        raise FabricError("compute_delta needs a compiled fabric")

    if isinstance(scenario, Failover):
        session = fabric.default_session(scenario.asn)
        if session is None:
            raise FabricError(
                f"AS{scenario.asn} has no provider session to fail over from"
            )
        flap = SessionFlap(session.a, session.b)
        delta = compute_delta(fabric, flap)
        return TableDelta(
            scenario=scenario, ops=delta.ops, dirty=delta.dirty,
            rib_after=delta.rib_after,
        )

    topo = fabric.topology
    announcements = dict(fabric.announcements)
    exclude: Tuple[Tuple[int, int], ...] = ()
    leaks: Tuple[LeakSpec, ...] = ()
    extra_ops: List[RouteOp] = []

    if isinstance(scenario, SessionFlap):
        key = (min(scenario.a, scenario.b), max(scenario.a, scenario.b))
        if key not in fabric.sessions:
            raise FabricError(
                f"no session between AS{scenario.a} and AS{scenario.b}"
            )
        topo = topo.without_session(*key)
        exclude = (key,)
        dirty = _paths_using_session(fabric.rib, key)
    elif isinstance(scenario, RouteLeak):
        prefixes = (
            None if scenario.prefixes is None
            else tuple(IPv6Prefix.from_string(p) for p in scenario.prefixes)
        )
        leaks = (LeakSpec(
            leaker=scenario.leaker, from_as=scenario.from_as,
            to_as=scenario.to_as, prefixes=prefixes,
        ),)
        dirty = set(prefixes) if prefixes is not None else set(announcements)
    elif isinstance(scenario, PrefixHijack):
        prefix = IPv6Prefix.from_string(scenario.prefix)
        origins = announcements.get(prefix, ())
        if scenario.hijacker not in fabric.ases:
            raise FabricError(f"hijacker AS{scenario.hijacker} not declared")
        announcements[prefix] = tuple(sorted(
            set(origins) | {scenario.hijacker}
        ))
        dirty = {prefix}
        if scenario.blackhole:
            hijacker = fabric.ases[scenario.hijacker]
            device = (
                hijacker.router_name if not hijacker.managed
                else hijacker.device_name(hijacker.routers[0])
            )
            if device is not None:
                extra_ops.append(RouteOp(
                    device=device, prefix=str(prefix), action="blackhole",
                ))
    else:
        raise FabricError(f"unknown scenario {scenario!r}")

    dirty_list = sorted(dirty, key=lambda p: (p.network, p.length))
    partial = fabric.solver.solve(
        topo, announcements, leaks=leaks, prefixes=dirty_list,
    )

    # Merge: dirty prefixes are replaced wholesale (a dirty prefix missing
    # from the partial solve means that AS lost its route entirely).
    dirty_set = set(dirty_list)
    rib_after: Rib = {}
    for asn, entries in fabric.rib.items():
        rib_after[asn] = {
            p: r for p, r in entries.items() if p not in dirty_set
        }
    for asn, entries in partial.items():
        rib_after.setdefault(asn, {}).update(entries)

    fib_after = fabric.fib_snapshot(rib_after, exclude_sessions=exclude)

    ops = list(extra_ops)
    for device in sorted(set(fabric.fib) | set(fib_after)):
        before = fabric.fib.get(device, {})
        after = fib_after.get(device, {})
        for prefix in before:
            if prefix not in after:
                ops.append(RouteOp(
                    device=device, prefix=str(prefix), action="withdraw",
                ))
        for prefix, route in after.items():
            if before.get(prefix) == route:
                continue
            if route.kind is RouteKind.NEXT_HOP:
                ops.append(RouteOp(
                    device=device, prefix=str(prefix), action="set",
                    next_hop=str(route.next_hop),
                ))
            elif route.kind is RouteKind.BLACKHOLE:
                ops.append(RouteOp(
                    device=device, prefix=str(prefix), action="blackhole",
                ))
    ops.sort(key=lambda op: (op.device, op.prefix, op.action))

    return TableDelta(
        scenario=scenario, ops=tuple(ops), dirty=tuple(dirty_list),
        rib_after=rib_after,
    )
