"""Longest-prefix-match IPv6 routing tables.

The routing table is a binary trie keyed on prefix bits.  It supports the
three route kinds the paper's threat model distinguishes (§VI, Figure 4):

* ``CONNECTED`` — deliver locally / on-link (the destination subnet is
  attached to this device);
* ``NEXT_HOP``  — forward to another device's address;
* ``UNREACHABLE`` — a null/discard route.  The paper's mitigation ("the CPE
  router should add an unreachable route for the unused prefix", RFC 7084
  requirement) is exactly the presence of this route kind; its *absence* on
  delegated-but-unassigned space is the routing-loop vulnerability.

Lookups return the most specific matching route, so a CPE with a default
route to its ISP and no covering route for a not-used LAN sub-prefix will
bounce packets for that sub-prefix back upstream — the behaviour the
routing-loop attack exploits.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional

from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.lpm import PrefixTrie


class RouteKind(Enum):
    CONNECTED = "connected"
    NEXT_HOP = "next-hop"
    #: Discard and report: the router drops the packet and sends an ICMPv6
    #: Destination Unreachable (the "unreachable route" of RFC 7084 / §VII).
    UNREACHABLE = "unreachable"
    #: Discard silently: models operators that null-route aggregates or
    #: filter outbound ICMPv6 errors (the paper's §IV-C limitation).
    BLACKHOLE = "blackhole"


@dataclass(frozen=True)
class Route:
    """A single forwarding entry."""

    prefix: IPv6Prefix
    kind: RouteKind
    next_hop: Optional[IPv6Addr] = None
    interface: str = ""

    def __post_init__(self) -> None:
        if self.kind is RouteKind.NEXT_HOP and self.next_hop is None:
            raise ValueError("NEXT_HOP route requires a next_hop address")

    def __str__(self) -> str:
        if self.kind is RouteKind.NEXT_HOP:
            return f"{self.prefix} via {self.next_hop}"
        if self.kind is RouteKind.CONNECTED:
            return f"{self.prefix} dev {self.interface or 'local'}"
        return f"{self.prefix} unreachable"


class BaseRoutingTable(ABC):
    """Interface shared by the trie and hash LPM implementations."""

    #: The networks the table's device is registered in
    #: (``Network.register`` adds one), each of whose ``generation`` every
    #: ``add``/``remove`` bumps, so every cache built from the topology
    #: detects staleness with one integer comparison.  Weak references: a
    #: network holds its devices, and the edge back must not keep a
    #: dropped world alive until the cycle collector runs.
    networks: List[weakref.ReferenceType]

    def _edited(self) -> None:
        for ref in self.networks:
            network = ref()
            if network is not None:
                network.generation += 1

    @abstractmethod
    def add(self, route: Route) -> None: ...

    @abstractmethod
    def remove(self, prefix: IPv6Prefix) -> bool: ...

    @abstractmethod
    def lookup(self, addr: IPv6Addr | int) -> Optional[Route]: ...

    @abstractmethod
    def routes(self) -> Iterator[Route]: ...

    @abstractmethod
    def __len__(self) -> int: ...

    def has_specific_within_slash64(self, key: int) -> bool:
        """Any route longer than /64 whose prefix lies inside this /64?

        ``key`` is the /64 network value right-shifted by 64.  The flow
        cache may serve a whole /64 of destinations from one entry only
        when no more-specific route could override the cached decision for
        *some* address of that /64; this is the guard.  Generic O(routes)
        implementation; the hash table overrides it with a per-length probe.
        """
        for route in self.routes():
            if route.prefix.length > 64 and (route.prefix.network >> 64) == key:
                return True
        return False

    def add_connected(self, prefix: IPv6Prefix, interface: str = "") -> None:
        self.add(Route(prefix, RouteKind.CONNECTED, interface=interface))

    def add_next_hop(self, prefix: IPv6Prefix, next_hop: IPv6Addr) -> None:
        self.add(Route(prefix, RouteKind.NEXT_HOP, next_hop=next_hop))

    def add_unreachable(self, prefix: IPv6Prefix) -> None:
        self.add(Route(prefix, RouteKind.UNREACHABLE))

    def add_blackhole(self, prefix: IPv6Prefix) -> None:
        self.add(Route(prefix, RouteKind.BLACKHOLE))

    def add_default(self, next_hop: IPv6Addr) -> None:
        self.add_next_hop(IPv6Prefix(0, 0), next_hop)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in sorted(
            self.routes(), key=lambda r: (r.prefix.network, r.prefix.length)
        ))


class RoutingTable(BaseRoutingTable):
    """A binary-trie forwarding table with longest-prefix-match lookup.

    The trie walk itself lives in :class:`repro.net.lpm.PrefixTrie`, shared
    with the blocklist and BGP-attribution tables; this class adds the
    route semantics (replacement, generation bumps) on top.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[Route] = PrefixTrie()
        self.networks = []

    def add(self, route: Route) -> None:
        """Insert a route, replacing any existing route for the same prefix."""
        self._trie.set(route.prefix, route)
        self._edited()

    def remove(self, prefix: IPv6Prefix) -> bool:
        """Remove the route for an exact prefix.  Returns True if removed."""
        if not self._trie.delete(prefix):
            return False
        self._edited()
        return True

    def lookup(self, addr: IPv6Addr | int) -> Optional[Route]:
        """The most specific route covering ``addr``, or None."""
        entry = self._trie.longest(addr)
        return None if entry is None else entry[1]

    def routes(self) -> Iterator[Route]:
        """All routes, in trie (prefix-ordered) traversal order."""
        for _prefix, route in self._trie.items():
            yield route

    def __len__(self) -> int:
        return len(self._trie)


class HashRoutingTable(BaseRoutingTable):
    """A length-bucketed hash LPM table.

    Routes are grouped by prefix length into ``{network_int: Route}`` dicts;
    lookup masks the address at each present length, longest first.  Real
    deployments have very few distinct prefix lengths per device (a CPE has
    /128 + /64 + /60 + /0; an ISP access router has /64 + /60 + /32), so
    lookups cost O(distinct lengths) dict probes, and memory is one dict
    entry per route — far lighter than a trie when the simulator instantiates
    tens of thousands of CPE tables.

    The unit tests cross-validate this implementation against the trie on
    randomly generated route sets.
    """

    def __init__(self) -> None:
        self._by_length: Dict[int, Dict[int, Route]] = {}
        self._lengths_desc: List[int] = []
        self.networks = []

    def add(self, route: Route) -> None:
        length = route.prefix.length
        bucket = self._by_length.get(length)
        if bucket is None:
            bucket = self._by_length[length] = {}
            self._lengths_desc = sorted(self._by_length, reverse=True)
        bucket[route.prefix.network] = route
        self._edited()

    def remove(self, prefix: IPv6Prefix) -> bool:
        bucket = self._by_length.get(prefix.length)
        if bucket is None or prefix.network not in bucket:
            return False
        del bucket[prefix.network]
        if not bucket:
            del self._by_length[prefix.length]
            self._lengths_desc = sorted(self._by_length, reverse=True)
        self._edited()
        return True

    def lookup(self, addr: IPv6Addr | int) -> Optional[Route]:
        value = addr.value if isinstance(addr, IPv6Addr) else addr
        for length in self._lengths_desc:
            masked = value >> (128 - length) << (128 - length) if length else 0
            route = self._by_length[length].get(masked)
            if route is not None:
                return route
        return None

    def routes(self) -> Iterator[Route]:
        for bucket in self._by_length.values():
            yield from bucket.values()

    def has_specific_within_slash64(self, key: int) -> bool:
        """Probe only the longer-than-/64 length buckets (usually none)."""
        for length in self._lengths_desc:
            if length <= 64:
                break
            for network in self._by_length[length]:
                if (network >> 64) == key:
                    return True
        return False

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_length.values())
