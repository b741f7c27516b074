"""Columnar (struct-of-arrays) forwarding engine.

The scalar engine in :mod:`repro.net.network` forwards one python object
per probe per hop; after PR 3 vectorised address generation and response
validation, that loop is the campaign's hot path.  This module compiles the
topology's routing state into numpy columns and advances an entire probe
block one hop at a time with masked vector operations, while keeping the
scalar engine as the bit-identical oracle.

The design splits every injection into two phases:

* a **vector phase** that advances all lanes (one lane per probe) through
  *pure* forwarding hops only — base-semantics routers resolving a
  ``NEXT_HOP`` route with hop limit left to burn.  Those hops touch no
  mutable state in the scalar engine either (no RNG, no NDP cache, no rate
  limiter, no clock), so they can be taken out of order, en masse and
  *early*: the scanner forwards a whole target block when it pulls it
  (:class:`Lanes`), from the destinations and the probe module's declared
  hop limit alone, before any packet exists;
* a **scalar replay phase**, per chunk (:func:`inject_block`), that finishes
  each lane *in probe order*.  A chunk is runs of a block's lanes
  (:class:`Probes`): a silent lane's hops and drops are taken with the
  run's columns and cost no Python; one that ejected gets its
  :class:`Packet` built and its stateful step run at its ejection point.
  Everything stateful — NDP resolution, ICMPv6 error
  synthesis and its token-bucket limiter, subclass forwarding hooks (loop
  mitigation counters), TCP ISN draws from the topology RNG — runs through
  the exact scalar code, under the exact virtual clock the scalar engine
  would have used.

A lane **ejects** from the vector phase whenever the next step *could*
observe or mutate state, and leaves with the reason as its status: delivery
to the destination's owner or a device with an overridden ``_forward``
(``_EJECT``: the replay re-enters the real engine, :meth:`Network._drain`,
at the ejection device with the ejection hop limit), or one of the three
ICMPv6 error steps — a route miss / unreachable route (``_NO_ROUTE``),
hop-limit exhaustion (``_SPENT``), an on-link ``CONNECTED`` match
(``_ON_LINK``).  An error lane is settled from that verdict: NDP
``resolve`` for an on-link one (a success goes on into ``_drain`` at the
owner), then :meth:`Network._error` — ``_make_error``, with its RFC 4443
§2.4(e) check, the limiter draw under the lane's clock and any device
filter, and the return plan below — the same helper ``_drain``'s fast path
ends its errors in, with no flow-cache lookup, no queue and no drain.
What the replay trusts is the ejection hop's route verdict: it was read
off the FIB the lanes were forwarded under, which is re-checked against the
network at every chunk (a FIB that is no longer the network's is never
replayed, below) — the argument the return plans rest on too.

Nor does the replay re-implement the way home; it skips walking it.  The
ICMPv6 error the stateful step raises is finished by a **return plan**
(:meth:`ColumnarFib.send_home`), read once per (origin device, error
destination) off the same tables the scalar walk would consult.  The plan
trusts two things: the tables cannot move while this FIB is the network's
(the stamp below), and an error is never answered with an error (RFC 4443
§2.4(e)), so the walk home draws on no limiter, RNG or counter — it is
pure but for each on-link hop's NDP ``resolve``, which the plan still runs,
live, in path order and under the lane's clock.  Anything else on the path
— a device with its own forwarding or error code, a possible ``max_hops``
overrun — sends the error down the walk as before.

Routing state is compiled once per topology **generation** into a
:class:`ColumnarFib`: one globally shared hash table per prefix length
(longest first), keyed by one hash of (device index, masked prefix) and
masked by the devices that have a route of that length, with verification
columns so hash collisions degrade to a miss check instead of a wrong
answer.  Its stamp is the one the per-device flow caches compare too:
``Network.generation``, which every register / unregister / bind and every
``add`` / ``remove`` on a registered device's table bumps — one comparison,
however many devices there are.

Which engine a block takes is decided here and nowhere else, from what
the code can observe.  At the pull: a block shorter than
:data:`VECTOR_MIN_PROBES`, no numpy, anything
:meth:`Network.hops_unobserved` lists (the reference engine, a trace span,
a loss model, link recording) or an uncompilable table leave it
unforwarded, and its probes go down per-probe :meth:`Network.inject`.  At
each chunk, again: a network that is not usable *now* takes the sequential
scalar loop whatever lanes exist; a fault transition due by the chunk's
last send, which must fire inside ``inject`` at its clock, sends the
probes from the first one it is due at on down that loop, after the lanes
before it are replayed; and lanes whose FIB is no longer the network's (a
route edit, a rotation, a fault swap since the pull) are dropped and what
is left of their block forwarded afresh — nothing stale is ever replayed.
Identical observables on every path.

**Rows.**  Everything the paper harvests is an ICMPv6 error, so an error
lane of a chunk whose caller takes errors as rows (:class:`Probes`
``source``: the scanner, for a probe module with a row check) is settled
without a packet at all when its error would go home by a return plan:
the limiter draw and the NDP ``resolve``s run on the lane's fields, in
probe order, under its clock, and what arrives is a row on
:class:`Outcomes` — the responder, the quoted target, the type, the code
and the hop limits.  Delivery and hook lanes, a refused plan, a device
with its own error code, and every chunk of a caller without ``source``
keep their packets.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Tuple

from repro.net.addr import IPv6Addr
from repro.net.device import Device, IspRouter
from repro.net.ndp import resolve
from repro.net.network import (
    ADDR_UNREACHABLE,
    NO_ROUTE,
    TIME_EXCEEDED,
    DeliveryTrace,
    NetworkError,
)
from repro.net.packet import MAX_HOP_LIMIT, icmpv6_error
from repro.net.routing import RouteKind

try:  # optional acceleration; sequential scalar fallback otherwise
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.net.packet import Packet

__all__ = ["ColumnarFib", "Lanes", "Outcomes", "Probes", "destinations",
           "inject_block"]

_M64 = 0xFFFFFFFFFFFFFFFF

#: Shortest block worth the vector phase.  Setting up the lanes and walking
#: the per-length tables costs a fixed few hundred microseconds per block,
#: which only pays once enough lanes share it.  Measured on the e2e sweep
#: shapes, warm, target blocks of N (scan seconds with the phase ÷ without,
#: two readings): on the miss-heavy periphery blocks 1.5 at 8, 1.3 at 16,
#: 0.96-1.09 at 32, 0.87 at 48, 0.86-0.96 at 64, 0.5-0.7 at 256; on the
#: loop-dense ones 1.5-1.6 at 32, 1.1-1.2 at 64, 0.8-0.9 at 128, 0.6 at 256.
#: The loop-dense crossover sat at 16 while the scalar engine walked its
#: loops; a loop is O(1) there too now (``network.loop_exit``), so a short
#: loop-dense block is cheaper scalar than this set-up and both crossovers
#: sit near the constant — which is why ``admission_burst``'s sub-64 looping
#: windows no longer argue for a lower one (EXPERIMENTS.md, "Vector phase
#: by block length").  The one-hash lookup and the return plans moved both
#: crossovers down again (periphery 16-32, loop-dense 32-64); whether that
#: argues for a lower constant is for ``admission_burst`` to show.
VECTOR_MIN_PROBES = 64

# -- FIB action codes (one int8 per compiled route) --------------------------
#: No route matched at any length (equivalent to an UNREACHABLE route).
A_MISS = 0
#: Resolved NEXT_HOP: advance the lane to the compiled next-device index.
A_NEXT_HOP = 1
#: On-link CONNECTED match: eject (NDP resolution is stateful).
A_CONNECTED = 2
#: Unreachable route: eject (ICMPv6 no-route synthesis is rate limited).
A_UNREACHABLE = 3
#: Blackhole route: silent discard.
A_BLACKHOLE = 4
#: NEXT_HOP whose next hop no longer owns an address (churn blackhole).
A_UNRESOLVED = 5

# -- lane status codes -------------------------------------------------------
_ACTIVE = 0  # still advancing through pure vector hops
_SILENT = 1  # terminated with no observable left to produce
_EJECT = 2  # finish via scalar replay from (cur device, current hop limit)
_ORIGIN = 3  # replay the whole injection (the lane was not forwarded)
_OVERRUN = 4  # took more than ``max_hops`` hops: the replay raises
# An ejection whose verdict is an ICMPv6 error step at ``cur``, settled by
# the replay from the verdict itself (:func:`inject_block`):
_NO_ROUTE = 5  # no route or an unreachable one: Destination Unreachable
_SPENT = 6  # a route, but the hop limit is spent: Time Exceeded
_ON_LINK = 7  # on-link match: NDP decides, address-unreachable if it fails
#: The error each verdict raises; ``_ON_LINK``'s only when NDP fails.
_ERRORS = {_NO_ROUTE: NO_ROUTE, _SPENT: TIME_EXCEEDED,
           _ON_LINK: ADDR_UNREACHABLE}
#: The same, as the plain ``(type, code)`` ints of a row.
_ROW_ERRORS = {status: (int(error_type), code)
               for status, (error_type, code) in _ERRORS.items()}

#: Hash-seed attempts for each per-length table before giving up on the
#: whole compile (``ok=False`` → scalar fallback).  A seed is the pair of
#: odd multipliers ``(K₁, K₂)`` of the key ``hi ^ dev·K₁ ^ lo·K₂``.
#: Collisions across a few thousand 64-bit keys are already ~never; eight
#: seeds make the retry path deterministic rather than probabilistic.
_SEEDS = tuple(
    ((0x9E3779B97F4A7C15 + k * 0x100000001B3) & _M64 | 1,
     (0xC2B2AE3D27D4EB4F + k * 0x165667B19E3779F9) & _M64 | 1)
    for k in range(8)
)
#: The owner table's seeds (:meth:`ColumnarFib.owner_of`): the same pairs,
#: its own, since it keys whole addresses and not (device, prefix).
_OWNER_SEEDS = _SEEDS


def _finalize(z):  # splitmix64 finalizer on uint64 arrays (wrapping)
    z = z + _np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return z ^ (z >> _np.uint64(31))


class _LengthTable:
    """All routes of one prefix length, across every device, sorted by key.

    A key is one splitmix64 finaliser over ``hi ^ dev·K₁ ^ lo·K₂`` (no
    ``lo`` term at /64 and shorter, where it is zero).  ``searchsorted``
    gives the candidate row and the ``dev``/``hi``/``lo`` verification
    columns decide: compile rejects seeds that collide between *stored*
    keys, so a query's genuine entry, if there is one, is the row it lands
    on, and any other row fails the columns — a collision is a miss at this
    length, never a wrong answer.  A sentinel row of the largest key (and a
    device index no device has) keeps every ``searchsorted`` in range.
    ``has`` marks the devices with a route of this length: a lane at any
    other device skips the table without hashing.
    """

    __slots__ = (
        "length", "wide", "seed", "k_dev", "k_lo", "mask_hi", "mask_lo",
        "has", "keys", "dev", "hi", "lo", "action", "nxt",
    )

    def __init__(self, length: int, entries, n_devices: int,
                 seeds=None) -> None:
        # entries: list of (dev_idx, masked_hi, masked_lo, action, nxt)
        self.length = length
        self.wide = length > 64
        if length == 0:
            self.mask_hi = _np.uint64(0)
            self.mask_lo = _np.uint64(0)
        elif length <= 64:
            self.mask_hi = _np.uint64((_M64 << (64 - length)) & _M64)
            self.mask_lo = _np.uint64(0)
        else:
            self.mask_hi = _np.uint64(_M64)
            self.mask_lo = _np.uint64((_M64 << (128 - length)) & _M64)
        dev = _np.array([e[0] for e in entries], dtype=_np.uint64)
        hi = _np.array([e[1] for e in entries], dtype=_np.uint64)
        lo = _np.array([e[2] for e in entries], dtype=_np.uint64)
        self.has = _np.zeros(n_devices, dtype=bool)
        self.has[dev.astype(_np.int64)] = True
        self.seed = None
        for seed in _SEEDS if seeds is None else seeds:
            self.k_dev, self.k_lo = _np.uint64(seed[0]), _np.uint64(seed[1])
            keys = self.key(dev, hi, lo)
            order = _np.argsort(keys)
            keys = keys[order]
            if not bool((keys[1:] == keys[:-1]).any()):
                self.seed = seed
                break
        if self.seed is None:
            self.keys = None  # signals compile failure to ColumnarFib
            return

        def column(values, dtype, sentinel):
            return _np.append(_np.asarray(values, dtype=dtype)[order],
                              _np.array([sentinel], dtype=dtype))

        self.keys = _np.append(keys, _np.uint64(_M64))
        self.dev = column(dev, _np.uint64, _M64)
        self.hi = column(hi, _np.uint64, 0)
        self.lo = column(lo, _np.uint64, 0)
        self.action = column([e[3] for e in entries], _np.int8, A_MISS)
        self.nxt = column([e[4] for e in entries], _np.int64, -1)

    def key(self, dev, hi, lo):
        """Hash of (device index, masked prefix) columns under this seed."""
        z = hi ^ (dev * self.k_dev)
        if self.wide:
            z ^= lo * self.k_lo
        return _finalize(z)


class ColumnarFib:
    """Every device routing table, compiled to struct-of-arrays columns.

    Carries the ``generation`` it was compiled under; :meth:`valid`
    re-checks it so route churn, prefix rotation, and fault-injected route
    swaps invalidate the compile as they flush the per-device flow caches.
    """

    def __init__(self, network: "Network") -> None:
        self.devices: List["Device"] = list(network.devices.values())
        self.index: Dict[int, int] = {
            id(d): i for i, d in enumerate(self.devices)
        }
        self.generation = network.generation
        #: Return plans by (origin device, error destination value), each
        #: one of the interned ``_plans`` — or False: walk that one home.
        self._homes: Dict[Tuple["Device", int], object] = {}
        self._plans: Dict[tuple, tuple] = {}
        self.ok = _np is not None
        if not self.ok:  # pragma: no cover - numpy is present in CI images
            return
        self.forwards = _np.array(
            [d.forwards for d in self.devices], dtype=bool
        )
        self.flow_safe = _np.array(
            [d.forwards and d.flow_forward_safe for d in self.devices],
            dtype=bool,
        )
        # The vector phase decides local delivery from the network's
        # address-owner map; a device owning an address the network never
        # bound would make that decision diverge from the scalar engine's
        # ``dst in device.addresses`` check, so such topologies fall back.
        owner_map = network._addr_owner
        for device in self.devices:
            for addr in device.addresses:
                if owner_map.get(addr.value) is not device:
                    self.ok = False
                    return
        # Who owns an address, as one exact vector lookup: every owned
        # address is a /128 route of one table (device column 0) whose
        # ``nxt`` is the index of the device that owns it.
        owned = []
        for value, device in owner_map.items():
            owner = self.index.get(id(device))
            if owner is None:  # bound but never registered
                self.ok = False
                return
            owned.append((0, value >> 64, value & _M64, A_NEXT_HOP, owner))
        self._owners = _LengthTable(128, owned, 1, _OWNER_SEEDS)
        if self._owners.keys is None:  # pragma: no cover - 8 seeds collided
            self.ok = False
            return
        by_length: Dict[int, list] = {}
        for dev_idx, device in enumerate(self.devices):
            if not device.forwards:
                continue
            for route in device.table.routes():
                length = route.prefix.length
                value = route.prefix.network
                hi = (value >> 64) & _M64
                lo = value & _M64
                if length == 0:
                    hi = lo = 0
                elif length <= 64:
                    hi &= (_M64 << (64 - length)) & _M64
                    lo = 0
                else:
                    lo &= (_M64 << (128 - length)) & _M64
                nxt = -1
                if route.kind is RouteKind.UNREACHABLE:
                    action = A_UNREACHABLE
                elif route.kind is RouteKind.BLACKHOLE:
                    action = A_BLACKHOLE
                elif route.kind is RouteKind.CONNECTED:
                    action = A_CONNECTED
                else:
                    # Resolve the next-hop device at compile time: any
                    # register/unregister/bind bumps the generation and
                    # forces a recompile, so the resolution cannot go stale.
                    next_device = network.device_at(route.next_hop)
                    if next_device is None:
                        action = A_UNRESOLVED
                    else:
                        action = A_NEXT_HOP
                        nxt = self.index[id(next_device)]
                by_length.setdefault(length, []).append(
                    (dev_idx, hi, lo, action, nxt)
                )
        self._tables: List[_LengthTable] = []
        for length in sorted(by_length, reverse=True):
            table = _LengthTable(length, by_length[length],
                                 len(self.devices))
            if table.keys is None:  # pragma: no cover - 8 seeds all collided
                self.ok = False
                return
            self._tables.append(table)

    @classmethod
    def compile(cls, network: "Network") -> "ColumnarFib":
        return cls(network)

    def valid(self, network: "Network") -> bool:
        """Still compiled for the network's current tables?  O(1): any
        register/unregister/bind and any ``add``/``remove`` on a registered
        device's table — even one later reverted — moves ``generation``."""
        return network.generation == self.generation

    def owner_of(self, dst_hi, dst_lo):
        """Index of the device that owns each address of the uint64 word
        columns, -1 where no device does.  Exact for every 128-bit value:
        the key only picks the candidate row, its verification columns
        decide (see :class:`_LengthTable`)."""
        table = self._owners
        pos = _np.searchsorted(table.keys,
                               table.key(_np.uint64(0), dst_hi, dst_lo))
        hit = ((table.hi[pos] == dst_hi) & (table.lo[pos] == dst_lo)
               & (table.dev[pos] == 0))
        return _np.where(hit, table.nxt[pos], -1)

    def lookup(self, dev, dst_hi, dst_lo):
        """Vectorised longest-prefix match for a batch of lanes.

        ``dev`` indexes this FIB's device list; returns ``(action, nxt)``
        int arrays where ``action == A_MISS`` means no length matched.  A
        table is hashed only for the pending lanes whose device has a route
        of its length.
        """
        n = dev.size
        action = _np.zeros(n, dtype=_np.int8)
        nxt = _np.full(n, -1, dtype=_np.int64)
        pending = _np.arange(n)
        devu = dev.astype(_np.uint64)
        for table in self._tables:
            mine = table.has[dev[pending]]
            if not mine.any():
                continue
            lanes = pending[mine]
            d = devu[lanes]
            mhi = dst_hi[lanes] & table.mask_hi
            mlo = dst_lo[lanes] & table.mask_lo if table.wide else None
            pos = _np.searchsorted(table.keys, table.key(d, mhi, mlo))
            hit = (table.dev[pos] == d) & (table.hi[pos] == mhi)
            if mlo is not None:
                hit &= table.lo[pos] == mlo
            if hit.any():
                rows = pos[hit]
                found = lanes[hit]
                action[found] = table.action[rows]
                nxt[found] = table.nxt[rows]
                mine[mine] = hit
                pending = pending[~mine]
                if not pending.size:
                    break
        return action, nxt

    def send_home(self, network: "Network", device: "Device",
                  error: "Packet", vantage: "Device",
                  inbox: List["Packet"], trace: "DeliveryTrace") -> bool:
        """Finish ``error``, an ICMPv6 error ``device`` has just originated,
        by its return plan instead of the walk home; False, having touched
        nothing, where the walk has to run (see :func:`_plan_home`).

        What the plan trusts is that the path home is pure: it was read
        off the tables this FIB was compiled from, which cannot move while
        it is the network's, and an error answers no error (RFC 4443
        §2.4(e)) — so no limiter, no RNG and no counter lies on the way
        home.  Only each on-link hop's NDP ``resolve`` reads and writes
        state; those run here, in path order, under the lane's clock, and
        a failed one ends the path where the walk's would end it."""
        dst = error.dst
        plan = self.home(network, device, dst, error.hop_limit, trace.hops)
        if plan is None:
            return False
        hops, owner, drops, hop_limit = _travel(plan, network, dst)
        trace.hops += hops
        network.total_hops += hops
        trace.drops += drops
        if owner is vantage:
            inbox.append(error.with_hop_limit(hop_limit))
            trace.delivered += 1
        return True

    def home(self, network: "Network", device: "Device", dst: "IPv6Addr",
             hop_limit: int, hops: int):
        """The return plan of an error ``device`` originates towards ``dst``
        with ``hop_limit``, for a packet that has taken ``hops`` hops so
        far; None where the walk has to run — no plan, or one that could
        carry the packet past ``max_hops`` (the walk raises where it always
        did).  Pure: the plan is read off the tables once and memoised."""
        key = (device, dst.value)
        plan = self._homes.get(key)
        if plan is None:
            plan = _plan_home(network, device, dst, hop_limit)
            if plan:
                plan = self._plans.setdefault(plan, plan)
            self._homes[key] = plan
        if not plan or plan[0] != hop_limit or (
            hops + plan[6] > network.max_hops
        ):
            return None
        return plan


def _travel(plan, network: "Network", dst: "IPv6Addr"):
    """Run a return plan's NDP ``resolve``s, in path order, under the
    current clock: ``(hops, owner, drops, final hop limit)`` of the error
    — ``owner`` None where a failed resolve ended the path."""
    _start, hops, resolves, owner, drops, hop_limit, _longest = plan
    for router, further in resolves:
        if not resolve(router, dst, network):
            return hops, None, 0, hop_limit
        hops += further
    return hops, owner, drops, hop_limit


def _plain(device: "Device") -> bool:
    """Is the device code the walk home would run at ``device`` the
    library's own — ``receive`` (an owner swallows an error, a host drops
    it) and ``_make_error`` (which never answers one)?"""
    cls = type(device)
    return cls.receive is Device.receive and cls._make_error in (
        Device._make_error, IspRouter._make_error
    )


def _plan_home(network: "Network", device: "Device", dst, hop_limit: int):
    """The return plan of an ICMPv6 error ``device`` originates towards
    ``dst`` with ``hop_limit``, or False if only the walk will do.

    :meth:`Network._originate` and ``Network._drain``'s fast path walked
    once, statically: a pure hop adds a hop and takes one hop limit, and
    wherever the walk would raise an error about the error (no route, hop
    limit spent, failed NDP) or a host drops it, the path ends in silence.
    The plan is ``(hop_limit, hops, resolves, owner, drops, final hop
    limit, longest)``: the hops before the first on-link hop; per on-link
    hop, the router whose ``resolve`` must run and the hops a success adds;
    the device that owns ``dst`` where the path ends there (it reaches an
    inbox if that is the vantage); 1 for a counted drop; and the hops if
    every resolve succeeds.  A device that is not :func:`_plain` or not
    ``flow_forward_safe``, or an on-link destination nobody owns (a stale
    neighbour entry would send the walk to no device), leaves it to the
    walk."""
    owners = network._addr_owner
    hops = [0]  # per stretch: before the first resolve, then after each
    routers: List["Device"] = []
    owner = None
    drops = 0
    at = device
    if dst not in device.addresses:
        if not device.forwards:
            return False
        route = device.table.lookup(dst)
        if route is None or route.kind is RouteKind.UNREACHABLE:
            at, drops = None, 1
        elif route.kind is RouteKind.BLACKHOLE:
            at = None
        else:
            hop = dst if route.kind is RouteKind.CONNECTED else route.next_hop
            at = owners.get(hop.value)
            if at is None:
                drops = 1
            else:
                hops[0] = 1
    limit = hop_limit
    while at is not None:
        if not _plain(at):
            return False
        if dst in at.addresses:
            owner = at
            break
        if not at.forwards:
            break  # a host drops what is not its own
        if not at.flow_forward_safe:
            return False
        route = at.table.lookup(dst)
        if (route is None or route.kind is RouteKind.UNREACHABLE
                or route.kind is RouteKind.BLACKHOLE or limit <= 1):
            break
        if route.kind is RouteKind.CONNECTED:
            nxt = owners.get(dst.value)
            if nxt is None:
                return False
            routers.append(at)
            hops.append(1)
        else:
            nxt = owners.get(route.next_hop.value)
            if nxt is None:
                drops = 1
                break
            hops[-1] += 1
        at = nxt
        limit -= 1
    return (hop_limit, hops[0], tuple(zip(routers, hops[1:])), owner, drops,
            limit, sum(hops))


def _usable(network: "Network", until: Optional[float] = None) -> bool:
    """Can the vector phase run without observing or perturbing state?

    ``until`` is the last send clock of the probes about to be replayed:
    a fault transition due by then must fire inside ``inject`` at its
    clock, so such a chunk is cut before the probe that reaches it
    (:func:`_cut`).  The pull passes none — its lanes are re-checked
    against the FIB, and the chunk against its clocks, before anything is
    replayed."""
    if _np is None or not network.hops_unobserved():
        return False
    faults = network.faults
    return until is None or faults is None or faults.next_transition > until


def _sequential(
    network: "Network",
    packets: List["Packet"],
    vantage: "Device",
    clocks: Optional[List[float]],
) -> List[Tuple[List["Packet"], "DeliveryTrace"]]:
    """The oracle: one scalar ``inject`` per packet, under its own clock."""
    entry_clock = network.clock
    results = []
    for i, packet in enumerate(packets):
        if clocks is not None:
            network.clock = clocks[i]
        results.append(network.inject(packet, vantage))
    network.clock = entry_clock
    return results


class Lanes:
    """A block of probes as the vector phase leaves them, one lane each.

    Per lane, as the rows of one ``(5, lanes)`` int64 array ``columns``
    (each also an attribute): its ``status``, the device it stopped at
    (``cur``, an index into ``fib.devices``), the hop limit it has left
    (``hl``), and the ``hops`` and ``drops`` it took — with ``fib``, the
    :class:`ColumnarFib` they were computed under.  One array, so the
    replay takes a run's five columns in one ``take``.  ``targets`` is the
    block as it was given — a list of destination ints, or a
    :class:`~repro.core.target.TargetBlock`, whose word columns the vector
    phase reads as they are — and ``values`` its destinations as ints;
    ``hop_limits`` is one hop limit for every lane, or a list of them.
    Forwarding is pure, so it happens once, when the block is pulled,
    however its probes are later cut into chunks; the replay re-forwards
    what is left of the block if ``fib`` is no longer the network's.  A
    block that was not forwarded — fewer than :data:`VECTOR_MIN_PROBES`
    probes (``copies`` ride each lane), a network not :func:`_usable`, an
    uncompilable table — has no ``fib`` and no columns: every probe of it
    is one whole :meth:`Network.inject`.
    """

    __slots__ = ("targets", "values", "hop_limits", "copies", "fib",
                 "columns", "status", "cur", "hl", "hops", "drops")

    def __init__(self, network: "Network", vantage: "Device",
                 values, hop_limits, copies: int = 1) -> None:
        self.targets = values
        self.values: List[int] = getattr(values, "values", values)
        self.hop_limits = hop_limits
        self.copies = copies
        self.forward(network, vantage)

    def forward(self, network: "Network", vantage: "Device",
                start: int = 0) -> None:
        """Run the vector phase over lanes ``start``.. on today's FIB; the
        lanes before ``start`` (already sent) read as ``_ORIGIN``."""
        self.fib = self.columns = None
        self.status = self.cur = self.hl = self.hops = self.drops = None
        n = len(self.values)
        if (n - start) * self.copies < VECTOR_MIN_PROBES or not _usable(
            network
        ):
            return
        fib = network.columnar_fib()
        if not fib.ok:
            return
        hop_limits = self.hop_limits
        if not isinstance(hop_limits, int):
            hop_limits = hop_limits[start:]
        columns = _np.stack(_vector_phase(  # int8 status widens to int64
            network, fib, vantage, self.targets[start:], hop_limits,
        ))
        if start:
            before = _np.zeros((5, start), dtype=_np.int64)
            before[0], before[1] = _ORIGIN, -1
            columns = _np.concatenate((before, columns), axis=1)
        self.fib = fib
        self.columns = columns
        self.status, self.cur, self.hl, self.hops, self.drops = columns


def _vector_phase(network, fib, vantage, values, hop_limits):
    """``(status, cur, hl, hops, drops)`` columns for probes of ``values``
    sent from ``vantage``: every lane advanced through its pure hops.

    ``values`` is a list of destination ints or a block that carries them
    (``.values``) with their words as uint64 columns (``.hi`` / ``.lo``,
    :class:`~repro.core.target.TargetBlock`), which are used as they are."""
    n = len(values)
    dst_hi = getattr(values, "hi", None)
    dst_lo = getattr(values, "lo", None)
    values = getattr(values, "values", values)
    if dst_lo is None:
        dst_hi = _np.array([v >> 64 for v in values], dtype=_np.uint64)
        dst_lo = _np.array([v & _M64 for v in values], dtype=_np.uint64)
    owner = fib.owner_of(dst_hi, dst_lo)
    status = _np.zeros(n, dtype=_np.int8)
    cur = _np.full(n, -1, dtype=_np.int64)
    if isinstance(hop_limits, int):
        hl = _np.full(n, hop_limits, dtype=_np.int64)
    else:
        hl = _np.array(hop_limits, dtype=_np.int64)
    hops = _np.zeros(n, dtype=_np.int64)
    drops = _np.zeros(n, dtype=_np.int64)

    # -- spawn: Network._originate(vantage, packet), a column at a time -----
    vantage_idx = fib.index[id(vantage)]
    away = owner != vantage_idx
    # A probe of the vantage's own address is queued there, no hop taken.
    status[~away] = _EJECT
    cur[~away] = vantage_idx
    if vantage.forwards:
        idx = _np.nonzero(away)[0]
        action, nxt = fib.lookup(
            _np.full(idx.size, vantage_idx), dst_hi[idx], dst_lo[idx]
        )
        # A CONNECTED route originates straight at the destination's owner.
        nxt = _np.where(action == A_CONNECTED, owner[idx], nxt)
        sent = ((action == A_NEXT_HOP) | (action == A_CONNECTED)) & (nxt >= 0)
        # What is not sent is dropped, counted — but a blackhole says nothing.
        status[idx[~sent]] = _SILENT
        drops[idx[~sent & (action != A_BLACKHOLE)]] = 1
        cur[idx[sent]] = nxt[sent]
        hops[idx[sent]] = 1  # enqueued without a hop-limit decrement
    elif vantage.gateway is None:
        drops[away] = 1
        status[away] = _SILENT
    else:
        hops[away] = 1
        cur[away] = fib.index[id(vantage.gateway)]

    # -- vector phase: advance all lanes through pure hops ------------------
    # Each iteration either terminates a lane or burns one hop limit, so
    # the loop runs at most max(hop_limit) + 1 times; routing-loop lanes
    # short-circuit through the 2-cycle fast-forward below.
    max_hops = network.max_hops
    alive = status == _ACTIVE
    prev1 = _np.full(n, -2, dtype=_np.int64)  # device one step ago
    prev2 = _np.full(n, -3, dtype=_np.int64)  # device two steps ago

    def settle(lanes, outcome) -> None:  # these lanes leave the phase
        status[lanes] = outcome
        alive[lanes] = False

    while True:
        idx = _np.nonzero(alive)[0]
        if not idx.size:
            break
        # The scalar engine's check at every dequeue.  The lane raises when
        # the chunk holding its probe replays it, as that engine would.
        mask = hops[idx] > max_hops
        if mask.any():
            settle(idx[mask], _OVERRUN)
            idx = idx[~mask]
            if not idx.size:
                continue
        at = cur[idx]
        # (A) reached the destination's owner: local delivery is stateful
        # (echo replies, services, vantage inbox) — eject.
        mask = at == owner[idx]
        if mask.any():
            settle(idx[mask], _EJECT)
            idx = idx[~mask]
            at = at[~mask]
            if not idx.size:
                continue
        # (B) non-forwarding device: hosts drop transit packets silently.
        mask = ~fib.forwards[at]
        if mask.any():
            settle(idx[mask], _SILENT)
            idx = idx[~mask]
            at = at[~mask]
            if not idx.size:
                continue
        # (C) overridden forwarding hook (loop mitigation): stateful, eject.
        mask = ~fib.flow_safe[at]
        if mask.any():
            settle(idx[mask], _EJECT)
            idx = idx[~mask]
            at = at[~mask]
            if not idx.size:
                continue
        action, nxt = fib.lookup(at, dst_hi[idx], dst_lo[idx])
        # (D) no route / unreachable: ICMPv6 no-route synthesis — eject.
        mask = (action == A_MISS) | (action == A_UNREACHABLE)
        if mask.any():
            settle(idx[mask], _NO_ROUTE)
        # (E) blackhole route: silent discard, nothing recorded.
        mask = action == A_BLACKHOLE
        if mask.any():
            settle(idx[mask], _SILENT)
        # Route check passed: like both scalar paths, the hop-limit test
        # comes before any next-hop resolution outcome.
        remaining = (
            (action == A_NEXT_HOP)
            | (action == A_CONNECTED)
            | (action == A_UNRESOLVED)
        )
        # (F) hop limit exhausted: ICMPv6 time-exceeded synthesis — eject.
        mask = remaining & (hl[idx] <= 1)
        if mask.any():
            settle(idx[mask], _SPENT)
        remaining &= ~mask
        # (G) on-link delivery: NDP resolution is stateful — eject.
        mask = remaining & (action == A_CONNECTED)
        if mask.any():
            settle(idx[mask], _ON_LINK)
        # (H) churn blackhole: counted drop, then silence.
        mask = remaining & (action == A_UNRESOLVED)
        if mask.any():
            drops[idx[mask]] += 1
            settle(idx[mask], _SILENT)
        # (I) the pure hop: decrement, advance, keep the lane in flight.
        mask = remaining & (action == A_NEXT_HOP)
        if mask.any():
            lanes = idx[mask]
            prev2[lanes] = prev1[lanes]
            prev1[lanes] = at[mask]
            cur[lanes] = nxt[mask]
            hl[lanes] -= 1
            hops[lanes] += 1
            # Routing-loop fast-forward: a lane back on the device it left
            # two pure hops ago is in a deterministic 2-cycle (the FIB is
            # frozen for the whole vector phase), i.e. the paper's
            # amplification loop.  Burn the remaining budget analytically,
            # by the arithmetic of ``network.loop_exit``, a column at a
            # time: ``steps`` further hops, hop limit 1, and the other loop
            # device holding the lane when ``steps`` is odd.
            cycle = (cur[lanes] == prev2[lanes]) & (hl[lanes] > 1)
            if cycle.any():
                spinners = lanes[cycle]
                steps = hl[spinners] - 1
                hops[spinners] += steps
                hl[spinners] = 1
                swap = spinners[(steps & 1) == 1]
                cur[swap] = prev1[swap]
    return status, cur, hl, hops, drops


class Probes:
    """A chunk for :func:`inject_block` whose packets need not exist yet.

    ``runs`` is a list of ``(Lanes, lanes)`` pairs, each a run of one
    block's lanes: a ``range`` of them, or an index column where a
    blocklist vetoed some.  Each lane sends its block's ``copies`` probes
    one after the other, and the chunk's probes are the runs' in order
    (:func:`destinations`): probe ``i`` counts across them, and
    ``packet(i)`` is its :class:`Packet`, asked for only when something
    stateful has to look at it.

    ``source``, when given, is the source address every probe of the chunk
    carries, and says the caller takes an error lane's ICMPv6 error as a
    row (:class:`Outcomes`): a caller whose probes are never ICMPv6 errors
    themselves, and who classifies what comes back from the fields of a
    row.  None: every result as packets."""

    __slots__ = ("runs", "packet", "source", "_probes")

    def __init__(self, runs, packet, source: Optional["IPv6Addr"] = None
                 ) -> None:
        self.runs = runs
        self.packet = packet
        self.source = source
        self._probes = sum(len(run) * lanes.copies for lanes, run in runs)

    def __len__(self) -> int:
        return self._probes


def destinations(runs) -> Iterator[int]:
    """The destination of every probe of ``runs`` (:class:`Probes`), in
    order, as ints."""
    for lanes, run in runs:
        values, copies = lanes.values, lanes.copies
        for lane in run:
            for _copy in range(copies):
                yield values[lane]


class Outcomes:
    """What a chunk did, per probe in send order.

    ``hops`` and ``drops`` of every probe, as int columns (lists where no
    lane of the chunk was forwarded); ``ejected[i] = (inbox,
    DeliveryTrace)`` of those the scalar engine finished; and, for a chunk
    whose errors come back as rows (:class:`Probes` ``source``), ``rows``:
    one ``(i, responder, target, icmp type, icmp code, quoted hop limit,
    hop limit)`` per ICMPv6 error that reached the vantage from a lane
    settled without packets — the error's source address, the quoted
    probe's destination (an int) and hop limit, the error's hop limit on
    arrival — in probe order, and ``strays``, the lanes whose error was
    raised but never arrived.  A silent lane has no more to say.

    Iterates as the ``inject`` result of every probe, a silent or row
    lane's built on demand; a row's inbox makes its error packet (from
    ``packet``) only when it is read."""

    __slots__ = ("hops", "drops", "ejected", "rows", "strays", "packet")

    def __init__(self, hops, drops, ejected, rows, strays, packet) -> None:
        self.hops = hops
        self.drops = drops
        self.ejected = ejected
        self.rows = rows
        self.strays = strays
        self.packet = packet

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        rows = {row[0]: row for row in self.rows}
        strays = set(self.strays)
        drops = _listed(self.drops)
        for i, hops in enumerate(_listed(self.hops)):
            pair = self.ejected.get(i)
            if pair is None:
                inbox: List["Packet"] = []
                trace = DeliveryTrace(hops=hops, drops=drops[i])
                row = rows.get(i)
                if row is not None:
                    inbox = _Arrived(self.packet, row)
                    trace.errors_generated = trace.delivered = 1
                elif i in strays:
                    trace.errors_generated = 1
                pair = inbox, trace
            yield pair


class _Arrived:
    """The inbox of a lane settled as a row: a sequence of the one error
    packet that arrived, built from the row and the probe's materialiser
    the first time it is read — ``len()`` and truthiness build nothing."""

    __slots__ = ("packet", "row", "_packets")

    def __init__(self, packet, row) -> None:
        self.packet = packet
        self.row = row
        self._packets: Optional[List["Packet"]] = None

    def _built(self) -> List["Packet"]:
        if self._packets is None:
            i, responder, _target, icmp_type, code, quoted, limit = self.row
            probe = self.packet(i).with_hop_limit(quoted)
            self._packets = [icmpv6_error(responder, probe.src, icmp_type,
                                          code, probe, limit)]
        return self._packets

    def __len__(self) -> int:
        return 1

    def __iter__(self):
        return iter(self._built())

    def __getitem__(self, index):
        return self._built()[index]

    def __eq__(self, other: object) -> bool:
        return self._built() == other

    __hash__ = None  # type: ignore[assignment]


def inject_block(
    network: "Network",
    block,
    vantage: "Device",
    clocks: Optional[List[float]] = None,
) -> Outcomes:
    """Batch equivalent of per-packet :meth:`Network.inject`.

    ``block`` is a :class:`Probes` chunk, or a list of built packets —
    forwarded here, each its own materialiser.  Bit-identical to the
    sequential loop in :func:`_sequential` (which is also the fallback
    whenever the network is not :func:`_usable`): the lanes are finished in
    probe order, each under its own clock, and only one that ejected is
    built — a delivery or hook lane handed to :meth:`Network._drain`, an
    error lane settled from its verdict by its stateful step alone.

    In a chunk with a ``source`` an error lane is not built at all where
    its error would go home by a return plan (:meth:`ColumnarFib.home`)
    from a device with the library's own ``_make_error``: the device filter
    and limiter draw run on the lane's fields, the plan's NDP ``resolve``s
    run, and the error that arrives is a row of the result.  The network's
    clock is restored to its entry value before returning.
    """
    if clocks is not None and len(clocks) != len(block):
        raise ValueError("clocks must match packets one-to-one")
    if isinstance(block, list):
        lanes = Lanes(network, vantage, [p.dst.value for p in block],
                      [p.hop_limit for p in block])
        block = Probes([(lanes, range(len(block)))], block.__getitem__)
    cut = _cut(network, clocks, len(block))
    chunk = _Chunk(network, vantage, block)
    _replay(chunk, clocks, cut)
    if cut < len(block):
        pairs = _sequential(network, [block.packet(i)
                                      for i in range(cut, len(block))],
                            vantage, clocks[cut:] if clocks else None)
        for i, pair in enumerate(pairs, cut):
            chunk.ejected[i] = pair
        chunk.hops.append([trace.hops for _inbox, trace in pairs])
        chunk.drops.append([trace.drops for _inbox, trace in pairs])
    return Outcomes(_column(chunk.hops), _column(chunk.drops), chunk.ejected,
                    chunk.rows, chunk.strays, block.packet)


def _column(parts):
    """One column of per-run parts: numpy where any part is, else a list."""
    if len(parts) == 1:
        return parts[0]
    for part in parts:
        if not isinstance(part, list):
            return _np.concatenate(parts)
    return [value for part in parts for value in part]


def _listed(column) -> list:
    return column if isinstance(column, list) else column.tolist()


def _cut(network: "Network", clocks: Optional[List[float]], n: int) -> int:
    """How many of a chunk's ``n`` probes the replay finishes; the rest go
    down :func:`_sequential`.  All of them on a network :func:`_usable`
    through the chunk's last send, none on one unusable now — and where
    only a fault transition due by the last send stands in the way, the
    probes before the first one sent at or after it: the transition fires
    inside that probe's ``inject``, at its clock, as in the oracle."""
    if not _usable(network):
        return 0
    if _usable(network, clocks[-1] if clocks else network.clock):
        return n
    if clocks is None:
        return 0
    due = network.faults.next_transition
    return next(k for k, clock in enumerate(clocks) if clock >= due)


class _Chunk:
    """One chunk's replay: what it has produced so far — per-run parts of
    the ``hops`` / ``drops`` columns, the results of ejected probes, the
    rows, the strays — and :meth:`settle`, the step of one lane that
    needs state."""

    __slots__ = ("network", "vantage", "block", "source", "packet", "fib",
                 "hops", "drops", "ejected", "rows", "strays", "queue")

    def __init__(self, network: "Network", vantage: "Device",
                 block: Probes) -> None:
        self.network = network
        self.vantage = vantage
        self.block = block
        self.source = block.source
        self.packet = block.packet
        self.fib: Optional[ColumnarFib] = None  # the run being replayed's
        self.hops: list = []
        self.drops: list = []
        self.ejected: Dict[int, Tuple[List["Packet"], DeliveryTrace]] = {}
        self.rows: List[tuple] = []
        self.strays: List[int] = []
        # What an ejected lane leaves in flight; every drain empties it.
        self.queue: Deque[Tuple["Device", "Packet"]] = deque()

    def settle(self, i: int, status: int, cur: int, value: int, hl: int,
               hops: int, drops: int):
        """Finish probe ``i``, to ``value``, whose lane left the vector
        phase with ``status`` at ``fib.devices[cur]`` (``fib``: the run's
        :class:`ColumnarFib`) with ``hl`` hop limit left and ``hops`` /
        ``drops`` taken, under the current clock: ``(hops, drops)`` of the
        whole probe.  A lane ``_ORIGIN`` is one whole
        :meth:`Network.inject`; an ``_OVERRUN`` one raises, as the scalar
        engine would at this probe."""
        network = self.network
        vantage = self.vantage
        if status == _ORIGIN:
            result = network.inject(self.packet(i), vantage)
            self.ejected[i] = result
            return result[1].hops, result[1].drops
        if status == _OVERRUN:
            raise NetworkError(
                f"forwarding exceeded {network.max_hops} hops; "
                "unbounded loop (hop limits should prevent this)"
            )
        fib = self.fib
        at = fib.devices[cur]
        source = self.source
        kind = _ROW_ERRORS.get(status)
        if kind is not None and source is not None:
            if status == _ON_LINK and resolve(at, IPv6Addr(value), network):
                kind = None  # delivered on-link: the drain below
            # The library's own error synthesis — it never answers an
            # error, draws the limiter and (a router's) filters errors to
            # outsiders — is what runs here on the lane's fields.
            make_error = type(at)._make_error
            plan = kind is not None and make_error in (
                Device._make_error, IspRouter._make_error
            ) and fib.home(network, at, source, MAX_HOP_LIMIT, hops)
            if plan:
                if make_error is IspRouter._make_error and (
                    at.drop_external_errors and not at.block.contains(source)
                ):
                    pass  # the router filters its errors to outsiders
                elif not at.error_limiter.allow(network.clock):
                    at.errors_suppressed += 1
                else:
                    further, owner, lost, limit = _travel(plan, network,
                                                          source)
                    hops += further
                    network.total_hops += further
                    drops += lost
                    if owner is vantage:
                        self.rows.append((i, at.primary_address, value,
                                          kind[0], kind[1], hl, limit))
                    else:
                        self.strays.append(i)
                return hops, drops
        queue = self.queue
        inbox: List["Packet"] = []
        trace = DeliveryTrace(hops=hops, drops=drops)
        resumed = self.packet(i).with_hop_limit(hl)
        if status == _EJECT:  # delivery or a forwarding hook
            queue.append((at, resumed))
        elif status == _ON_LINK and (
            kind is None or (source is None
                             and resolve(at, resumed.dst, network))
        ):
            trace.hops += 1
            network.total_hops += 1
            queue.append((network._addr_owner[resumed.dst.value],
                          resumed.with_hop_limit(resumed.hop_limit - 1)))
        else:
            network._error(at, resumed, _ERRORS[status], queue, vantage,
                           inbox, trace, fib)
        if queue:
            network._drain(queue, vantage, inbox, trace, fib)
        self.ejected[i] = inbox, trace
        return trace.hops, trace.drops


def _replay(chunk: _Chunk, clocks: Optional[List[float]], stop: int) -> None:
    """:func:`inject_block` over the chunk's first ``stop`` probes, on a
    network the vector phase is usable on until the last of them.

    A run of a forwarded block takes the hops and drops of all its lanes
    at once; only the lanes whose status needs state — every one but
    ``_SILENT`` — are visited, in probe order, each under its own clock,
    by :meth:`_Chunk.settle`.  A run of a block that was not forwarded is
    one whole :meth:`Network.inject` per probe, the sequential loop."""
    network, vantage = chunk.network, chunk.vantage
    settle, packet, ejected = chunk.settle, chunk.packet, chunk.ejected
    entry_clock = network.clock
    fib = None
    lane_probes = lane_hops = 0  # the lanes' share of the network's totals
    first = 0  # the probe index of the run's first probe
    for lanes, run in chunk.block.runs:
        if first >= stop:
            break
        copies = lanes.copies
        count = min(len(run) * copies, stop - first)
        if lanes.fib is not None:
            if fib is None:
                fib = network.columnar_fib()
            if lanes.fib is not fib:  # routes moved since the forward
                lanes.forward(network, vantage, int(run[0]))
        if lanes.fib is None:  # not forwarded: each probe a whole inject
            hops, drops = [], []
            for i in range(first, first + count):
                if clocks is not None:
                    network.clock = clocks[i]
                _inbox, trace = ejected[i] = network.inject(packet(i), vantage)
                hops.append(trace.hops)
                drops.append(trace.drops)
        else:
            # status, cur, hl, hops, drops of the run's probes, in order: a
            # view where the run is one stretch of lanes sent once each
            if copies == 1 and isinstance(run, range):
                lane_of = None
                taken = lanes.columns[:, run.start:run.start + count]
            else:
                lane_of = (_np.arange(run.start, run.stop, run.step)
                           if isinstance(run, range) else _np.asarray(run))
                if copies > 1:
                    lane_of = lane_of.repeat(copies)
                taken = lanes.columns.take(lane_of[:count], axis=1)
            hops, drops = taken[3], taken[4]
            lane_probes += count
            lane_hops += int(hops.sum())
            busy = (taken[0] != _SILENT).nonzero()[0]
            if busy.size:
                statuses, curs, hls, took, lost = taken.take(
                    busy, axis=1).tolist()
                lanes_at = (busy + run.start if lane_of is None
                            else lane_of.take(busy)).tolist()
                values = lanes.values
                chunk.fib = lanes.fib
                settled_hops, settled_drops = [], []
                for pos, lane, status, cur, hl, probe_hops, probe_drops in zip(
                    busy.tolist(), lanes_at, statuses, curs, hls, took, lost,
                ):
                    i = first + pos
                    if clocks is not None:
                        network.clock = clocks[i]
                    probe_hops, probe_drops = settle(
                        i, status, cur, values[lane], hl, probe_hops,
                        probe_drops,
                    )
                    settled_hops.append(probe_hops)
                    settled_drops.append(probe_drops)
                hops = hops.copy()  # the run's, not the lanes'
                hops[busy] = settled_hops
                if settled_drops != lost:
                    drops = drops.copy()
                    drops[busy] = settled_drops
                # A lane before a re-forward's start is counted by its
                # own ``inject`` (its vector hops are 0).
                lane_probes -= statuses.count(_ORIGIN)
        chunk.hops.append(hops)
        chunk.drops.append(drops)
        first += count
    network.clock = entry_clock
    network.total_injected += lane_probes
    network.total_hops += lane_hops
