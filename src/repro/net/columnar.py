"""Columnar (struct-of-arrays) forwarding engine.

The scalar engine in :mod:`repro.net.network` forwards one python object
per probe per hop; after PR 3 vectorised address generation and response
validation, that loop is the campaign's hot path.  This module compiles the
topology's routing state into numpy columns and advances an entire probe
block one hop at a time with masked vector operations, while keeping the
scalar engine as the bit-identical oracle.

The design splits every injection into two phases:

* a **vector phase** that advances all lanes (one lane per injected probe)
  through *pure* forwarding hops only — base-semantics routers resolving a
  ``NEXT_HOP`` route with hop limit left to burn.  Those hops touch no
  mutable state in the scalar engine either (no RNG, no NDP cache, no rate
  limiter), so they can be replayed out of order and en masse;
* a **scalar replay phase** that finishes each lane *in probe order* from
  its ejection point by re-entering the real engine
  (:meth:`Network._drain`).  Everything stateful — NDP resolution, ICMPv6
  error synthesis and its token-bucket limiter, subclass forwarding hooks
  (loop mitigation counters), TCP ISN draws from the topology RNG — runs
  through the exact scalar code, under the exact virtual clock the scalar
  engine would have used.

A lane **ejects** from the vector phase whenever the next step *could*
observe or mutate state: delivery to the destination's owner, a device with
an overridden ``_forward``, a route miss / unreachable route (ICMPv6
no-route), hop-limit exhaustion (ICMPv6 time-exceeded), or an on-link
``CONNECTED`` match (NDP).  The replay does not trust the vector phase's
classification — it re-executes the scalar engine from the ejection device
with the ejection hop limit — so equivalence reduces to the pure hops being
pure, not to this module re-implementing error semantics correctly.

Routing state is compiled once per topology **generation** into a
:class:`ColumnarFib`: one globally shared hash table per prefix length
(longest first), keyed by (device index, masked prefix), with verification
columns so hash collisions degrade to a miss check instead of a wrong
answer, exactly mirroring the per-device flow-cache invalidation protocol
(``Network.generation`` + per-table ``version`` stamps).

Which engine a block takes is decided here and nowhere else, from what
the code can observe: a block shorter than :data:`VECTOR_MIN_PROBES`, no
numpy, the reference-engine override (``network.flow_cache = False``), an
active trace span, a loss model, a pending fault transition, or an
uncompilable table all take the sequential scalar loop, with identical
observables.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.routing import RouteKind

try:  # optional acceleration; sequential scalar fallback otherwise
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.device import Device
    from repro.net.network import DeliveryTrace, Network
    from repro.net.packet import Packet

__all__ = ["ColumnarFib", "inject_block"]

_M64 = 0xFFFFFFFFFFFFFFFF

#: Shortest block worth the vector phase.  Setting up the lanes and walking
#: the per-length tables costs a fixed few hundred microseconds per block,
#: which only pays once enough lanes share it.  Measured on the e2e sweep
#: shapes against per-probe :meth:`Network.inject`: at 16 probes the vector
#: phase is 1.7x slower on the miss-heavy periphery blocks and level on the
#: loop-dense ones; at 64 it is level on the former and 1.6x faster on the
#: latter (see docs/architecture.md, "Send pipeline").
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
_ORIGIN = 3  # replay the whole injection (degenerate originate path)

#: Hash-seed attempts for each per-length table before giving up on the
#: whole compile (``ok=False`` → scalar fallback).  Collisions across a few
#: thousand 64-bit keys are already ~never; eight seeds make the retry path
#: deterministic rather than probabilistic.
_SEEDS = tuple(0x9E3779B97F4A7C15 + k * 0x100000001B3 for k in range(8))


def _finalize(z):  # splitmix64 finalizer on uint64 arrays (wrapping)
    z = z + _np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return z ^ (z >> _np.uint64(31))


def _mix(dev, hi, lo, seed):
    """64-bit hash of one (device index, masked 128-bit prefix) key."""
    z = _finalize(dev + _np.uint64(seed & _M64))
    z = _finalize(z ^ hi)
    return _finalize(z ^ lo)


class _LengthTable:
    """All routes of one prefix length, across every device, sorted by key.

    ``searchsorted`` gives the candidate row; the ``dev``/``hi``/``lo``
    verification columns reject hash collisions on the query side.  Compile
    rejects seed choices that collide between *stored* keys, so at most one
    candidate row can match a query key, and it matches iff the entry is
    genuinely present.
    """

    __slots__ = (
        "length", "seed", "mask_hi", "mask_lo",
        "keys", "dev", "hi", "lo", "action", "nxt",
    )

    def __init__(self, length: int, entries) -> None:
        # entries: list of (dev_idx, masked_hi, masked_lo, action, nxt)
        self.length = length
        if length == 0:
            self.mask_hi = _np.uint64(0)
            self.mask_lo = _np.uint64(0)
        elif length <= 64:
            self.mask_hi = _np.uint64((_M64 << (64 - length)) & _M64)
            self.mask_lo = _np.uint64(0)
        else:
            self.mask_hi = _np.uint64(_M64)
            self.mask_lo = _np.uint64((_M64 << (128 - length)) & _M64)
        self.dev = _np.array([e[0] for e in entries], dtype=_np.uint64)
        self.hi = _np.array([e[1] for e in entries], dtype=_np.uint64)
        self.lo = _np.array([e[2] for e in entries], dtype=_np.uint64)
        self.action = _np.array([e[3] for e in entries], dtype=_np.int8)
        self.nxt = _np.array([e[4] for e in entries], dtype=_np.int64)
        self.seed = -1
        order = None
        for seed in _SEEDS:
            keys = _mix(self.dev, self.hi, self.lo, seed)
            order = _np.argsort(keys)
            keys = keys[order]
            if not bool((keys[1:] == keys[:-1]).any()):
                self.seed = seed
                break
        if self.seed < 0:
            self.keys = None  # signals compile failure to ColumnarFib
            return
        self.keys = keys
        self.dev = self.dev[order]
        self.hi = self.hi[order]
        self.lo = self.lo[order]
        self.action = self.action[order]
        self.nxt = self.nxt[order]


class ColumnarFib:
    """Every device routing table, compiled to struct-of-arrays columns.

    Carries the (generation, per-table version) stamp it was compiled
    under; :meth:`valid` re-checks the stamp so route churn, prefix
    rotation, and fault-injected route swaps invalidate the compile the
    same way they flush the per-device flow caches.
    """

    def __init__(self, network: "Network") -> None:
        self.devices: List["Device"] = list(network.devices.values())
        self.index: Dict[int, int] = {
            id(d): i for i, d in enumerate(self.devices)
        }
        self.generation = network.generation
        self.versions = [d.table.version for d in self.devices]
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
            table = _LengthTable(length, by_length[length])
            if table.keys is None:  # pragma: no cover - 8 seeds all collided
                self.ok = False
                return
            self._tables.append(table)

    @classmethod
    def compile(cls, network: "Network") -> "ColumnarFib":
        return cls(network)

    def valid(self, network: "Network") -> bool:
        """Stamp check: still compiled for the network's current tables?"""
        if network.generation != self.generation:
            return False
        for device, version in zip(self.devices, self.versions):
            if device.table.version != version:
                return False
        return True

    def lookup(self, dev, dst_hi, dst_lo):
        """Vectorised longest-prefix match for a batch of lanes.

        ``dev`` indexes this FIB's device list; returns ``(action, nxt)``
        int arrays where ``action == A_MISS`` means no length matched.
        """
        n = dev.size
        action = _np.zeros(n, dtype=_np.int8)
        nxt = _np.full(n, -1, dtype=_np.int64)
        pending = _np.arange(n)
        devu = dev.astype(_np.uint64)
        for table in self._tables:
            if not pending.size:
                break
            mhi = dst_hi[pending] & table.mask_hi
            mlo = dst_lo[pending] & table.mask_lo
            key = _mix(devu[pending], mhi, mlo, table.seed)
            pos = _np.minimum(
                _np.searchsorted(table.keys, key), table.keys.size - 1
            )
            hit = (
                (table.keys[pos] == key)
                & (table.dev[pos] == devu[pending])
                & (table.hi[pos] == mhi)
                & (table.lo[pos] == mlo)
            )
            if hit.any():
                rows = pos[hit]
                lanes = pending[hit]
                action[lanes] = table.action[rows]
                nxt[lanes] = table.nxt[rows]
                pending = pending[~hit]
        return action, nxt


def _usable(network: "Network") -> bool:
    """Can the vector phase run without observing or perturbing state?"""
    if _np is None:
        return False
    if not network.flow_cache:
        return False  # the reference engine: every hop down the slow path
    if network.active_trace is not None:
        return False  # spans must see every scalar forwarding decision
    if network.loss_rate or network.link_loss:
        return False  # per-hop RNG draws must happen in scalar hop order
    if network.record_links or network.record_paths:
        return False  # per-hop recording is exactly what we elide
    faults = network.faults
    if faults is not None and faults.next_transition != math.inf:
        return False  # a pending transition must fire at the right clock
    return True


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


def inject_block(
    network: "Network",
    packets: List["Packet"],
    vantage: "Device",
    clocks: Optional[List[float]] = None,
) -> List[Tuple[List["Packet"], "DeliveryTrace"]]:
    """Batch equivalent of per-packet :meth:`Network.inject`.

    Bit-identical to the sequential loop in :func:`_sequential` (which is
    also the fallback whenever the vector phase cannot run safely).  The
    network's clock is restored to its entry value before returning.
    """
    from repro.net.network import DeliveryTrace, NetworkError

    if clocks is not None and len(clocks) != len(packets):
        raise ValueError("clocks must match packets one-to-one")
    if len(packets) < VECTOR_MIN_PROBES or not _usable(network):
        return _sequential(network, packets, vantage, clocks)
    fib = network.columnar_fib()
    if not fib.ok:
        return _sequential(network, packets, vantage, clocks)

    n = len(packets)
    status = _np.zeros(n, dtype=_np.int8)
    cur = _np.full(n, -1, dtype=_np.int64)
    hl = _np.zeros(n, dtype=_np.int64)
    hops = _np.zeros(n, dtype=_np.int64)
    drops = _np.zeros(n, dtype=_np.int64)
    owner = _np.full(n, -1, dtype=_np.int64)
    dst_hi = _np.zeros(n, dtype=_np.uint64)
    dst_lo = _np.zeros(n, dtype=_np.uint64)

    addr_owner = network._addr_owner
    index = fib.index
    vantage_idx = index[id(vantage)]

    # -- spawn: replicate Network._originate(vantage, packet) per lane ------
    for i, packet in enumerate(packets):
        value = packet.dst.value
        dst_hi[i] = (value >> 64) & _M64
        dst_lo[i] = value & _M64
        hl[i] = packet.hop_limit
        owning = addr_owner.get(value)
        if owning is not None:
            owner[i] = index[id(owning)]
        if packet.dst in vantage.addresses:
            # Scalar queues (vantage, packet) directly — no hop taken.
            status[i] = _EJECT
            cur[i] = vantage_idx
            continue
        if vantage.forwards:
            route = vantage.table.lookup(packet.dst)
            if route is None or route.kind is RouteKind.UNREACHABLE:
                drops[i] = 1
                status[i] = _SILENT
                continue
            if route.kind is RouteKind.CONNECTED:
                next_device = owning  # _originate targets dst directly
            elif route.kind is RouteKind.NEXT_HOP:
                next_device = addr_owner.get(route.next_hop.value)
            else:
                # BLACKHOLE originate: the scalar engine asserts — replay
                # the whole injection so even that reproduces faithfully.
                status[i] = _ORIGIN
                continue
            if next_device is None:
                drops[i] = 1
                status[i] = _SILENT
                continue
            hops[i] = 1  # _originate enqueues without a hop-limit decrement
            cur[i] = index[id(next_device)]
        else:
            gateway = vantage.gateway
            if gateway is None:
                drops[i] = 1
                status[i] = _SILENT
                continue
            hops[i] = 1
            cur[i] = index[id(gateway)]

    # -- vector phase: advance all lanes through pure hops ------------------
    # Each iteration either terminates a lane or burns one hop limit, so
    # the loop runs at most max(hop_limit) + 1 times; routing-loop lanes
    # short-circuit through the 2-cycle fast-forward below.
    max_hops = network.max_hops
    alive = status == _ACTIVE
    prev1 = _np.full(n, -2, dtype=_np.int64)  # device one step ago
    prev2 = _np.full(n, -3, dtype=_np.int64)  # device two steps ago
    while True:
        idx = _np.nonzero(alive)[0]
        if not idx.size:
            break
        at = cur[idx]
        # (A) reached the destination's owner: local delivery is stateful
        # (echo replies, services, vantage inbox) — eject.
        mask = at == owner[idx]
        if mask.any():
            lanes = idx[mask]
            status[lanes] = _EJECT
            alive[lanes] = False
            idx = idx[~mask]
            at = at[~mask]
            if not idx.size:
                continue
        # (B) non-forwarding device: hosts drop transit packets silently.
        mask = ~fib.forwards[at]
        if mask.any():
            lanes = idx[mask]
            status[lanes] = _SILENT
            alive[lanes] = False
            idx = idx[~mask]
            at = at[~mask]
            if not idx.size:
                continue
        # (C) overridden forwarding hook (loop mitigation): stateful, eject.
        mask = ~fib.flow_safe[at]
        if mask.any():
            lanes = idx[mask]
            status[lanes] = _EJECT
            alive[lanes] = False
            idx = idx[~mask]
            at = at[~mask]
            if not idx.size:
                continue
        action, nxt = fib.lookup(at, dst_hi[idx], dst_lo[idx])
        # (D) no route / unreachable: ICMPv6 no-route synthesis — eject.
        mask = (action == A_MISS) | (action == A_UNREACHABLE)
        if mask.any():
            lanes = idx[mask]
            status[lanes] = _EJECT
            alive[lanes] = False
        # (E) blackhole route: silent discard, nothing recorded.
        mask = action == A_BLACKHOLE
        if mask.any():
            lanes = idx[mask]
            status[lanes] = _SILENT
            alive[lanes] = False
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
            lanes = idx[mask]
            status[lanes] = _EJECT
            alive[lanes] = False
        remaining &= ~mask
        # (G) on-link delivery: NDP resolution is stateful — eject.
        mask = remaining & (action == A_CONNECTED)
        if mask.any():
            lanes = idx[mask]
            status[lanes] = _EJECT
            alive[lanes] = False
        # (H) churn blackhole: counted drop, then silence.
        mask = remaining & (action == A_UNRESOLVED)
        if mask.any():
            lanes = idx[mask]
            drops[lanes] += 1
            status[lanes] = _SILENT
            alive[lanes] = False
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
            # amplification loop.  It will bounce until the hop limit runs
            # out, so burn the remaining budget analytically: from (A, h)
            # the lane takes s = h - 1 further hops and ejects with hl=1 at
            # A for even s, at the other loop device for odd s.
            cycle = (cur[lanes] == prev2[lanes]) & (hl[lanes] > 1)
            if cycle.any():
                spinners = lanes[cycle]
                steps = hl[spinners] - 1
                hops[spinners] += steps
                hl[spinners] = 1
                swap = spinners[(steps & 1) == 1]
                cur[swap] = prev1[swap]
            if int(hops[lanes].max()) > max_hops:
                raise NetworkError(
                    f"forwarding exceeded {network.max_hops} hops; "
                    "unbounded loop (hop limits should prevent this)"
                )

    # -- scalar replay: finish each lane in probe order ---------------------
    entry_clock = network.clock
    results: List[Tuple[List["Packet"], DeliveryTrace]] = []
    devices = fib.devices
    drain = network._drain
    for i, packet in enumerate(packets):
        if clocks is not None:
            network.clock = clocks[i]
        lane_status = status[i]
        if lane_status == _ORIGIN:
            results.append(network.inject(packet, vantage))
            continue
        network.total_injected += 1
        lane_hops = int(hops[i])
        network.total_hops += lane_hops
        trace = DeliveryTrace(hops=lane_hops, drops=int(drops[i]))
        inbox: List["Packet"] = []
        if lane_status == _EJECT:
            resumed = packet.with_hop_limit(int(hl[i]))
            queue = deque([(devices[int(cur[i])], resumed)])
            drain(queue, vantage, inbox, trace)
        results.append((inbox, trace))
    network.clock = entry_clock
    return results
