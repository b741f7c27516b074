"""Deterministic, picklable topology specifications — and the pool of
worlds built from them.

A :class:`~repro.net.network.Network` holds live object graphs (devices,
routing tables, bound services) that do not survive pickling, so the
orchestration engine cannot ship a built topology to a pool worker.  It
ships a :class:`TopologySpec` instead: a frozen, hashable recipe — builder
kind plus keyword parameters — from which any process deterministically
builds the identical simulated Internet.  Because the builders are seeded,
two workers holding the same spec agree on every address, route, and
defect, which is what lets shard results merge into exactly the unsharded
reply set.

:meth:`TopologySpec.build` makes a world, every time it is called.
:meth:`TopologySpec.checkout` lends one: a process builds a spec's world
once, seals it (:meth:`Network.seal <repro.net.network.Network.seal>`),
and every later scan of an equal spec gets that artifact back with its
scan state restored instead of a rebuild — one shard, one lease or one
longitudinal round after another.  Idle artifacts wait in a process-level
pool bounded by :data:`POOL_DEVICE_BUDGET`.

The ``deployment`` kind builds on :func:`repro.isp.builder.build_deployment`;
the import happens lazily inside :meth:`TopologySpec.build` so this module
does not invert the net ← isp layering at import time.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.device import Device
from repro.net.network import Network


@dataclass
class BuiltTopology:
    """A live topology as the scan engine consumes it."""

    network: Network
    vantage: Device
    #: The builder's native object (``MiniTopology``, ``Deployment``, …) for
    #: callers that need more than network + vantage.
    handle: object = None


#: Devices the pool's idle artifacts may hold between them.  Devices, not
#: artifacts, because worlds differ a thousandfold in size and a device is
#: what costs memory: 3.3-3.8 KB of RSS each, compiled FIB included
#: (measured over the benchmark's blocks), so ~13-16 MB when full.
POOL_DEVICE_BUDGET = 4096


class _ArtifactPool:
    """Sealed, restored, idle worlds by spec; least recently returned
    specs are evicted first.  An artifact is in here or with exactly one
    borrower, never both."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: "OrderedDict[TopologySpec, List[BuiltTopology]]" = (
            OrderedDict()
        )
        self.devices = 0

    def take(self, spec: "TopologySpec") -> Optional[BuiltTopology]:
        with self._lock:
            shelf = self._idle.get(spec)
            if shelf is None:
                return None
            built = shelf.pop()
            if not shelf:
                del self._idle[spec]
            self.devices -= len(built.network.devices)
            return built

    def give(self, spec: "TopologySpec", built: BuiltTopology) -> None:
        with self._lock:
            self._idle.setdefault(spec, []).append(built)
            self._idle.move_to_end(spec)
            self.devices += len(built.network.devices)
            # The newest artifact stays whatever its size, so a world
            # larger than the whole budget still serves the remaining
            # shards of its own campaign.
            while self.devices > POOL_DEVICE_BUDGET:
                oldest, shelf = next(iter(self._idle.items()))
                if shelf[0] is built:
                    break
                self.devices -= len(shelf.pop(0).network.devices)
                if not shelf:
                    del self._idle[oldest]

    def drop(self) -> None:
        """Forget every idle artifact."""
        with self._lock:
            self._idle.clear()
            self.devices = 0


_POOL = _ArtifactPool()


def _canonical(value: object) -> object:
    """``value`` with sequences as tuples and mappings as sorted item
    tuples, recursively — hashable, and the same whichever way it came."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


@dataclass(frozen=True)
class TopologySpec:
    """A rebuildable topology description: kind + sorted keyword params.

    Parameters are canonicalised on construction, so a spec that arrived
    as JSON (lists) equals, and hashes like, the one the classmethods make
    (tuples) — they build the same world.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _canonical(self.params))

    @classmethod
    def mini(cls, seed: int = 1, **network_kwargs: object) -> "TopologySpec":
        """The hand-built demo topology (:func:`repro.net.testbed.build_mini`)."""
        return cls("mini", {"seed": seed, **network_kwargs})

    @classmethod
    def deployment(
        cls,
        profiles: Optional[Sequence[str]] = None,
        scale: float = 1000.0,
        seed: int = 0,
        min_devices: int = 40,
        loss_rate: float = 0.0,
    ) -> "TopologySpec":
        """A :func:`repro.isp.builder.build_deployment` world.

        ``profiles`` are profile *keys* (None = all fifteen paper blocks);
        the per-ISP RNG streams are keyed by (seed, profile index), so a
        block is bit-identical whether built alone or among the fifteen.
        """
        params: Dict[str, object] = {
            "scale": scale,
            "seed": seed,
            "min_devices": min_devices,
            "loss_rate": loss_rate,
        }
        if profiles is not None:
            params["profiles"] = profiles
        return cls("deployment", params)

    @classmethod
    def internet(
        cls,
        seed: int = 0,
        scale: float = 1000.0,
        n_tier1: int = 3,
        n_ix: int = 2,
        n_tail_ases: int = 220,
        window_bits: int = 8,
        multihome_rate: float = 0.25,
        **extra: object,
    ) -> "TopologySpec":
        """A :func:`repro.bgp.build_internet` world: the CPE-edge AS
        population under a compiled tier-1/regional BGP fabric."""
        params: Dict[str, object] = {
            "seed": seed,
            "scale": scale,
            "n_tier1": n_tier1,
            "n_ix": n_ix,
            "n_tail_ases": n_tail_ases,
            "window_bits": window_bits,
            "multihome_rate": multihome_rate,
            **extra,
        }
        return cls("internet", params)

    @classmethod
    def leak_demo(
        cls,
        seed: int = 0,
        n_devices: int = 12,
        n_loops: int = 4,
        window_bits: int = 8,
    ) -> "TopologySpec":
        """The two-transit route-leak world
        (:func:`repro.bgp.build_leak_demo`)."""
        params: Dict[str, object] = {
            "seed": seed,
            "n_devices": n_devices,
            "n_loops": n_loops,
            "window_bits": window_bits,
        }
        return cls("leak-demo", params)

    @contextlib.contextmanager
    def checkout(self) -> Iterator[BuiltTopology]:
        """Borrow this spec's world for one scan, exclusively.

        A pooled artifact if an idle one exists, else a fresh
        :meth:`build`, sealed.  On a clean exit the artifact's scan state
        is restored and it goes (back) to the pool; it is dropped instead
        — the next checkout builds — when the block raises, when the scan
        armed a :class:`~repro.faults.injector.FaultInjector` against the
        network (faults edit devices and routes), or when
        :meth:`Network.restore` will not vouch for it.
        """
        built = _POOL.take(self)
        if built is None:
            built = self.build()
            built.network.seal()
        yield built  # an exception surfaces here, and skips the return
        network = built.network
        if network.fault_rng is None and network.restore():
            _POOL.give(self, built)

    def build(self) -> BuiltTopology:
        """Build the topology this spec describes, afresh."""
        params = dict(self.params)
        if self.kind == "mini":
            from repro.net.testbed import build_mini

            topo = build_mini(**params)  # type: ignore[arg-type]
            return BuiltTopology(topo.network, topo.vantage, topo)
        if self.kind == "deployment":
            from repro.isp.builder import build_deployment
            from repro.isp.profiles import profile_by_key

            keys = params.pop("profiles", None)
            profiles = (
                [profile_by_key(key) for key in keys]  # type: ignore[union-attr]
                if keys is not None
                else None
            )
            dep = build_deployment(profiles=profiles, **params)  # type: ignore[arg-type]
            return BuiltTopology(dep.network, dep.vantage, dep)
        if self.kind == "internet":
            from repro.bgp.world import build_internet

            world = build_internet(**params)  # type: ignore[arg-type]
            return BuiltTopology(world.network, world.vantage, world)
        if self.kind == "leak-demo":
            from repro.bgp.world import build_leak_demo

            world = build_leak_demo(**params)  # type: ignore[arg-type]
            return BuiltTopology(world.network, world.vantage, world)
        raise ValueError(f"unknown topology kind {self.kind!r}")

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"
