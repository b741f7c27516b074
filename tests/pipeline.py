"""Drive the one send pipeline under every engine choice it can make.

The pipeline has no user-facing engine switch: block size and the vector
threshold are module constants, and the reference engine is the
``Network(flow_cache=False)`` override.  Parity tests vary all three
through :func:`observe` and compare everything a scan promises to keep
identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import repro.core.scanner as scanner_module
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine import ProbeSpec
from repro.net import columnar
from repro.net.addr import IPv6Prefix
from repro.net.device import CpeRouter
from tests.topo import MiniTopology, build_mini

SPEC = "2001:db8:1::/56-64"  # 256 sub-prefixes over both CPEs' LAN space
#: The vulnerable CPE's delegation: 15 of its 16 /64s loop (the probe module
#: sends at hop limit 255), the 16th is its advertised, on-link subnet.
LOOP_SPEC = "2001:db8:1:60::/60-64"

#: Vector thresholds for ``engine(vector_min=...)``: no chunk reaches the
#: first, every chunk reaches the second.
NEVER = 1 << 62
ALWAYS = 1


@contextmanager
def engine(
    block_size: Optional[int] = None, vector_min: Optional[int] = None
) -> Iterator[None]:
    """Run the body under another block size and/or vector threshold."""
    saved = scanner_module.BLOCK_SIZE, columnar.VECTOR_MIN_PROBES
    if block_size is not None:
        scanner_module.BLOCK_SIZE = block_size
    if vector_min is not None:
        columnar.VECTOR_MIN_PROBES = vector_min
    try:
        yield
    finally:
        scanner_module.BLOCK_SIZE, columnar.VECTOR_MIN_PROBES = saved


#: The WAN and delegation of the CPE that replies come home through in the
#: ``home-via-cpe`` world.
HOME_WAN = IPv6Prefix.from_string("2001:4860:1::/64")
HOME_LAN = IPv6Prefix.from_string("2001:4860:2::/60")


def _bounce_limited(topo: MiniTopology) -> None:
    """The vulnerable CPE stops a loop after ten bounces (its forwarding
    keeps a counter, so the fast paths hand it to ``_forward``)."""
    old = topo.cpe_vuln
    topo.network.unregister(old)
    topo.cpe_vuln = CpeRouter(
        old.name, old.wan_address, old.wan_prefix, old.lan_prefix,
        subnet_prefix=old.subnet_prefix, isp_address=old.isp_address,
        vulnerable_wan=True, vulnerable_lan=True, loop_forward_limit=10,
    )
    topo.network.register(topo.cpe_vuln)


def _home_via_cpe(topo: MiniTopology) -> None:
    """Replies reach the vantage through a bounce-limited CPE: every error
    the ISP side raises takes it on its way home."""
    home = CpeRouter(
        "cpe-home", HOME_WAN.address(1), HOME_WAN, HOME_LAN,
        isp_address=topo.core.primary_address, loop_forward_limit=10,
    )
    topo.network.register(home)
    vantage = topo.vantage.primary_address.prefix(128)
    topo.core.table.add_next_hop(vantage, home.wan_address)
    home.table.add_connected(vantage, "v")


def _drop_external(topo: MiniTopology) -> None:
    topo.isp.drop_external_errors = True


#: The mini testbed and the variants of it that change what an error meets
#: on its way home, by name.
WORLDS: Dict[str, Callable[[MiniTopology], None]] = {
    "mini": lambda topo: None,
    "bounce-limited": _bounce_limited,
    "drop-external": _drop_external,
    "home-via-cpe": _home_via_cpe,
}


def build_world(name: str = "mini", **network_kwargs) -> MiniTopology:
    """``build_mini(**network_kwargs)`` turned into the world ``name``."""
    topo = build_mini(**network_kwargs)
    WORLDS[name](topo)
    return topo


def device_state(network) -> list:
    """What the stateful half of forwarding left on every device: the
    neighbour cache (entries, hits, misses, solicitations), the ICMPv6
    error limiter and the loop-bounce counter."""
    state = []
    for device in network.devices.values():
        cache = device.neighbor_cache
        limiter = device.error_limiter
        state.append((
            device.name,
            sorted((value, entry.reachable, entry.lladdr, entry.expires_at)
                   for value, entry in cache._entries.items()),
            cache.hits, cache.misses, cache.solicitations,
            limiter._tokens, limiter._last, device.errors_suppressed,
            getattr(device, "_loop_bounces", None),
        ))
    return state


def observables(scanner: Scanner, result) -> Dict[str, object]:
    """Everything a scan run promises to keep identical across engines."""
    stats = result.stats.to_dict()
    stats.pop("wall_seconds")  # the only legitimately nondeterministic field
    network = scanner.network
    return {
        "devices": device_state(network),
        "network": (network.total_hops, network.total_injected,
                    network.clock),
        "digest": result.dedup_digest(),
        "rows": [r.to_dict() for r in result.results],
        "stats": stats,
        "metrics": scanner.metrics.to_dict(),
        "series": (
            scanner.sampler.to_dict() if scanner.sampler is not None else None
        ),
        "traces": scanner.tracer.to_dicts(),
        "position": scanner.position,
    }


def editing_hook(
    edits: Sequence[Tuple[int, Callable]], stride: int
) -> Callable:
    """``hook(topo)`` for :func:`observe`: a progress hook that asks for
    control every ``stride`` probes and at every ``(sent, edit)`` point of
    ``edits``, where it applies ``edit(topo)`` — after the same probe
    however the scan is chunked, and (for any chunking that pulls target
    blocks ahead) between a block's pull and a later chunk of it."""

    def bind(topo):
        pending = sorted(edits, key=lambda point: point[0])

        def hook(scanner: Scanner) -> int:
            sent = scanner.result.stats.sent
            while pending and sent >= pending[0][0]:
                pending.pop(0)[1](topo)
            return min([sent + stride] + [at for at, _ in pending[:1]])

        return hook

    return bind


def observe(
    reference: bool = False,
    block_size: Optional[int] = None,
    vector_min: Optional[int] = None,
    spec: str = SPEC,
    topo=None,
    hook: Optional[Callable] = None,
    world: str = "mini",
    **config,
) -> Dict[str, object]:
    """One full scan on a fresh mini topology; returns its observables.

    ``reference=True`` is the oracle: the reference engine (every hop down
    the slow path, no vector phase) fed one target at a time.  A fresh
    network per run matters: the virtual clock advances during a scan, so
    reusing one would shift ``virtual_start`` between identical runs.
    ``hook(topo)`` makes the scan's ``on_progress``; ``world`` names the
    topology built when ``topo`` is not given (:data:`WORLDS`).
    """
    if reference:
        block_size = 1
    if topo is None:
        topo = build_world(world, flow_cache=not reference)
    config.setdefault("seed", 5)
    flow_cache = topo.network.flow_cache
    scanner = Scanner(
        topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
        ScanConfig(scan_range=ScanRange.parse(spec), **config),
    )
    if hook is not None:
        scanner.on_progress = hook(topo)
    with engine(block_size, vector_min):
        result = scanner.run()
    assert topo.network.flow_cache is flow_cache  # the scan left it be
    return observables(scanner, result)
