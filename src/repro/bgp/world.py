"""Internet-scale topology builders on top of the BGP fabric.

:func:`build_internet` subsumes the flat world the loop study first ran
on (one vantage core with every edge AS hanging directly off it): the same
Figure-5-shaped CPE-edge AS population (identical blocks, device names, IID draws, and loop ground
truth for a given seed — the legacy builder's RNG stream is reproduced
draw-for-draw), but reached through a real AS-level fabric: tier-1
transits meshed at internet exchanges, regional transits buying from
them, and every edge AS homed (sometimes multi-homed) under a regional.
Routes come out of the Gao–Rexford path-vector solver, so control-plane
scenarios (:mod:`repro.bgp.scenarios`) can re-route, leak, or hijack any
slice of the population mid-scan.

Hop-count parity is load-bearing: a probe from the vantage host crosses
exactly **four** forwarding routers before the CPE (vantage-AS core →
tier-1 core → regional core → edge access router), versus the legacy
world's two (core → edge router).  Both are even, so for any probe hop
limit the CPE receives the same parity either way and the §V loop /
Time-Exceeded responder identities are unchanged — ``find_loops`` and
the Table IX pipeline run unmodified on either world.

:func:`build_leak_demo` is the small two-transit world the route-leak
example and the policy tests drive: a victim delegation set in one
transit's customer cone, a vantage single-homed to the other, and a
dual-homed leaker AS positioned to pull the victim's traffic through
itself (7-router baseline path, 5-router leaked path — parity again
preserved).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bgp.fabric import AsRole, BgpFabric
from repro.bgp.table import BgpTable
from repro.discovery.iid import IidClass, IidGenerator
from repro.net.addr import IPv6Addr, IPv6Prefix, MacAddress
from repro.net.device import CpeRouter, Host, IspRouter, Router
from repro.net.network import Network

#: IID mix of the general discovered population (Table III shape).
GENERAL_IID_MIX: Sequence[Tuple[IidClass, float]] = (
    (IidClass.EUI64, 0.076),
    (IidClass.LOW_BYTE, 0.010),
    (IidClass.EMBED_IPV4, 0.055),
    (IidClass.BYTE_PATTERN, 0.104),
    (IidClass.RANDOMIZED, 0.755),
)

#: IID mix of loop-vulnerable last hops (Table X): manually configured
#: low-byte router addresses dominate far more than in the general pool.
LOOP_IID_MIX: Sequence[Tuple[IidClass, float]] = (
    (IidClass.EUI64, 0.180),
    (IidClass.LOW_BYTE, 0.317),
    (IidClass.EMBED_IPV4, 0.024),
    (IidClass.BYTE_PATTERN, 0.007),
    (IidClass.RANDOMIZED, 0.467),
)

#: The ten loop-heaviest origin ASes (Figure 5 left), as
#: (asn, country, paper loop-device count).  The figure's bar chart tops out
#: around 35k for a Brazilian ISP and decays toward ~4k.
TOP_LOOP_ASES: Sequence[Tuple[int, str, int]] = (
    (28006, "BR", 34_000),
    (4134, "CN", 20_500),
    (27947, "EC", 15_500),
    (7552, "VN", 12_000),
    (7018, "US", 9_000),
    (9988, "MM", 7_200),
    (55836, "IN", 6_100),
    (2856, "GB", 5_200),
    (3320, "DE", 4_700),
    (6830, "CH", 4_100),
)

#: Countries for the synthetic long tail, beyond Figure 5's top ten.
TAIL_COUNTRIES = (
    "CZ", "FR", "JP", "KR", "AU", "NL", "SE", "PL", "IT", "ES", "MX", "AR",
    "CL", "CO", "ZA", "EG", "NG", "TR", "SA", "TH", "MY", "ID", "PH", "TW",
    "HK", "SG", "NZ", "RO", "HU", "GR", "PT", "FI", "NO", "DK", "AT", "BE",
    "IE", "UA", "RS", "BG",
)

#: ASN layout: private-use 16-bit space for the infrastructure ASes, the
#: legacy 60000+ range for the generated edge tail.
VANTAGE_ASN = 64500
TIER1_BASE = 64601
REGIONAL_BASE = 64701
TAIL_ASN_BASE = 60_000

VANTAGE_ADDRESS = "2001:4860:4860::6464"
#: The vantage (measurement) AS block; ``block.address(1)`` is the legacy
#: core router address 2001:4860:4860::1.
VANTAGE_BLOCK = IPv6Prefix(0x2001_4860_4860 << 80, 48)


def _pick_iid_class(rng: random.Random,
                    mix: Sequence[Tuple[IidClass, float]]) -> IidClass:
    roll = rng.random()
    for cls, share in mix:
        roll -= share
        if roll <= 0:
            return cls
    return mix[-1][0]


def _edge_block(order: int) -> IPv6Prefix:
    """The legacy per-edge-AS /32 (2a00::/16 space, keyed by plan order)."""
    return IPv6Prefix(
        (0x2A00 + (order >> 8) << 112) | ((order & 0xFF) << 104), 32
    )


@dataclass
class EdgeAs:
    """Ground truth for one populated CPE-edge AS."""

    asn: int
    country: str
    block: IPv6Prefix
    scan_spec: str
    n_devices: int
    n_loops: int
    #: The access router's device name (the AS's single fabric edge).
    access_router: str
    #: Provider ASNs, primary first.
    providers: Tuple[int, ...]
    #: Delegated /48s in device order; ``loop_delegations`` is the subset
    #: whose CPE forwards unknown-IID traffic back out the WAN (§V).
    delegations: List[IPv6Prefix] = field(default_factory=list)
    loop_delegations: List[IPv6Prefix] = field(default_factory=list)


@dataclass
class InternetWorld:
    """A compiled BGP fabric plus its populated CPE-edge periphery."""

    network: Network
    vantage: Host
    core: Router
    fabric: BgpFabric
    #: Routeviews-style attribution table over every announced prefix.
    table: BgpTable
    edges: List[EdgeAs] = field(default_factory=list)
    #: Optional ISP deployments mounted under the vantage core
    #: (``isp_profiles=``), for mixed fabric + profile-catalog worlds.
    isps: Optional[object] = None


def populate_edge_as(
    network: Network,
    fabric: BgpFabric,
    *,
    order: int,
    asn: int,
    country: str,
    n_devices: int,
    n_loops: int,
    rng: random.Random,
    iid_gen: IidGenerator,
    window_bits: int = 8,
    block: Optional[IPv6Prefix] = None,
) -> EdgeAs:
    """Build one edge AS's access router + CPE population.

    The AS must already be declared on the (compiled) fabric; its default
    route points at whatever provider exit the fabric resolved.  The RNG
    draw sequence is byte-identical to the legacy flat builder, so a given
    ``(seed, plan)`` yields the same devices, addresses, and loop flags.
    """
    system = fabric.ases[asn]
    if block is None:
        block = system.block if system.block is not None else _edge_block(order)
    router = IspRouter(
        system.device_name(system.routers[0]), block.address(1), block,
        unassigned_behavior="blackhole",
    )
    next_hop = fabric.edge_default_next_hop(asn)
    if next_hop is not None:
        router.table.add_default(next_hop)
    network.register(router)

    # The paper probes the successive 16-bit sub-prefix space (/32-48);
    # scaled, each AS exposes a window_bits-wide child at /48 granularity.
    # A population that does not fit gets a window of its own, two bits
    # wider than it needs, as the ISP builder sizes one; every AS that fits
    # keeps its window, its draws and its addresses.
    if n_devices > 1 << window_bits:
        window_bits = math.ceil(math.log2(n_devices)) + 2
    base = block.subprefix(1, 48 - window_bits)
    scan_spec = f"{base}-48"
    indices = rng.sample(range(1 << window_bits), n_devices)
    loop_flags = [i < n_loops for i in range(n_devices)]
    rng.shuffle(loop_flags)

    edge = EdgeAs(
        asn=asn, country=country, block=block, scan_spec=scan_spec,
        n_devices=n_devices, n_loops=n_loops, access_router=router.name,
        providers=tuple(
            s.other(asn) for s in fabric.provider_sessions(asn)
        ),
    )

    for i in range(n_devices):
        delegated = base.subprefix(indices[i], 48)
        mix = LOOP_IID_MIX if loop_flags[i] else GENERAL_IID_MIX
        cls = _pick_iid_class(rng, mix)
        if cls is IidClass.EUI64:
            mac = MacAddress(rng.getrandbits(48))
            iid = iid_gen.generate(cls, mac=mac)
        else:
            iid = iid_gen.generate(cls)
        address = delegated.address(iid)
        device = CpeRouter(
            f"as{asn}-dev-{order}-{i}",
            address,
            wan_prefix=delegated,
            lan_prefix=delegated,
            subnet_prefix=None,
            isp_address=router.primary_address,
            vulnerable_wan=loop_flags[i],
        )
        network.register(device)
        router.delegate(delegated, address)
        edge.delegations.append(delegated)
        if loop_flags[i]:
            edge.loop_delegations.append(delegated)

    return edge


def _mount_vantage(fabric: BgpFabric, network: Network) -> Tuple[Host, Router]:
    """Attach the vantage host to the measurement AS's core router."""
    core = fabric.devices[(VANTAGE_ASN, "core")]
    vantage = Host("vantage", IPv6Addr.from_string(VANTAGE_ADDRESS))
    network.attach_host(vantage, core)
    core.table.add_connected(vantage.primary_address.prefix(128), "vantage")
    return vantage, core


def build_internet(
    seed: int = 0,
    scale: float = 1000.0,
    n_tier1: int = 3,
    n_regionals: Optional[int] = None,
    n_ix: int = 2,
    n_tail_ases: int = 220,
    tail_devices_paper: int = 12_000,
    tail_loop_rate: float = 0.012,
    window_bits: int = 8,
    edge_plan: Optional[Sequence[Tuple[int, str, int, int]]] = None,
    multihome_rate: float = 0.25,
    vantage_multihomed: bool = True,
    isp_profiles: Optional[Sequence[object]] = None,
    loss_rate: float = 0.0,
    populate: bool = True,
) -> InternetWorld:
    """Build the Internet-scale scan substrate on a real BGP fabric.

    The edge plan (which ASes exist, how many devices/loops each carries)
    and the per-device draws reproduce the legacy flat builder exactly;
    what changed is the transit above them: ``n_tier1`` DFZ cores fully
    meshed across ``n_ix`` exchanges, ``n_regionals`` regional transits
    buying from them, every edge AS homed under one regional (multi-homed
    under two at ``multihome_rate``), and the measurement AS buying from
    every tier-1 (``vantage_multihomed``) so its best path to any edge
    block is always the 3-AS-hop customer-cone route — four forwarding
    routers before the CPE, preserving the legacy world's even hop parity.

    ``populate=False`` stops after :meth:`BgpFabric.compile` (routers,
    RIBs, and FIBs but no CPE population) — the convergence bench's mode.
    ``edge_plan`` overrides the generated plan with explicit
    ``(asn, country, n_devices, n_loops)`` rows.
    """
    # Legacy device-draw stream: the plan draws come first, then every
    # populate draw, in plan order, with nothing in between.  All topology
    # wiring choices use a separate RNG so they never perturb it.
    rng = random.Random(seed ^ 0xB69)
    iid_gen = IidGenerator(rng)
    wiring = random.Random((seed << 8) ^ 0x1B69)

    if edge_plan is None:
        plan: List[Tuple[int, str, int, int]] = []
        for asn, country, paper_loops in TOP_LOOP_ASES:
            n_loops = max(2, round(paper_loops / scale))
            # Figure 5 ASes are loop-dense: loops ~ 35% of their last hops.
            n_devices = max(n_loops + 2, round(n_loops / 0.35))
            plan.append((asn, country, n_devices, n_loops))
        for i in range(n_tail_ases):
            country = TAIL_COUNTRIES[i % len(TAIL_COUNTRIES)]
            n_devices = max(
                2, round(tail_devices_paper / scale * rng.uniform(0.3, 1.7))
            )
            # About half the tail ASes harbour at least one loop device,
            # matching the paper's 3,877-of-6,911 AS ratio.
            n_loops = rng.choice(
                (0, 1, 1, max(1, round(n_devices * tail_loop_rate * 8)))
            ) if rng.random() < 0.55 else 0
            n_loops = min(n_loops, n_devices)
            plan.append((TAIL_ASN_BASE + i, country, n_devices, n_loops))
    else:
        plan = [tuple(row) for row in edge_plan]  # type: ignore[misc]

    if n_regionals is None:
        n_regionals = max(2, 2 * n_tier1)

    fabric = BgpFabric(seed=seed)
    ix_ids = list(range(1, n_ix + 1))
    for ix_id in ix_ids:
        fabric.add_ix(ix_id)

    # Tier-1s: DFZ cores, present at every exchange, fully peer-meshed.
    tier1: List[int] = []
    for t in range(n_tier1):
        asn = TIER1_BASE + t
        fabric.add_as(
            asn, role=AsRole.TRANSIT,
            block=IPv6Prefix((0x2F00 + t) << 112, 32),
            routers=("core",) + tuple(f"ix{i}" for i in ix_ids),
            country="ZZ",
        )
        tier1.append(asn)
    pair = 0
    for i in range(n_tier1):
        for j in range(i + 1, n_tier1):
            fabric.peer(tier1[i], tier1[j], ix=ix_ids[pair % len(ix_ids)])
            pair += 1

    # Regionals: customers of one tier-1 (two at 50%), sell to the edges.
    regionals: List[int] = []
    for r in range(n_regionals):
        asn = REGIONAL_BASE + r
        fabric.add_as(
            asn, role=AsRole.TRANSIT,
            block=IPv6Prefix((0x2F40 + r) << 112, 32), country="ZZ",
        )
        fabric.provider(tier1[r % n_tier1], asn)
        if n_tier1 > 1 and wiring.random() < 0.5:
            fabric.provider(tier1[(r + 1) % n_tier1], asn)
        regionals.append(asn)

    # The measurement AS: the vantage core, buying from every tier-1.
    fabric.add_as(
        VANTAGE_ASN, role=AsRole.MEASUREMENT, block=VANTAGE_BLOCK,
        device_names={"core": "core"}, country="US",
    )
    for asn in (tier1 if vantage_multihomed else tier1[:1]):
        fabric.provider(asn, VANTAGE_ASN)

    # Edge ASes: unmanaged CPE populations under the regionals.
    placements: List[Tuple[int, Tuple[int, str, int, int]]] = []
    for order, row in enumerate(plan):
        asn, country, _n_devices, _n_loops = row
        block = _edge_block(order)
        primary = regionals[wiring.randrange(n_regionals)]
        providers = [primary]
        if n_regionals > 1 and wiring.random() < multihome_rate:
            step = 1 + wiring.randrange(n_regionals - 1)
            providers.append(
                regionals[(regionals.index(primary) + step) % n_regionals]
            )
        fabric.add_as(
            asn, role=AsRole.EDGE, block=block, country=country,
            router_address=block.address(1),
            router_name=f"as{asn}-edge-{order}",
            primary_provider=primary,
        )
        for provider in providers:
            fabric.provider(provider, asn)
        placements.append((order, row))

    network = fabric.compile()
    vantage, core = _mount_vantage(fabric, network)
    world = InternetWorld(
        network=network, vantage=vantage, core=core, fabric=fabric,
        table=fabric.bgp_table(),
    )

    if populate:
        for order, (asn, country, n_devices, n_loops) in placements:
            world.edges.append(populate_edge_as(
                network, fabric, order=order, asn=asn, country=country,
                n_devices=n_devices, n_loops=n_loops, rng=rng,
                iid_gen=iid_gen, window_bits=window_bits,
            ))

    if isp_profiles is not None:
        from repro.isp.builder import build_deployment

        world.isps = build_deployment(
            profiles=list(isp_profiles), scale=scale, seed=seed,
            loss_rate=loss_rate, network=network, vantage=vantage, core=core,
        )

    return world


#: build_leak_demo's cast, exported so tests and the example agree.
LEAK_DEMO_T1 = TIER1_BASE
LEAK_DEMO_T2 = TIER1_BASE + 1
LEAK_DEMO_R1 = REGIONAL_BASE
LEAK_DEMO_R2 = REGIONAL_BASE + 1
LEAK_DEMO_VICTIM = 65010
LEAK_DEMO_LEAKER = 65099


def build_leak_demo(
    seed: int = 0,
    n_devices: int = 12,
    n_loops: int = 4,
    window_bits: int = 8,
) -> InternetWorld:
    """The two-transit route-leak / hijack demonstration world.

    Topology: tier-1s T1 and T2 peer at IX1; regional R1 buys from T1 and
    R2 from T2; the vantage AS is **single-homed** to T1; the victim edge
    AS (65010, legacy 2a00::/32 block) sits in T2's customer cone under
    R2; and the leaker AS 65099 buys from both T1 and R2 with R2 pinned
    as its primary exit.  Clean path vantage→victim crosses 7 routers
    (T1 core → T1 IX port → T2 IX port → T2 core → R2 → edge); when the
    leaker re-exports R2's victim route to T1, customer preference pulls
    the path through the leaker — 5 routers, same hop parity, measurably
    more §V loop amplification per probe.
    """
    rng = random.Random(seed ^ 0xB69)
    iid_gen = IidGenerator(rng)
    fabric = BgpFabric(seed=seed)
    fabric.add_ix(1)

    for t, asn in enumerate((LEAK_DEMO_T1, LEAK_DEMO_T2)):
        fabric.add_as(
            asn, role=AsRole.TRANSIT,
            block=IPv6Prefix((0x2F00 + t) << 112, 32),
            routers=("core", "ix1"), country="ZZ",
        )
    fabric.peer(LEAK_DEMO_T1, LEAK_DEMO_T2, ix=1)
    fabric.add_as(
        LEAK_DEMO_R1, role=AsRole.TRANSIT,
        block=IPv6Prefix(0x2F40 << 112, 32), country="ZZ",
    )
    fabric.provider(LEAK_DEMO_T1, LEAK_DEMO_R1)
    fabric.add_as(
        LEAK_DEMO_R2, role=AsRole.TRANSIT,
        block=IPv6Prefix(0x2F41 << 112, 32), country="ZZ",
    )
    fabric.provider(LEAK_DEMO_T2, LEAK_DEMO_R2)

    fabric.add_as(
        VANTAGE_ASN, role=AsRole.MEASUREMENT, block=VANTAGE_BLOCK,
        device_names={"core": "core"}, country="US",
    )
    fabric.provider(LEAK_DEMO_T1, VANTAGE_ASN)

    victim_block = _edge_block(0)
    fabric.add_as(
        LEAK_DEMO_VICTIM, role=AsRole.EDGE, block=victim_block, country="BR",
        router_address=victim_block.address(1),
        router_name=f"as{LEAK_DEMO_VICTIM}-edge-0",
        primary_provider=LEAK_DEMO_R2,
    )
    fabric.provider(LEAK_DEMO_R2, LEAK_DEMO_VICTIM)

    # The leaker: a dual-homed stub whose default exits via R2, so leaked
    # traffic it attracts still reaches the victim (a detour, not a sink).
    fabric.add_as(
        LEAK_DEMO_LEAKER, role=AsRole.STUB,
        block=IPv6Prefix(0x2F80 << 112, 32), country="ZZ",
        primary_provider=LEAK_DEMO_R2,
    )
    fabric.provider(LEAK_DEMO_T1, LEAK_DEMO_LEAKER)
    fabric.provider(LEAK_DEMO_R2, LEAK_DEMO_LEAKER)

    network = fabric.compile()
    vantage, core = _mount_vantage(fabric, network)
    edge = populate_edge_as(
        network, fabric, order=0, asn=LEAK_DEMO_VICTIM, country="BR",
        n_devices=n_devices, n_loops=n_loops, rng=rng, iid_gen=iid_gen,
        window_bits=window_bits,
    )
    return InternetWorld(
        network=network, vantage=vantage, core=core, fabric=fabric,
        table=fabric.bgp_table(), edges=[edge],
    )
