"""Forwarding fast-path equivalence and invalidation tests.

The flow cache and block-at-a-time target iteration are pure performance
features: every observable output — reply sets, ordered results, engine
stats, telemetry counters — must be bit-identical to the reference engine
(``Network(flow_cache=False)``) fed one target at a time.  The generated
matrix in ``tests/test_pipeline.py`` covers the cross product; the named
cases here pin the scalar fast path (vector phase held off), plus the
cache-correctness properties it depends on: generation
invalidation under prefix rotation and churn, the more-specific-route
guard, and the vectorised building blocks (block SipHash, block address
derivation, validator priming, block target iteration).
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import siphash
from repro.core.blocklist import Blocklist
from repro.core.scanner import ScanConfig, Scanner
from repro.core.siphash import SipKey, siphash24
from repro.core.target import IidStrategy, ScanRange, TargetGenerator
from repro.core.validate import Validator
from repro.engine import Campaign, ProbeSpec
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.device import (
    FLOW_BLACKHOLE,
    FLOW_CACHE_MAX,
    FLOW_CONNECTED,
    FLOW_FORWARD,
    CpeRouter,
    Device,
    Host,
    Router,
)
from repro.net.network import DeliveryTrace, Network, NetworkError
from repro.net.packet import Packet
from repro.net.spec import TopologySpec
from repro.net.testbed import MiniTopology
from repro.telemetry.trace import ProbeTrace
from tests.pipeline import NEVER, engine, observe
from tests.topo import build_mini

SPEC = "2001:db8:1::/56-64"  # 256 sub-prefixes over both CPEs' LAN space


def _config(spec: str = SPEC, **kwargs) -> ScanConfig:
    return ScanConfig(scan_range=ScanRange.parse(spec), seed=5, **kwargs)


def _fast(**kwargs):
    """The scalar fast path: flow cache on, vector phase held off."""
    return observe(vector_min=NEVER, **kwargs)


class TestScanEquivalence:
    """Flow cache on/off and any block size produce identical scans."""

    def test_flow_cache_off_is_identical(self):
        on = _fast(block_size=1)
        off = observe(reference=True)
        assert on == off
        assert on["rows"]  # the scan actually produced replies

    def test_batched_matches_serial(self):
        assert _fast() == observe(reference=True)

    def test_batched_flow_cache_off_matches_serial(self):
        blocks_on_reference_engine = observe(topo=build_mini(flow_cache=False))
        assert blocks_on_reference_engine == _fast(block_size=1)

    @pytest.mark.parametrize("batch_size", [1, 3, 256, 10_000])
    def test_batch_size_does_not_change_results(self, batch_size):
        assert _fast(block_size=batch_size) == observe(reference=True)

    def test_batched_with_blocklist_skip_and_cap(self):
        blocklist = Blocklist(blocked=["2001:db8:1:60::/60"])
        kwargs = dict(blocklist=blocklist, skip=17, max_probes=100)
        serial = observe(reference=True, **kwargs)
        assert _fast(block_size=32, **kwargs) == serial
        assert serial["stats"]["blocked"] > 0


class TestCampaignEquivalence:
    """The same contract holds through the orchestration engine."""

    def _run(self, executor: str, workers=None, **network_kwargs):
        campaign = Campaign(
            TopologySpec.mini(**network_kwargs),
            {"wide": _config()},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            executor=executor,
            workers=workers,
        )
        outcome = campaign.run()
        merged = outcome.results["wide"]
        stats = merged.stats.to_dict()
        stats.pop("wall_seconds")
        return merged.dedup_digest(), stats

    @pytest.mark.parametrize("executor,workers", [
        ("serial", None), ("thread", 2), ("process", 2),
    ])
    def test_batched_matches_serial_per_executor(self, executor, workers):
        default = self._run(executor, workers)
        with engine(block_size=1):  # forked pool workers inherit it
            one_at_a_time = self._run(executor, workers)
        reference = self._run(executor, workers, flow_cache=False)
        assert default == one_at_a_time == reference


class TestFlowCacheInvalidation:
    """Topology churn must never serve a stale forwarding decision."""

    def _first_lan_target(self, topo):
        # A LAN-side /64 behind cpe-ok, resolved through the ISP.
        return IPv6Prefix.from_string("2001:db8:1:51::/64").address(0xAB)

    def test_prefix_rotation_mid_scan_takes_effect(self):
        """Rotating a delegation between probes must reroute immediately.

        This is the paper's churn scenario: an ISP re-delegates customer
        prefixes (§IV-D); a cached next-hop for the old CPE would misroute
        every later probe of that /64.
        """
        topo = build_mini()
        net, isp = topo.network, topo.isp
        target = self._first_lan_target(topo)

        # Warm the ISP's cache: the /64 currently forwards to cpe-ok.
        net.inject(_echo(topo.vantage.primary_address, target), topo.vantage)
        entry = isp.flow_entry(target.value, net)
        assert entry.action == FLOW_FORWARD
        assert entry.next_device is topo.cpe_ok

        # Rotate: the vulnerable CPE takes over cpe-ok's LAN delegation.
        isp.delegate(topo.LAN_OK, topo.cpe_vuln.wan_address)
        entry = isp.flow_entry(target.value, net)
        assert entry.next_device is topo.cpe_vuln, "stale next-hop served"

    def test_unregister_invalidates_via_generation(self):
        topo = build_mini()
        net, isp = topo.network, topo.isp
        target = self._first_lan_target(topo)
        entry = isp.flow_entry(target.value, net)
        assert entry.action == FLOW_FORWARD

        # Removing the CPE bumps network.generation; the cached resolved
        # device must not survive even though the route is unchanged.
        net.unregister(topo.cpe_ok)
        entry = isp.flow_entry(target.value, net)
        assert entry.next_device is not topo.cpe_ok

    def test_route_removal_invalidates_via_table_version(self):
        topo = build_mini()
        net, isp = topo.network, topo.isp
        target = self._first_lan_target(topo)
        assert isp.flow_entry(target.value, net).action == FLOW_FORWARD
        isp.table.remove(topo.LAN_OK)
        # The delegation is gone; the ISP's unassigned-space blackhole for
        # its whole /32 block now covers the target.
        assert isp.flow_entry(target.value, net).action == FLOW_BLACKHOLE

    def test_a_route_edit_anywhere_flushes_every_cache(self):
        """One generation per network: an add or remove on any registered
        device's table empties every device's flow cache, not only the
        edited device's."""
        topo = build_mini()
        net, isp = topo.network, topo.isp
        target = self._first_lan_target(topo)
        isp.flow_entry(target.value, net)
        misses = net.flow_misses
        isp.flow_entry(target.value, net)
        assert net.flow_misses == misses  # served from the cache
        topo.cpe_vuln.table.add_blackhole(
            IPv6Prefix.from_string("2001:dead::/48")
        )
        assert isp.flow_entry(target.value, net).action == FLOW_FORWARD
        assert net.flow_misses == misses + 1

    def test_scan_after_rotation_sees_new_world(self):
        """End-to-end: scans before and after rotation differ, and the
        post-rotation scan equals a cacheless post-rotation scan."""

        def run(flow_cache: bool):
            topo = build_mini(flow_cache=flow_cache)
            scanner = Scanner(
                topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
                _config(max_probes=40),
            )
            before = scanner.run().dedup_digest()
            # Swap both CPEs' LAN delegations mid-campaign.
            topo.isp.delegate(topo.LAN_OK, topo.cpe_vuln.wan_address)
            topo.isp.delegate(topo.LAN_VULN, topo.cpe_ok.wan_address)
            after = Scanner(
                topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
                _config(max_probes=40),
            ).run().dedup_digest()
            return before, after

        cached_before, cached_after = run(flow_cache=True)
        plain_before, plain_after = run(flow_cache=False)
        assert cached_before == plain_before
        assert cached_after == plain_after
        assert cached_before != cached_after  # rotation changed the answers


class TestFlowCacheGuards:
    """Cacheability guards: more-specific routes and the size cap."""

    def _router_net(self):
        net = Network(seed=1)
        router = Router("r", IPv6Addr.from_string("2001:db8::1"))
        net.register(router)
        return net, router

    def test_specific_route_inside_slash64_is_not_cached(self):
        """A /128 host route inside a /64 must defeat /64-granular caching.

        This is exactly the vulnerable-CPE WAN shape: a host route for the
        CPE's own WAN address inside an otherwise-delegated /64.
        """
        net, router = self._router_net()
        slash64 = IPv6Prefix.from_string("2001:db8:0:5::/64")
        gateway = IPv6Addr.from_string("2001:db8:ffff::1")
        host = slash64.address(0x42)
        net.register(Host("gw", gateway))
        router.table.add_next_hop(slash64, gateway)
        router.table.add_connected(host.prefix(128))

        # The host route and the covering /64 route resolve differently...
        assert router.flow_entry(host.value, net).action == FLOW_CONNECTED
        assert (
            router.flow_entry(slash64.address(0x43).value, net).action
            == FLOW_FORWARD
        )
        # ...so neither decision may have been cached under the /64 key.
        assert slash64.network >> 64 not in router._flow_cache

    def test_cacheable_slash64_is_cached_and_hit(self):
        net, router = self._router_net()
        slash64 = IPv6Prefix.from_string("2001:db8:0:5::/64")
        gateway = IPv6Addr.from_string("2001:db8:ffff::1")
        net.register(Host("gw", gateway))
        router.table.add_next_hop(slash64, gateway)
        router.flow_entry(slash64.address(1).value, net)
        misses = net.flow_misses
        # Any other address of the /64 is a pure dict hit.
        router.flow_entry(slash64.address(2).value, net)
        assert net.flow_misses == misses
        assert net.flow_hits >= 1

    def test_cache_cap_clears_instead_of_growing(self):
        net, router = self._router_net()
        router.table.add_blackhole(IPv6Prefix.from_string("2001:db8::/32"))
        router._flow_cache = {
            key: router.flow_entry(0x20010DB8 << 96, net)
            for key in range(FLOW_CACHE_MAX)
        }
        router.flow_entry((0x20010DB8 << 96) | (0xFFFF << 64), net)
        assert len(router._flow_cache) == 1  # cleared, then one insert

    def test_network_flow_cache_flag_disables_fast_path(self):
        topo = build_mini(flow_cache=False)
        net = topo.network
        net.inject(
            _echo(topo.vantage.primary_address,
                  self_target := topo.SUBNET_OK.address(0x99)),
            topo.vantage,
        )
        assert net.flow_hits == 0 and net.flow_misses == 0
        assert self_target  # quiet lints


class TestVectorisedBuildingBlocks:
    """The block-at-a-time helpers are bit-identical to their scalar forms."""

    KEY = bytes(range(16))

    def test_hash_uints_block_matches_scalar_and_reference(self):
        key = SipKey(self.KEY)
        values = [0, 1, 0xFFFF, (1 << 128) - 1, 0x20010DB8 << 96,
                  *(v * 0x9E3779B97F4A7C15 for v in range(100))]
        block = key.hash_uints_block(values)
        for value, hashed in zip(values, block):
            assert hashed == key.hash_uints(value)
            assert hashed == siphash24(
                self.KEY, (value & ((1 << 128) - 1)).to_bytes(16, "little")
            )

    def test_hash_uints_block_small_blocks_use_scalar_path(self):
        key = SipKey(self.KEY)
        values = [5, 6, 7]  # below _VECTOR_MIN
        assert key.hash_uints_block(values) == [
            key.hash_uints(v) for v in values
        ]

    def test_addresses_block_matches_scalar_all_strategies(self):
        rng = ScanRange.parse("2001:db8::/48-64")
        for strategy in IidStrategy:
            gen = TargetGenerator(rng, strategy=strategy, seed=9)
            indices = list(range(64))
            assert gen.addresses_block(indices) == [
                gen.address(i) for i in indices
            ]

    def test_addresses_block_wide_host_bits_hash_in_lanes(
        self, scalar_hash_calls
    ):
        # >64 host bits is two hashes per IID, ``(index)`` and ``(index, 1)``:
        # both come out of the lane kernel, none out of the scalar one.
        rng = ScanRange.parse("2001:db8::/32-48")
        gen = TargetGenerator(rng, seed=9)
        indices = list(range(32))
        block = gen.addresses_block(indices)
        if siphash._np is not None:
            assert scalar_hash_calls == []
        assert block == [gen.address(i) for i in indices]

    def test_validator_prime_matches_unprimed_tags(self):
        values = [(0x20010DB8 << 96) | i for i in range(50)]
        primed = Validator(self.KEY)
        primed.prime(values)
        fresh = Validator(self.KEY)
        for value in values:
            assert primed.tag(value) == fresh.tag(value)
        # Unprimed destinations still compute correctly after priming.
        other = (0x20010DB9 << 96) | 7
        assert primed.tag(other) == fresh.tag(other)

    def test_target_blocks_match_targets_bookkeeping(self):
        """``targets()`` pulls indices a block at a time; what it yields and
        the bookkeeping it leaves behind do not depend on the block size."""
        blocklist = Blocklist(blocked=["2001:db8:1:60::/60"])
        kwargs = dict(blocklist=blocklist, skip=10, max_probes=150)

        def walk(block_size):
            topo = build_mini()
            scanner = Scanner(
                topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
                _config(**kwargs),
            )
            with engine(block_size=block_size):
                # (target, position, blocked) as the consumer sees them.
                steps = [(address, scanner.position, scanner.blocked_count)
                         for address in scanner.targets()]
            return steps, scanner.position, scanner.blocked_count

        one_by_one = walk(1)
        steps, position, blocked = one_by_one
        assert len(steps) == 150 and blocked > 0
        assert position == 10 + 150 + blocked  # stopped at the cap
        # Position while a target is out == every index consumed up to it.
        assert [s[1] - s[2] for s in steps] == list(range(11, 161))
        for size in (7, 64, 256):
            assert walk(size) == one_by_one


VANTAGE = IPv6Addr.from_string("2001:4860::100")
#: Not-used space the vulnerable CPE bounces back to its ISP router: a /64
#: of its delegation outside the advertised subnet, and its WAN /64.
LOOP_LAN = IPv6Addr.from_string("2001:db8:1:61::5")
LOOP_WAN = MiniTopology.WAN_VULN.address(0x99)
DESTINATIONS = {
    "loop-lan": LOOP_LAN,
    "loop-wan": LOOP_WAN,
    "on-link": MiniTopology.SUBNET_VULN.address(0x5),  # NDP miss at the CPE
    "healthy": MiniTopology.SUBNET_OK.address(0x5),
    "unassigned": IPv6Addr.from_string("2001:db9::1"),  # no route at the core
    "blackholed": IPv6Addr.from_string("2001:db8:9::1"),  # the ISP discards
    "vantage": VANTAGE,
}
#: A spoofed source inside looping space: the Time Exceeded loops as well
#: (``run_loop_attack``'s second burn).
SOURCES = {"vantage": VANTAGE, "spoofed": IPv6Addr.from_string("2001:db8:1:62::7")}
#: Everything that observes single hops, and so keeps the walk.
OBSERVERS = ("none", "record-links", "loss", "link-loss", "trace",
             "bounce-limit")


def _loop_world(flow_cache: bool, observer: str, max_hops: int):
    """``mini`` under one per-hop observer; returns ``(topo, span)``."""
    topo = build_mini(
        flow_cache=flow_cache, max_hops=max_hops,
        record_links=observer == "record-links",
        loss_rate=0.003 if observer == "loss" else 0.0,
    )
    network, span = topo.network, None
    if observer == "link-loss":
        network.link_loss[("isp", "cpe-vuln")] = 0.004
        network.fault_rng = random.Random(9)
    elif observer == "trace":
        span = network.active_trace = ProbeTrace(0, "loop")
    elif observer == "bounce-limit":
        _limit_bounces(topo)
    return topo, span


def _limit_bounces(topo, isp_address=None):
    """Swap ``mini``'s vulnerable CPE for one whose firmware stops a loop
    after ten bounces toward ``isp_address`` (its ISP router by default)."""
    old = topo.cpe_vuln
    topo.network.unregister(old)
    topo.cpe_vuln = topo.network.register(CpeRouter(
        old.name, old.wan_address, old.wan_prefix, old.lan_prefix,
        subnet_prefix=old.subnet_prefix,
        isp_address=isp_address or old.isp_address,
        vulnerable_wan=True, vulnerable_lan=True, loop_forward_limit=10,
    ))
    return topo.cpe_vuln


def _loop_outcome(flow_cache, observer, packet, max_hops, repeat=3):
    """Everything ``repeat`` injections of ``packet`` leave behind."""
    topo, span = _loop_world(flow_cache, observer, max_hops)
    network = topo.network
    results = []
    try:
        for _ in range(repeat):  # the later ones find the caches warm
            inbox, trace = network.inject(packet, topo.vantage)
            results.append({
                "inbox": [reply.encode() for reply in inbox],
                "hops": trace.hops, "drops": trace.drops,
                "errors": trace.errors_generated,
                "delivered": trace.delivered,
                "links": sorted(trace.link_counts.items()),
            })
    except NetworkError as exc:
        results.append(str(exc))
    fault_rng = network.fault_rng
    return {
        "results": results,
        "total_hops": network.total_hops,
        "total_injected": network.total_injected,
        "suppressed": {name: device.errors_suppressed
                       for name, device in network.devices.items()},
        "rng": network.rng.getstate(),
        "fault_rng": fault_rng.getstate() if fault_rng is not None else None,
        "fault_drops": network.fault_drops,
        "bounces": topo.cpe_vuln._loop_bounces,
        "span": span.events if span is not None else None,
    }


class TestLoopExit:
    """The scalar fast path burns a routing loop in one step
    (``network.loop_exit``); nothing a caller can see tells it from the
    reference engine's hop-by-hop walk, and whatever observes single hops
    still gets every one of them."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        hop_limit=st.integers(min_value=0, max_value=255),
        dst=st.sampled_from(sorted(DESTINATIONS)),
        src=st.sampled_from(sorted(SOURCES)),
        budget=st.sampled_from(["probe", "error", "never"]),
        offset=st.integers(min_value=-3, max_value=3),
    )
    def test_matches_the_reference_walk(
        self, hop_limit, dst, src, budget, offset
    ):
        # ``max_hops`` around where the probe's own burn ends, around where
        # a looping Time Exceeded's (255 more hops) does, or out of reach.
        max_hops = {"probe": hop_limit + offset,
                    "error": hop_limit + 255 + offset, "never": 4096}[budget]
        packet = _echo(SOURCES[src], DESTINATIONS[dst], hop_limit)
        for observer in OBSERVERS:
            fast = _loop_outcome(True, observer, packet, max_hops)
            assert fast == _loop_outcome(False, observer, packet, max_hops), (
                observer
            )
            walked = [r for r in fast["results"] if isinstance(r, dict)]
            if observer == "record-links":
                for result in walked:
                    assert sum(n for _, n in result["links"]) == result["hops"]
            elif observer == "trace" and len(walked) == len(fast["results"]):
                hops = [e for e in fast["span"] if e["event"] == "hop"]
                assert len(hops) == fast["total_hops"]

    def test_the_cases_cover_both_burns_and_the_overrun(self):
        probe = _echo(VANTAGE, LOOP_LAN, 255)
        once = _loop_outcome(True, "none", probe, 4096, repeat=1)
        assert once["results"][0]["hops"] == 258  # 255 out, 3 back
        assert len(once["results"][0]["inbox"]) == 1
        spoofed = _echo(SOURCES["spoofed"], LOOP_WAN, 200)
        twice = _loop_outcome(True, "none", spoofed, 4096, repeat=1)
        assert twice["results"][0]["hops"] == 200 + 255  # both burns
        assert twice["results"][0]["inbox"] == []
        over = _loop_outcome(True, "none", probe, 254, repeat=1)
        assert "exceeded 254 hops" in over["results"][0]
        limited = _loop_outcome(True, "bounce-limit", probe, 4096, repeat=1)
        assert limited["results"][0]["hops"] < 30  # the firmware gave up

    @pytest.mark.parametrize("hop_limit", [2, 3, 64, 254, 255])
    @pytest.mark.parametrize("dst", ["loop-lan", "loop-wan"])
    def test_a_loop_costs_a_handful_of_lookups_whatever_its_length(
        self, monkeypatch, hop_limit, dst
    ):
        """Work counted, not timed: both parities of the hops skipped."""
        packet = _echo(VANTAGE, DESTINATIONS[dst], hop_limit)
        want = _loop_outcome(False, "none", packet, 4096, repeat=1)
        calls = {"lookups": 0, "copies": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(Device, "flow_entry", "lookups")
        counting(Packet, "with_hop_limit", "copies")
        assert _loop_outcome(True, "none", packet, 4096, repeat=1) == want
        # Out, then two or three hops back from whichever router held it.
        assert want["results"][0]["hops"] - hop_limit in (2, 3)
        assert 0 < calls["lookups"] <= 8 and 0 < calls["copies"] <= 8
        # The walk, where something watches it, is still one of each a hop.
        calls.update(lookups=0, copies=0)
        _loop_outcome(True, "record-links", packet, 4096, repeat=1)
        if hop_limit >= 64:
            assert calls["lookups"] >= hop_limit - 2
            assert calls["copies"] >= hop_limit - 2

    def test_a_second_packet_in_flight_keeps_the_walk(self):
        """Two packets in one loop take turns hop by hop; jumping one would
        move its Time Exceeded ahead of the other's in the limiter and the
        inbox.  The columnar replay is the caller that seeds a drain."""

        def drain(flow_cache: bool):
            topo = build_mini(flow_cache=flow_cache)
            inbox, trace = [], DeliveryTrace()
            topo.network._drain(
                deque([
                    (topo.isp, _echo(VANTAGE, LOOP_LAN, 6, seq=1)),
                    (topo.cpe_vuln, _echo(VANTAGE, LOOP_LAN, 11, seq=2)),
                ]),
                topo.vantage, inbox, trace,
            )
            return ([reply.encode() for reply in inbox], trace.hops,
                    trace.errors_generated, topo.network.total_hops)

        fast = drain(True)
        assert fast == drain(False)
        assert len(fast[0]) == 2 and fast[0][0] != fast[0][1]

    def test_a_cycle_through_a_device_that_counts_is_walked(self):
        """isp -> cpe -> upstream -> isp, where the CPE's firmware counts
        its bounces: the upstream router sends the packet to the device the
        last *pure* hop left from, but not straight back from where that hop
        went — no 2-cycle, and the CPE must see every pass."""
        upstream_addr = IPv6Addr.from_string("2001:db8:0:7::1")

        def run(flow_cache: bool):
            topo = build_mini(flow_cache=flow_cache)
            network = topo.network
            upstream = network.register(Router("upstream", upstream_addr))
            upstream.table.add_default(topo.isp.primary_address)
            cpe = _limit_bounces(topo, isp_address=upstream_addr)
            inbox, trace = network.inject(_echo(VANTAGE, LOOP_LAN, 255),
                                          topo.vantage)
            return ([reply.encode() for reply in inbox], trace.hops,
                    trace.drops, trace.errors_generated, cpe._loop_bounces)

        fast = run(True)
        assert fast == run(False)
        assert fast[0] == [] and fast[1] == 3 + 3 * 10  # given up, silently


def _echo(src: IPv6Addr, dst: IPv6Addr, hop_limit: int = 64, seq: int = 1):
    from repro.net.packet import echo_request

    return echo_request(src, dst, 1, seq, b"x" * 8, hop_limit=hop_limit)
