"""Forwarding fast-path equivalence and invalidation tests.

The flow cache and block-at-a-time target iteration are pure performance
features: every observable output — reply sets, ordered results, engine
stats, telemetry counters — must be bit-identical to the reference engine
(``Network(flow_cache=False)``) fed one target at a time.  The generated
matrix in ``tests/test_pipeline.py`` covers the cross product; the named
cases here pin the scalar fast path (vector phase held off), plus the
cache-correctness properties it depends on: generation/version
invalidation under prefix rotation and churn, the more-specific-route
guard, and the vectorised building blocks (block SipHash, block address
derivation, validator priming, block target iteration).
"""

from __future__ import annotations

import pytest

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
    Host,
    Router,
)
from repro.net.network import Network
from repro.net.spec import TopologySpec
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


def _echo(src: IPv6Addr, dst: IPv6Addr):
    from repro.net.packet import echo_request

    return echo_request(src, dst, 1, 1, b"x" * 8)
