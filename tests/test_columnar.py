"""Columnar forwarding engine equivalence and invalidation tests.

The columnar engine (:mod:`repro.net.columnar`) is a pure performance
feature: every observable output — reply bytes, ordered results, engine
stats, store rows, telemetry counters — must be bit-identical to the
scalar oracle.  The generated matrix in ``tests/test_pipeline.py`` covers
the cross product on the mini testbed; the named cases here force the
vector phase on every chunk (``vector_min=ALWAYS``) and pin the contract
at three levels (raw ``inject_block`` vs sequential ``inject``, single
scans, campaigns across executors), on three worlds (the mini testbed, the
Table-IX-style BGP internet, the route-leak demo), plus the safety
properties the fast path depends on: generation stamp invalidation,
fault-schedule fallback to scalar, and the no-numpy degradation path.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocklist import Blocklist
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine import Campaign, ProbeSpec
from repro.faults import ROUTE_SET, FaultEvent, FaultSchedule
from repro.net import columnar
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.device import Host, Router
from repro.net.network import Network, NetworkError
from repro.net.packet import echo_request
from repro.net.routing import RouteKind
from repro.net.spec import TopologySpec
from repro.net.testbed import MiniTopology
from tests.pipeline import (
    ALWAYS,
    LOOP_SPEC,
    NEVER,
    WORLDS,
    build_world,
    device_state,
    engine,
    observables,
    observe,
)
from tests.topo import build_mini

needs_numpy = pytest.mark.skipif(
    columnar._np is None, reason="vector phase needs numpy; the no-numpy "
    "CI leg still runs every fallback-equivalence test above"
)

SPEC = "2001:db8:1::/56-64"  # 256 sub-prefixes over both CPEs' LAN space


def _config(spec: str = SPEC, **kwargs) -> ScanConfig:
    return ScanConfig(scan_range=ScanRange.parse(spec), seed=5, **kwargs)


def _vector(**kwargs):
    """Every chunk through the vector phase (where it is usable)."""
    return observe(vector_min=ALWAYS, **kwargs)


#: A host behind the healthy CPE, and a prefix the core routes through it.
LAN_HOST = MiniTopology.SUBNET_OK.address(0x99)
THROUGH_HOST = IPv6Prefix.from_string("2001:db9:1::/48")


def _with_hosts(topo):
    """Give the way home a host to end at and a host to die in."""
    topo.network.attach_host(Host("lan-host", LAN_HOST), topo.cpe_ok)
    topo.core.table.add_next_hop(THROUGH_HOST, LAN_HOST)
    return topo


def _outcome_key(outcomes):
    """Byte-level projection of inject/inject_block results."""
    return [
        (
            [p.encode() for p in inbox],
            trace.hops,
            trace.drops,
            trace.delivered,
            trace.errors_generated,
            sorted(trace.link_counts.items()),
        )
        for inbox, trace in outcomes
    ]


class TestInjectBlockEquivalence:
    """Raw ``Network.inject_block`` vs a sequential ``inject`` loop."""

    def _mixed_packets(self, topo):
        probe = ProbeSpec.for_seed(5).build()
        source = topo.vantage.primary_address
        targets = [
            # Delivered: the CPEs' own WAN addresses (echo replies).
            MiniTopology.WAN_OK.address(0xDEADBEEF),
            MiniTopology.WAN_VULN.address(0x1234),
            # LAN space behind the healthy CPE (on-link NDP miss).
            MiniTopology.SUBNET_OK.address(0x1),
            # The forwarding loop: bounces isp <-> cpe-vuln until the hop
            # limit dies (time-exceeded from whichever router holds it).
            IPv6Addr.from_string("2001:db8:1:61::5"),
            IPv6Addr.from_string("2001:db8:1:62::9"),
            # The UE prefix and unrouted space outside the ISP block.
            MiniTopology.UE_PREFIX.address(0x77),
            IPv6Addr.from_string("2001:db9::1"),
            # The vantage's own address (degenerate local delivery).
            source,
        ]
        packets = []
        for hop_limit in (64, 4, 2, 1):
            packets.extend(
                probe.build(source, dst).with_hop_limit(hop_limit)
                for dst in targets
            )
        return packets

    def _compare(self, packets_for, clocks_present: bool):
        topo_a, topo_b = build_mini(), build_mini()
        packets = packets_for(self, topo_a)
        clocks = (
            [i * 0.0005 for i in range(len(packets))]
            if clocks_present else None
        )
        with engine(vector_min=ALWAYS):
            fast = columnar.inject_block(
                topo_a.network, packets, topo_a.vantage, clocks
            )
        slow = columnar._sequential(
            topo_b.network, packets_for(self, topo_b), topo_b.vantage, clocks
        )
        assert _outcome_key(fast) == _outcome_key(slow)
        assert topo_a.network.total_injected == topo_b.network.total_injected
        assert topo_a.network.total_hops == topo_b.network.total_hops
        assert topo_a.network.clock == topo_b.network.clock

    def test_mixed_targets_match_sequential(self):
        self._compare(TestInjectBlockEquivalence._mixed_packets, True)

    def test_without_clocks_matches_sequential(self):
        self._compare(TestInjectBlockEquivalence._mixed_packets, False)

    def test_clock_restored_after_block(self):
        topo = build_mini()
        topo.network.clock = 1.25
        packets = self._mixed_packets(topo)
        columnar.inject_block(
            topo.network, packets, topo.vantage,
            [2.0 + i for i in range(len(packets))],
        )
        assert topo.network.clock == 1.25

    def test_clock_list_must_match_packets(self):
        topo = build_mini()
        packets = self._mixed_packets(topo)
        with pytest.raises(ValueError):
            columnar.inject_block(
                topo.network, packets, topo.vantage, [0.0]
            )


    def test_a_forwarding_vantage_spawns_through_its_own_table(self):
        """A router as vantage originates by its routes, not a gateway."""
        probe = ProbeSpec.for_seed(5).build()

        def run(fast: bool):
            topo = build_mini()
            isp = topo.isp
            # Every way a router's own packet can leave it, or fail to:
            isp.table.add_unreachable(MiniTopology.UE_PREFIX)
            isp.table.add_connected(MiniTopology.WAN_OK, "wan")
            topo.network.unregister(topo.cpe_vuln)
            targets = [
                MiniTopology.SUBNET_OK.address(0x1),  # next hop resolves
                MiniTopology.SUBNET_VULN.address(0x1),  # ...and does not
                MiniTopology.WAN_OK.address(0xDEADBEEF),  # on-link, owned
                MiniTopology.WAN_OK.address(0x5),  # on-link, nobody's
                MiniTopology.UE_PREFIX.address(0x77),  # unreachable route
                IPv6Addr.from_string("2001:db9::1"),  # the default route
                IPv6Addr.from_string("2001:db8:ffff::1"),  # blackholed
                isp.primary_address,  # itself
            ]
            packets = [
                probe.build(isp.primary_address, dst).with_hop_limit(h)
                for h in (64, 2, 1) for dst in targets
            ]
            with engine(vector_min=ALWAYS):
                call = columnar.inject_block if fast else columnar._sequential
                outcomes = call(topo.network, packets, isp, None)
            return (_outcome_key(outcomes), topo.network.total_hops,
                    topo.network.total_injected)

        fast = run(True)
        assert fast == run(False)
        drops = [key[2] for key in fast[0]]
        assert 0 in drops and 1 in drops  # some left, some never did

    @pytest.mark.parametrize("hop_limit", [2, 4])
    def test_an_error_originated_into_a_blackhole_is_discarded(
        self, hop_limit
    ):
        """§VI-A's spoofed source inside the ISP's blackholed unassigned
        space: the Time Exceeded the ISP router originates for a looping
        probe is discarded in silence on every engine (it used to trip an
        assertion in ``Network._originate``)."""
        spoofed = IPv6Addr.from_string("2001:db8:ffff::1")
        looping = IPv6Addr.from_string("2001:db8:1:61::5")
        seen = []
        for flow_cache, lanes in ((False, False), (True, False), (True, True)):
            topo = build_mini(flow_cache=flow_cache)
            packet = echo_request(spoofed, looping, 1, 2, hop_limit=hop_limit)
            with engine(vector_min=ALWAYS):
                if lanes:
                    outcomes = columnar.inject_block(
                        topo.network, [packet], topo.vantage
                    )
                else:
                    outcomes = [topo.network.inject(packet, topo.vantage)]
            seen.append((_outcome_key(outcomes), topo.network.total_hops,
                         device_state(topo.network)))
        assert seen[0] == seen[1] == seen[2]
        ((inbox, hops, drops, delivered, errors, _),) = seen[0][0]
        assert (inbox, hops, drops, delivered, errors) == (
            [], hop_limit, 0, 0, 1
        )

    @pytest.mark.parametrize("max_hops", [200, 4096])
    def test_a_loop_on_the_way_home_and_an_overrun_there(self, max_hops):
        """The ISP routes the vantage back into the healthy CPE, so every
        error it raises loops home until its own hop limit runs out — 255
        hops past ``max_hops`` = 200, where the walk raises."""

        def run(fast: bool):
            topo = build_mini(max_hops=max_hops)
            topo.isp.delegate(topo.vantage.primary_address.prefix(128),
                              MiniTopology.WAN_OK.address(0xDEADBEEF))
            probe = ProbeSpec.for_seed(5).build()
            source = topo.vantage.primary_address
            packets = [  # Time Exceeded at the ISP router, then the loop
                probe.build(source, dst).with_hop_limit(2)
                for dst in (MiniTopology.SUBNET_OK.address(0x1),
                            MiniTopology.UE_PREFIX.address(0x77))
            ]
            call = columnar.inject_block if fast else columnar._sequential
            try:
                with engine(vector_min=ALWAYS):
                    outcomes = _outcome_key(
                        call(topo.network, packets, topo.vantage, None)
                    )
            except NetworkError as error:
                return str(error)
            return (outcomes, topo.network.total_hops,
                    device_state(topo.network))

        walked = run(False)
        assert run(True) == walked
        if max_hops == 200:
            assert "exceeded 200 hops" in walked
        else:
            assert [key[1] for key in walked[0]] == [2 + 255] * 2

    ADDRESSES = [
        MiniTopology.WAN_OK.address(0xDEADBEEF),
        MiniTopology.WAN_VULN.address(0x1234),
        MiniTopology.SUBNET_OK.address(0x1),
        IPv6Addr.from_string("2001:db8:1:61::5"),
        IPv6Addr.from_string("2001:db8:1:6f::9"),
        MiniTopology.UE_PREFIX.address(0x42),
        MiniTopology.UE_PREFIX.address(0x77),
        IPv6Addr.from_string("2001:db9::1"),
        IPv6Addr.from_string("2001:4860::100"),  # the vantage itself
        IPv6Addr.from_string("2001:4860::1"),  # its gateway
    ]

    #: Probe sources, hence where the errors go home to: None is the
    #: vantage; the others are spoofed (§VI-A).
    SOURCES = [
        None,
        IPv6Addr.from_string("2001:db8:ffff::1"),  # the ISP's blackhole
        IPv6Addr.from_string("2001:db8:1:6a::1"),  # loops until spent
        LAN_HOST,  # ends at a host that owns it
        THROUGH_HOST.address(0x5),  # dies in a host on the way
        MiniTopology.SUBNET_OK.address(0x5),  # on-link, NDP fails
    ]

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_every_way_home_in_every_world(self, world):
        """Every source for a few of the targets, lanes 7.5 virtual seconds
        apart: the generated property below, pinned."""
        probe = ProbeSpec.for_seed(5).build()
        targets = [
            MiniTopology.SUBNET_OK.address(0x1),
            IPv6Addr.from_string("2001:db8:1:61::5"),
            IPv6Addr.from_string("2001:db9::1"),
        ]

        def run(fast: bool):
            topo = _with_hosts(build_world(world))
            vantage = topo.vantage.primary_address
            packets = [
                probe.build(source or vantage, dst).with_hop_limit(hop_limit)
                for source in self.SOURCES for dst in targets
                for hop_limit in (2, 255)
            ]
            clocks = [i * 7.5 for i in range(len(packets))]
            call = columnar.inject_block if fast else columnar._sequential
            with engine(vector_min=ALWAYS):
                outcomes = call(topo.network, packets, topo.vantage, clocks)
            return (_outcome_key(outcomes), topo.network.total_hops,
                    device_state(topo.network))

        walked = run(False)
        assert run(True) == walked
        assert any(inbox for inbox, *_ in walked[0])

    @settings(max_examples=150, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.sampled_from(ADDRESSES),
                      st.sampled_from([1, 2, 3, 4, 5, 63, 64, 255]),
                      st.sampled_from(SOURCES)),
            min_size=1, max_size=90,
        ),
        clocked=st.booleans(),
        # 7.5 s apart, the core's neighbour entry for the vantage (30 s)
        # expires between two lanes of one chunk.
        step=st.sampled_from([0.0004, 7.5]),
        lazy=st.booleans(),
        world=st.sampled_from(sorted(WORLDS)),
    )
    def test_lazy_result_equals_the_sequential_list(
        self, probes, clocked, step, lazy, world
    ):
        """The result iterates as ``_sequential``'s list — inbox packets,
        hops, drops, delivered, errors — whether the chunk came as built
        packets or as lanes whose packets are built on demand, and every
        device is left in the same state: neighbour caches and error
        limiters are what the walk home would have left."""
        probe = ProbeSpec.for_seed(5).build()

        def packets_for(topo):
            vantage = topo.vantage.primary_address
            return [
                probe.build(source or vantage, dst).with_hop_limit(hop_limit)
                for dst, hop_limit, source in probes
            ]

        clocks = [i * step for i in range(len(probes))] if clocked else None
        slow_topo = _with_hosts(build_world(world))
        fast_topo = _with_hosts(build_world(world))
        slow = columnar._sequential(
            slow_topo.network, packets_for(slow_topo), slow_topo.vantage,
            clocks,
        )
        packets = packets_for(fast_topo)
        built = []
        with engine(vector_min=ALWAYS):
            block = packets
            if lazy:
                lanes = columnar.Lanes(
                    fast_topo.network, fast_topo.vantage,
                    [dst.value for dst, _, _ in probes],
                    [hop_limit for _, hop_limit, _ in probes],
                )

                def packet(i):
                    built.append(i)
                    return packets[i]

                block = columnar.Probes([(lanes, range(len(probes)))],
                                        packet)
            fast = columnar.inject_block(
                fast_topo.network, block, fast_topo.vantage, clocks
            )
        assert len(fast) == len(slow)
        first_pass = _outcome_key(fast)
        assert first_pass == _outcome_key(slow)
        assert _outcome_key(fast) == first_pass  # it iterates again, alike
        assert list(fast.hops) == [trace.hops for _, trace in slow]
        assert list(fast.drops) == [trace.drops for _, trace in slow]
        assert fast_topo.network.total_hops == slow_topo.network.total_hops
        assert (fast_topo.network.total_injected
                == slow_topo.network.total_injected)
        assert fast_topo.network.clock == slow_topo.network.clock
        assert (device_state(fast_topo.network)
                == device_state(slow_topo.network))
        # A probe whose reply (or error) came back was finished by the
        # scalar engine, from a packet built exactly once.
        answered = [i for i, (inbox, _) in enumerate(slow) if inbox]
        assert set(answered) <= set(fast.ejected)
        if lazy and columnar._np is not None:
            assert sorted(built) == sorted(fast.ejected)


#: Lane verdicts the replay settles, by name.
VERDICTS = {
    "delivery-or-hook": columnar._EJECT,
    "no-route": columnar._NO_ROUTE,
    "hop-limit": columnar._SPENT,
    "on-link": columnar._ON_LINK,
}


class TestVerdictReplay:
    """An error lane is finished from its vector-phase verdict — NDP where
    on-link, then ``_make_error`` and the return plan — without the drain.
    Each verdict and each thing its stateful step can meet is hit, counted,
    and compared with the sequential oracle."""

    #: One target per verdict (and per way NDP can go) in the mini world.
    TARGETS = [
        LAN_HOST,  # on-link at cpe-ok, NDP resolves: the host answers
        MiniTopology.SUBNET_OK.address(0x1),  # on-link, NDP fails
        MiniTopology.UE_PREFIX.address(0x77),  # on-link at the UE, fails
        IPv6Addr.from_string("2001:db8:1:51::1"),  # cpe-ok's unreachable
        IPv6Addr.from_string("2001:db9::1"),  # the core has no route
        IPv6Addr.from_string("2001:db8:1:61::5"),  # loops until spent
        MiniTopology.WAN_OK.address(0xDEADBEEF),  # delivered
    ]

    def _probes(self):
        """A burst of every target at every hop limit at one instant —
        cpe-ok's error bucket (100) runs dry — then one failing on-link
        target a second apart, so its negative neighbour entry (3 s) is
        hit twice and expires between two lanes, over and over."""
        burst = [(dst, hop_limit) for _ in range(30)
                 for dst in self.TARGETS for hop_limit in (255, 64, 2, 1)]
        paced = [(MiniTopology.SUBNET_OK.address(0x1), 64)] * 12
        clocks = [0.0] * len(burst) + [1.0 + k for k in range(len(paced))]
        return burst + paced, clocks

    def _run(self, world: str, fast: bool, rows: bool = False):
        topo = _with_hosts(build_world(world))
        probe = ProbeSpec.for_seed(5).build()
        source = topo.vantage.primary_address
        probes, clocks = self._probes()
        packets = [probe.build(source, dst).with_hop_limit(hop_limit)
                   for dst, hop_limit in probes]
        verdicts = {}
        with engine(vector_min=ALWAYS):
            if fast:
                lanes = columnar.Lanes(
                    topo.network, topo.vantage,
                    [dst.value for dst, _ in probes],
                    [hop_limit for _, hop_limit in probes],
                )
                verdicts = {name: int((lanes.status == code).sum())
                            for name, code in VERDICTS.items()}
                block = columnar.Probes(
                    [(lanes, range(len(probes)))],
                    packets.__getitem__, source if rows else None,
                )
                outcomes = columnar.inject_block(
                    topo.network, block, topo.vantage, clocks
                )
            else:
                outcomes = columnar._sequential(
                    topo.network, packets, topo.vantage, clocks
                )
        key = (_outcome_key(outcomes), topo.network.total_hops,
               topo.network.total_injected, topo.network.clock,
               device_state(topo.network))
        return key, verdicts, topo, outcomes

    @needs_numpy
    @pytest.mark.parametrize("world", ["mini", "drop-external"])
    def test_every_verdict_matches_sequential(self, world):
        walked, *_ = self._run(world, fast=False)
        settled, verdicts, fast, _ = self._run(world, fast=True)
        assert settled == walked
        # Coverage, asserted: every verdict was replayed...
        assert all(verdicts.values()), verdicts
        inboxes, *_ = zip(*walked[0])
        sources = {IPv6Addr.from_bytes(packet[8:24])
                   for inbox in inboxes for packet in inbox}
        # ...an on-link NDP succeeded (the host's echo reply came home)...
        assert LAN_HOST in sources
        # ...an error bucket ran dry...
        assert fast.cpe_ok.errors_suppressed > 0
        # ...a negative neighbour entry was hit, then expired and re-asked.
        cache = fast.cpe_ok.neighbor_cache
        assert cache.hits and cache.solicitations > 2
        # ...and the ISP's filter held back every error it raised.
        isp = fast.isp.primary_address
        assert (isp in sources) == (world == "mini")

    @needs_numpy
    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_errors_as_rows_match_sequential(self, world):
        """The same chunk with its errors taken as rows: every limiter
        draw, NDP entry, hop and clock as the walk left them, and each row
        iterates as the error packet the walk delivered."""
        walked, *_ = self._run(world, fast=False)
        settled, _, fast, outcomes = self._run(world, fast=True, rows=True)
        assert settled == walked
        assert [row[0] for row in outcomes.rows] == sorted(
            row[0] for row in outcomes.rows)
        assert not set(outcomes.ejected) & {row[0] for row in outcomes.rows}
        # An error bucket ran dry, a negative neighbour entry was hit,
        # expired and re-asked, with lanes settled as rows around them.
        assert fast.cpe_ok.errors_suppressed > 0
        cache = fast.cpe_ok.neighbor_cache
        assert cache.hits and cache.solicitations > 2
        if world == "home-via-cpe":
            # Every way home crosses a forwarding hook: no return plan,
            # so every error is walked — from a packet.
            assert not outcomes.rows
        else:
            assert outcomes.rows
        if world == "drop-external":  # the ISP's errors never leave it
            isp = fast.isp.primary_address
            assert all(row[1] != isp for row in outcomes.rows)

    @needs_numpy
    def test_a_route_edit_between_pull_and_chunk_at_the_block_size(
        self, monkeypatch
    ):
        """A window of one whole block, edited after 300 probes: the rest
        of the block is re-forwarded and every error verdict is replayed
        on both sides of the edit."""
        import repro.core.scanner as scanner_module
        from tests.pipeline import editing_hook

        phases = []
        vector_phase = columnar._vector_phase

        def spy(network, fib, vantage, values, hop_limits):
            columns = vector_phase(network, fib, vantage, values, hop_limits)
            status = columns[0].tolist()
            phases.append((len(values), {
                name: status.count(code) for name, code in VERDICTS.items()
            }))
            return columns

        def close_half_the_loops(topo):
            topo.cpe_vuln.table.add_unreachable(
                IPv6Prefix.from_string("2001:db8:1:68::/61"))

        window = "2001:db8:1::/54-64"  # 1,024 targets
        points = [(300, close_half_the_loops)]
        want = observe(reference=True, spec=window,
                       hook=editing_hook(points, stride=1))
        monkeypatch.setattr(columnar, "_vector_phase", spy)
        got = observe(spec=window, hook=editing_hook(points, stride=64))
        assert got == want
        block = min(scanner_module.BLOCK_SIZE, 1024)
        assert [n for n, _ in phases] == [block, block - 300]
        for _, verdicts in phases:
            assert all(verdicts[name] for name in
                       ("no-route", "hop-limit", "on-link")), verdicts


class TestScanEquivalence:
    """Columnar scans reproduce scalar scans bit-for-bit on the mini net."""

    def test_columnar_matches_scalar_batched(self):
        scalar = observe(vector_min=NEVER)
        fast = _vector()
        assert scalar == fast
        assert fast["rows"]  # the scan actually produced replies

    def test_columnar_matches_serial(self):
        assert _vector() == observe(reference=True)

    def test_columnar_with_flow_cache_off(self):
        # The oracle override wins over any threshold: no vector phase.
        overridden = _vector(topo=build_mini(flow_cache=False))
        assert overridden == observe(reference=True)

    @pytest.mark.parametrize("batch_size", [1, 3, 256, 10_000])
    def test_batch_size_does_not_change_results(self, batch_size):
        assert _vector(block_size=batch_size) == observe(reference=True)

    def test_columnar_with_blocklist_skip_and_cap(self):
        blocklist = Blocklist(blocked=["2001:db8:1:60::/60"])
        kwargs = dict(blocklist=blocklist, skip=17, max_probes=100)
        serial = observe(reference=True, **kwargs)
        assert _vector(block_size=32, **kwargs) == serial
        assert serial["stats"]["blocked"] > 0

    def test_multi_probe_loop_range_with_timeseries(self):
        # Heavy per-target amplification over the looping /60 plus an armed
        # time-series sampler: exercises the 2-cycle fast-forward and the
        # chunk-boundary horizon that keeps sampler flushes scalar-exact.
        kwargs = dict(spec=LOOP_SPEC, probes_per_target=5,
                      timeseries_interval=0.001)
        serial = observe(reference=True, **kwargs)
        assert _vector(**kwargs) == serial
        assert serial["series"]["series"]


class TestWorldEquivalence:
    """The contract holds on the compiled-BGP worlds, not just the testbed."""

    def _world_scan(self, spec, vector_min: int):
        built = spec.build()
        config = ScanConfig(
            scan_range=ScanRange.parse(built.handle.edges[0].scan_spec),
            seed=5,
        )
        scanner = Scanner(
            built.network, built.vantage, ProbeSpec.for_seed(5).build(),
            config,
        )
        with engine(block_size=64, vector_min=vector_min):
            return observables(scanner, scanner.run())

    def test_internet_world(self):
        spec = TopologySpec.internet(seed=3, scale=20_000, n_tail_ases=20)
        scalar = self._world_scan(spec, NEVER)
        fast = self._world_scan(spec, ALWAYS)
        assert scalar == fast
        assert scalar["rows"]

    def test_leak_demo_world(self):
        spec = TopologySpec.leak_demo(seed=5)
        scalar = self._world_scan(spec, NEVER)
        fast = self._world_scan(spec, ALWAYS)
        assert scalar == fast
        assert scalar["rows"]


class TestCampaignEquivalence:
    """Thread/process shards use the columnar engine transparently."""

    def _run(self, executor: str, workers=None, **network_kwargs):
        campaign = Campaign(
            TopologySpec.mini(**network_kwargs),
            {"wide": _config(timeseries_interval=0.002, trace="sample:16")},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            executor=executor,
            workers=workers,
        )
        outcome = campaign.run()
        merged = outcome.results["wide"]
        stats = merged.stats.to_dict()
        stats.pop("wall_seconds")
        metrics = [m for m in outcome.metrics.to_dict()["metrics"]
                   if m["name"] != "campaign_wall_seconds"]
        return (
            merged.dedup_digest(), stats, metrics,
            outcome.timeseries.to_dict(),
            outcome.traces,
        )

    @pytest.mark.parametrize("executor,workers", [
        ("serial", None), ("thread", 2), ("process", 2),
    ])
    def test_columnar_matches_scalar_per_executor(self, executor, workers):
        reference = self._run(executor, workers, flow_cache=False)
        default = self._run(executor, workers)
        assert reference == default
        assert self._run("serial", flow_cache=False) == reference


class TestFaultFallback:
    """Active fault windows force scalar forwarding, bit-identically."""

    SCHEDULE = FaultSchedule(
        seed=3,
        events=(
            FaultEvent(
                kind=ROUTE_SET, start=0.002, end=0.02, device="isp",
                prefix=str(MiniTopology.LAN_OK),
                next_hop=str(MiniTopology.WAN_VULN.address(0x1234)),
            ),
        ),
    )

    def _faulted(self, vector_min: int, schedule):
        return observe(vector_min=vector_min, rate_pps=2000.0,
                       fault_schedule=schedule)

    def test_route_set_window_matches_scalar(self):
        scalar = self._faulted(NEVER, self.SCHEDULE)
        fast = self._faulted(ALWAYS, self.SCHEDULE)
        assert scalar == fast
        # The fault actually fired: the rerouted window changes the scan.
        assert scalar != self._faulted(NEVER, None)

    @needs_numpy
    def test_exhausted_schedule_revectorises(self):
        # A chunk whose last send reaches a pending transition must stand
        # the vector phase down, so the transition fires inside ``inject``
        # at its clock; a chunk that ends before it, a pull (no clock) and,
        # once every window has fired and reverted, any chunk go through
        # the vector phase.
        from repro.faults.injector import FaultInjector

        topo = build_mini()
        network = topo.network
        injector = FaultInjector(network, self.SCHEDULE,
                                 protected=(topo.vantage.name,))
        injector.arm()
        due = injector.next_transition
        assert due == 0.002
        assert columnar._usable(network)
        assert columnar._usable(network, due / 2)
        assert not columnar._usable(network, due)
        assert not columnar._usable(network, 1.0)
        injector.sync(1.0)  # virtual time far past the last window edge
        assert injector.next_transition == math.inf
        assert columnar._usable(network, 1.0)

    @needs_numpy
    def test_a_chunk_is_cut_at_the_transition(self, monkeypatch):
        """Only the probes sent at or after a due transition go down the
        sequential loop; the lanes before it are replayed."""
        sequential, cuts = columnar._sequential, []

        def spy(network, packets, vantage, clocks):
            cuts.append((clocks[0], len(packets)))
            return sequential(network, packets, vantage, clocks)

        monkeypatch.setattr(columnar, "_sequential", spy)
        fast = self._faulted(ALWAYS, self.SCHEDULE)
        monkeypatch.setattr(columnar, "_sequential", sequential)
        assert fast == self._faulted(NEVER, self.SCHEDULE)
        # The scan is one chunk: the lanes before the window opens are
        # replayed, the probes from its first send on are not.
        ((first, sent),) = cuts
        assert first == pytest.approx(0.002) and 0 < sent < 256


class TestStampInvalidation:
    """Route churn invalidates the compiled columns, like the flow cache."""

    def test_fib_is_cached_per_stamp(self):
        net = build_mini().network
        fib = net.columnar_fib()
        assert net.columnar_fib() is fib

    def test_table_version_bump_recompiles(self):
        topo = build_mini()
        net = topo.network
        fib = net.columnar_fib()
        topo.isp.table.remove(MiniTopology.LAN_OK)
        assert not fib.valid(net)
        assert net.columnar_fib() is not fib

    def test_generation_bump_recompiles(self):
        topo = build_mini()
        net = topo.network
        fib = net.columnar_fib()
        net.register(Host("late", IPv6Addr.from_string("2001:db8:2:7::99")))
        assert not fib.valid(net)
        assert net.columnar_fib() is not fib

    EXTRA = IPv6Prefix.from_string("2001:dead::/48")

    def test_an_edit_on_any_device_table_invalidates(self):
        net = build_mini().network
        for device in list(net.devices.values()):
            fib = net.columnar_fib()
            device.table.add_blackhole(self.EXTRA)
            assert not fib.valid(net), device.name
            assert net.columnar_fib() is not fib

    def test_an_edit_then_reverted_still_invalidates(self):
        topo = build_mini()
        net = topo.network
        fib = net.columnar_fib()
        topo.cpe_ok.table.add_blackhole(self.EXTRA)
        topo.cpe_ok.table.remove(self.EXTRA)
        assert not fib.valid(net)
        fib = net.columnar_fib()
        assert not topo.cpe_ok.table.remove(self.EXTRA)  # nothing to remove
        assert fib.valid(net)

    def test_only_registered_devices_count(self):
        topo = build_mini()
        net = topo.network
        net.unregister(topo.ue)
        fib = net.columnar_fib()
        topo.ue.table.add_blackhole(self.EXTRA)  # no longer this network's
        assert fib.valid(net)
        net.register(topo.ue)
        fib = net.columnar_fib()
        topo.ue.table.remove(self.EXTRA)
        assert not fib.valid(net)

    def test_a_dropped_network_needs_no_cycle_collector(self):
        """Tables point back at their networks weakly: a world nothing
        holds is freed at once, not when the collector next runs."""
        import gc
        import weakref

        gc.disable()
        try:
            topo = build_mini()
            topo.network.columnar_fib()
            network = weakref.ref(topo.network)
            del topo
            assert network() is None
        finally:
            gc.enable()

    def test_edits_in_two_pooled_networks_invalidate_only_their_own(self):
        """Each network counts its own generation: two leases of one spec
        hold two networks, and an edit in either invalidates that one's FIB
        alone, whatever the other has done."""
        from repro.net.spec import _POOL

        _POOL.drop()
        spec = TopologySpec.mini()
        try:
            with spec.checkout() as one, spec.checkout() as two:
                nets = one.network, two.network
                fibs = [net.columnar_fib() for net in nets]
                for net in nets:
                    assert net.generation == nets[0].generation
                for edited in (1, 0, 1):
                    nets[edited].devices["isp"].table.add_blackhole(self.EXTRA)
                    assert not fibs[edited].valid(nets[edited])
                    assert fibs[1 - edited].valid(nets[1 - edited])
                    fibs[edited] = nets[edited].columnar_fib()
                    assert fibs[edited].valid(nets[edited])
        finally:
            _POOL.drop()

    def test_scan_after_rotation_sees_new_world(self):
        """End-to-end: a mid-campaign delegation swap must reroute the
        columnar scan exactly as it reroutes the scalar scan."""

        def run(vector_min: int):
            topo = build_mini()
            before = observe(topo=topo, vector_min=vector_min,
                             max_probes=40)["digest"]
            topo.isp.delegate(MiniTopology.LAN_OK,
                              MiniTopology.WAN_VULN.address(0x1234))
            topo.isp.delegate(MiniTopology.LAN_VULN,
                              MiniTopology.WAN_OK.address(0xDEADBEEF))
            after = observe(topo=topo, vector_min=vector_min,
                            max_probes=40)["digest"]
            return before, after

        assert run(ALWAYS) == run(NEVER)
        before, after = run(ALWAYS)
        assert before != after  # rotation changed the answers


class TestScalarFallbacks:
    """Every precondition failure degrades to the scalar loop unchanged."""

    def test_no_numpy_scan_is_identical(self, monkeypatch):
        scalar = observe(vector_min=NEVER)
        monkeypatch.setattr(columnar, "_np", None)
        assert _vector() == scalar

    def test_no_numpy_compile_reports_not_ok(self, monkeypatch):
        monkeypatch.setattr(columnar, "_np", None)
        net = build_mini().network
        assert not columnar._usable(net)
        assert not columnar.ColumnarFib.compile(net).ok

    @needs_numpy
    def test_usable_preconditions(self):
        net = build_mini().network
        assert columnar._usable(net)
        net.flow_cache = False  # the oracle override
        assert not columnar._usable(net)
        net.flow_cache = True
        net.loss_rate = 0.1
        assert not columnar._usable(net)
        net.loss_rate = 0.0
        net.record_links = True
        assert not columnar._usable(net)
        net.record_links = False
        assert columnar._usable(net)


#: Four addresses whose prefixes nest and part at every generated length:
#: the first two share their /96, the third their /60 but not their /64,
#: the fourth only their /32.
_POOL = [
    IPv6Addr.from_string("2001:db8:1:2:3:4:5:6").value,
    IPv6Addr.from_string("2001:db8:1:2:3:4:5:7").value,
    IPv6Addr.from_string("2001:db8:1:3::1").value,
    IPv6Addr.from_string("2001:db8:2::1").value,
]
_LENGTHS = [0, 28, 32, 48, 56, 60, 64, 96, 128]
_QUERIES = _POOL + [
    IPv6Addr.from_string("2001:db9::1").value,
    IPv6Addr.from_string("::1").value,
]
_ACTIONS = {
    RouteKind.UNREACHABLE: columnar.A_UNREACHABLE,
    RouteKind.BLACKHOLE: columnar.A_BLACKHOLE,
    RouteKind.CONNECTED: columnar.A_CONNECTED,
}


def _prefix(pool: int, length: int) -> IPv6Prefix:
    mask = ((1 << length) - 1) << (128 - length) if length else 0
    return IPv6Prefix(_POOL[pool] & mask, length)


def _routed(routes):
    """Four routers with ``routes`` (device, length, pool, kind, via) and a
    fifth, unregistered once the routes through it are in."""
    network = Network()
    routers = [
        network.register(
            Router(f"r{i}", IPv6Addr.from_string(f"2001:db8:ff::{i}"))
        )
        for i in range(5)
    ]
    for device, length, pool, kind, via in routes:
        table = routers[device].table
        prefix = _prefix(pool, length)
        if kind == "next-hop":
            table.add_next_hop(prefix, routers[via].primary_address)
        elif kind == "unbound":
            table.add_next_hop(prefix, routers[4].primary_address)
        elif kind == "connected":
            table.add_connected(prefix, "lan")
        elif kind == "unreachable":
            table.add_unreachable(prefix)
        else:
            table.add_blackhole(prefix)
    network.unregister(routers[4])
    return network, routers[:4]


def _expected(network, fib, device, value):
    """``device.table.lookup`` as the FIB's (action, next device index)."""
    route = device.table.lookup(value)
    if route is None:
        return columnar.A_MISS, -1
    if route.kind is RouteKind.NEXT_HOP:
        owner = network.device_at(route.next_hop)
        if owner is None:
            return columnar.A_UNRESOLVED, -1
        return columnar.A_NEXT_HOP, fib.index[id(owner)]
    return _ACTIONS[route.kind], -1


def _lookup(fib, lanes):
    """``fib.lookup`` of (device index, address value) lanes, as a list."""
    np = columnar._np
    action, nxt = fib.lookup(
        np.array([dev for dev, _ in lanes], dtype=np.int64),
        np.array([value >> 64 for _, value in lanes], dtype=np.uint64),
        np.array([value & columnar._M64 for _, value in lanes],
                 dtype=np.uint64),
    )
    return list(zip(action.tolist(), nxt.tolist()))


@needs_numpy
class TestFibLookupOracle:
    """``ColumnarFib.lookup`` is each device's ``table.lookup``, in one
    batch of mixed devices, over generated route sets."""

    def _check(self, network, routers):
        fib = columnar.ColumnarFib(network)
        assert fib.ok
        lanes = [(fib.index[id(router)], value)
                 for router in routers for value in _QUERIES]
        want = [_expected(network, fib, router, value)
                for router in routers for value in _QUERIES]
        assert _lookup(fib, lanes) == want
        return fib, want

    @settings(max_examples=150, deadline=None)
    @given(routes=st.lists(
        st.tuples(
            st.integers(0, 3), st.sampled_from(_LENGTHS), st.integers(0, 3),
            st.sampled_from(["next-hop", "unbound", "connected",
                             "unreachable", "blackhole"]),
            st.integers(0, 3),
        ),
        max_size=24,
    ))
    def test_lookup_is_every_table_lookup(self, routes):
        self._check(*_routed(routes))

    def test_every_kind_and_length_is_met(self):
        routes = [
            (device, length, pool, kind, (device + 1) % 4)
            for device, kind in enumerate(
                ["next-hop", "unbound", "connected", "unreachable"])
            for pool, length in enumerate([28, 48, 64, 128])
        ] + [(0, 0, 0, "next-hop", 1), (0, 128, 1, "blackhole", 0),
             (1, 96, 1, "next-hop", 2), (2, 60, 2, "next-hop", 3),
             (3, 56, 2, "blackhole", 0), (0, 32, 3, "connected", 0)]
        _, want = self._check(*_routed(routes))
        assert {action for action, _ in want} == set(range(6))

    def test_a_stored_collision_is_retried_with_the_next_seed(
        self, monkeypatch
    ):
        # K = 0 hashes the prefix alone: one /48 on two devices collides.
        seeds = ((0, 0),) + columnar._SEEDS
        monkeypatch.setattr(columnar, "_SEEDS", seeds)
        fib, _ = self._check(*_routed([
            (0, 48, 0, "next-hop", 2), (1, 48, 0, "blackhole", 0),
        ]))
        (table,) = fib._tables
        assert table.seed == seeds[1]

    def test_a_query_collision_is_a_miss_at_that_length(self, monkeypatch):
        monkeypatch.setattr(columnar, "_SEEDS", ((0, 0),))
        network, routers = _routed([
            (0, 48, 0, "next-hop", 2),  # r0's /48 ...
            (1, 48, 3, "blackhole", 0),  # ... and r1's other one
            (1, 0, 0, "next-hop", 3),  # r1's default
        ])
        fib, _ = self._check(network, routers)
        table = fib._tables[0]
        np = columnar._np
        hi = np.array([_POOL[0] >> 64], dtype=np.uint64) & table.mask_hi

        def key(device):
            return table.key(np.array([device], dtype=np.uint64), hi, None)

        # r1 asking for r0's /48 lands on r0's row — and misses there.
        assert table.length == 48 and key(1).tolist() == key(0).tolist()
        assert _lookup(fib, [(1, _POOL[0])]) == [
            (columnar.A_NEXT_HOP, fib.index[id(routers[3])])
        ]

    def test_collisions_on_every_seed_leave_the_compile_unusable(
        self, monkeypatch
    ):
        monkeypatch.setattr(columnar, "_SEEDS", ((0, 0),) * 8)
        network, _ = _routed([
            (0, 48, 0, "next-hop", 2), (1, 48, 0, "blackhole", 0),
        ])
        assert not columnar.ColumnarFib(network).ok
