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
properties the fast path depends on: generation/version stamp
invalidation, fault-schedule fallback to scalar, and the no-numpy
degradation path.
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
from repro.net.addr import IPv6Addr
from repro.net.device import Host
from repro.net.spec import TopologySpec
from repro.net.testbed import MiniTopology
from tests.pipeline import (
    ALWAYS,
    LOOP_SPEC,
    NEVER,
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

    @settings(max_examples=120, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.sampled_from(ADDRESSES),
                      st.sampled_from([1, 2, 3, 4, 5, 63, 64, 255])),
            min_size=1, max_size=90,
        ),
        clocked=st.booleans(),
        lazy=st.booleans(),
    )
    def test_lazy_result_equals_the_sequential_list(
        self, probes, clocked, lazy
    ):
        """The result iterates as ``_sequential``'s list — inbox packets,
        hops, drops, delivered, errors — whether the chunk came as built
        packets or as lanes whose packets are built on demand."""
        probe = ProbeSpec.for_seed(5).build()

        def packets_for(topo):
            source = topo.vantage.primary_address
            return [probe.build(source, dst).with_hop_limit(hop_limit)
                    for dst, hop_limit in probes]

        clocks = [i * 0.0004 for i in range(len(probes))] if clocked else None
        slow_topo, fast_topo = build_mini(), build_mini()
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
                    [dst.value for dst, _ in probes],
                    [hop_limit for _, hop_limit in probes],
                )

                def packet(i):
                    built.append(i)
                    return packets[i]

                block = columnar.Probes(
                    [(lanes, i) for i in range(len(probes))], packet
                )
            fast = columnar.inject_block(
                fast_topo.network, block, fast_topo.vantage, clocks
            )
        assert len(fast) == len(slow)
        first_pass = _outcome_key(fast)
        assert first_pass == _outcome_key(slow)
        assert _outcome_key(fast) == first_pass  # it iterates again, alike
        assert fast.hops == [trace.hops for _, trace in slow]
        assert fast.drops == [trace.drops for _, trace in slow]
        assert fast_topo.network.total_hops == slow_topo.network.total_hops
        assert (fast_topo.network.total_injected
                == slow_topo.network.total_injected)
        # A probe whose reply (or error) came back was finished by the
        # scalar engine, from a packet built exactly once.
        answered = [i for i, (inbox, _) in enumerate(slow) if inbox]
        assert set(answered) <= set(fast.ejected)
        if lazy and columnar._np is not None:
            assert sorted(built) == sorted(fast.ejected)


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
        # While a transition is pending the vector phase must stand down;
        # once every window has fired and reverted, _usable flips back on
        # and the remaining blocks go through the vector phase again.
        from repro.faults.injector import FaultInjector

        topo = build_mini()
        injector = FaultInjector(topo.network, self.SCHEDULE,
                                 protected=(topo.vantage.name,))
        injector.arm()
        assert not columnar._usable(topo.network)
        injector.sync(1.0)  # virtual time far past the last window edge
        assert injector.next_transition == math.inf
        assert columnar._usable(topo.network)


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
