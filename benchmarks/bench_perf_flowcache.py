"""Route flow-cache A/B: repeated-destination forwarding throughput.

A periphery scan touches each /64 once, so the flow cache mostly
accelerates the *reply* direction there.  Where it pays off directly is
repeated-destination traffic — retransmission-heavy probing, or any
workload revisiting the same delegated prefixes.  The §VI routing-loop
shapes are not among them any more: an unobserved loop leaves the fast path
in O(1) (``network.loop_exit``) after two look-ups, and a loop that is
walked hop by hop is one something watches (``record_links`` in the attack
measurement), where the cache still serves every hop.  This bench drives
the same packet stream through the mini topology with the cache on
(headline, via pytest-benchmark) and off (A/B timer), asserts delivery is
identical, and records the hit rate.  Its stream holds no loop — both /64s
are a CPE's advertised, on-link subnet, probed at hop limit 64 — so every
recorded hit is a look-up that was made.
"""

import time

from repro.net.packet import echo_request
from repro.net.testbed import MiniTopology, build_mini

from benchmarks.conftest import write_bench_json, write_result
from repro.analysis.report import ComparisonTable

N_TARGETS = 64
ROUNDS = 25  # each target injected this many times; cache steady-state


def _fresh(flow_cache: bool):
    topo = build_mini(flow_cache=flow_cache)
    targets = []
    for i in range(N_TARGETS):
        # Few distinct /64s, many addresses: the cache's favourable shape.
        prefix = (MiniTopology.SUBNET_OK if i % 2 else
                  MiniTopology.SUBNET_VULN)
        targets.append(prefix.address(0x1000 + i))
    packets = [
        echo_request(topo.vantage.primary_address, target, i & 0xFFFF,
                     (i >> 16) & 0xFFFF, b"\x00" * 8)
        for i, target in enumerate(targets)
    ]
    return topo, packets


def _drive(topo, packets) -> int:
    net = topo.network
    inject = net.inject
    vantage = topo.vantage
    delivered = 0
    for _ in range(ROUNDS):
        for packet in packets:
            inbox, _trace = inject(packet, vantage)
            delivered += len(inbox)
    return delivered


def test_perf_flowcache_ab(benchmark):
    injections = N_TARGETS * ROUNDS

    # Headline: cache on, fresh topology per round so warmup is included.
    def setup():
        return (_fresh(flow_cache=True),), {}

    def run(state):
        topo, packets = state
        return topo, _drive(topo, packets)

    cached_topo, cached_delivered = benchmark.pedantic(
        run, setup=setup, iterations=1, rounds=3
    )
    cached_wall = benchmark.stats.stats.mean
    cached_net = cached_topo.network

    # A/B: the identical stream with the fast path disabled.
    off_topo, off_packets = _fresh(flow_cache=False)
    started = time.perf_counter()
    uncached_delivered = _drive(off_topo, off_packets)
    uncached_wall = time.perf_counter() - started

    assert cached_delivered == uncached_delivered
    assert off_topo.network.flow_hits == 0  # escape hatch truly bypasses
    hits, misses = cached_net.flow_hits, cached_net.flow_misses
    assert hits > misses  # steady-state traffic is dict probes

    cached_pps = injections / cached_wall if cached_wall else 0.0
    uncached_pps = injections / uncached_wall if uncached_wall else 0.0
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    table = ComparisonTable(
        "Route flow cache A/B (repeated-destination forwarding)",
        ("Run", "injections", "delivered", "pps"),
    )
    table.add("flow cache on", injections, cached_delivered,
              f"{cached_pps:,.0f}")
    table.add("flow cache off", injections, uncached_delivered,
              f"{uncached_pps:,.0f}")
    table.note(
        f"speedup {cached_pps / uncached_pps:.2f}x, hit rate "
        f"{hit_rate:.1%} ({hits} hits / {misses} misses); "
        f"delivery identical: {cached_delivered == uncached_delivered}"
    )
    write_result("perf_flowcache", table)
    write_bench_json(
        "perf_flowcache",
        injections=injections,
        cached_wall_pps=cached_pps,
        uncached_wall_pps=uncached_pps,
        speedup=cached_pps / uncached_pps if uncached_pps else 0.0,
        flow_hits=hits,
        flow_misses=misses,
        hit_rate=hit_rate,
        delivered=cached_delivered,
    )
