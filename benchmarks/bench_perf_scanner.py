"""Scanner performance + the §III-B/§IV-E feasibility arithmetic.

Measures the reproduction's probe throughput against the simulator and
regenerates the paper's wall-clock projections: a 1 Gbps scanner covers all
/64s of a /24 (2^40) in ~8 days and all /60s (2^36) in ~14 hours; the
paper's own 25 kpps budget covers a 32-bit window in ~48 hours.

The headline number is ``Scanner.run()`` end to end: block target
generation (IIDs and primed validation tags from the lane SipHash) feeding
chunks to ``Network.inject_block``, which picks the forwarding engine.  The
block scanned here is a /64 window — one hash per IID; the /56 and /60
windows of eight Table II blocks hash twice per IID through the same
kernel, and ``benchmarks/e2e``'s ``sweep_loops`` is where those are timed.  The
A/B run is the same scan on the reference engine (``network.flow_cache =
False``: every hop down the slow path, no vector phase) and must produce
the identical reply set.
"""

from repro.analysis.report import ComparisonTable
from repro.core.probes.icmp import IcmpEchoProbe
from repro.core.scanner import ScanConfig, Scanner
from repro.core.stats import FeasibilityRow, probes_per_second
from repro.core.target import ScanRange
from repro.core.validate import Validator

from benchmarks.conftest import SEED, write_bench_json, write_result


def test_perf_scanner_throughput(benchmark, deployment):
    isp = deployment.isps["in-airtel-mobile"]
    probe = IcmpEchoProbe(Validator(bytes(range(16))))

    config = ScanConfig(
        scan_range=ScanRange.parse(isp.scan_spec), seed=SEED, max_probes=2000,
    )

    def run_scan():
        return Scanner(
            deployment.network, deployment.vantage, probe, config
        ).run()

    result = benchmark.pedantic(run_scan, iterations=1, rounds=3)
    # A/B: the reference engine, via the one override the network has.
    network = deployment.network
    fast, network.flow_cache = network.flow_cache, False
    try:
        reference = run_scan()
    finally:
        network.flow_cache = fast

    # Both engines are the same scan.
    assert reference.dedup_digest() == result.dedup_digest()
    assert reference.stats.sent == result.stats.sent

    feasibility = [
        FeasibilityRow("all /64 of a /24 block at 1 Gbps (paper: ~8 days)",
                       40, 1e9),
        FeasibilityRow("all /60 of a /28 block at 1 Gbps (paper: ~14 hours)",
                       36, 1e9),
        FeasibilityRow("32-bit window at 25 kpps (paper: ~48 hours)",
                       32, 25_000 * 94 * 8),
    ]
    table = ComparisonTable(
        "Scanner performance and §III-B feasibility projections",
        ("Projection", "window bits", "duration"),
    )
    for row in feasibility:
        table.add(row.label, row.window_bits, row.human)
    table.note(
        f"measured simulator throughput: "
        f"{result.stats.wall_pps:,.0f} probes/s wall, "
        f"{result.stats.virtual_pps:,.0f} pps virtual; "
        f"reference engine {reference.stats.wall_pps:,.0f} pps"
    )
    write_result("perf_scanner", table)
    write_bench_json(
        "perf_scanner",
        sent=result.stats.sent,
        validated=result.stats.validated,
        wall_pps=result.stats.wall_pps,
        reference_wall_pps=reference.stats.wall_pps,
        virtual_pps=result.stats.virtual_pps,
        wall_seconds=result.stats.wall_seconds,
        projections={
            row.label: row.seconds for row in feasibility
        },
    )

    # §III-B numbers hold.
    assert 6 <= feasibility[0].seconds / 86400 <= 13
    assert 9 <= feasibility[1].seconds / 3600 <= 20
    assert 40 <= feasibility[2].seconds / 3600 <= 55
    # The paper's <15 Mbps budget sustains 25 kpps echo probes.
    assert probes_per_second(15e6) >= 19_000
    # The virtual pacer enforced the configured rate.
    assert result.stats.virtual_pps <= 25_500
