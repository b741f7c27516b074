"""Columnar forwarding engine throughput vs the reference engine.

The workload is deliberately forwarding-bound, not generation-bound: 16
looping /64s behind the vulnerable CPE, 64 probe copies per target at hop
limit 255, so nearly every probe bounces isp <-> cpe-vuln until its hop
limit dies (the paper's §VI amplification loop).  The reference engine
(``Network(flow_cache=False)``) pays one python ``_forward`` per probe per
hop; ``Scanner.run()`` hands the scan's one 1,024-probe chunk to
``Network.inject_block``, whose columnar engine advances the whole block
with masked vector ops and the 2-cycle fast-forward, then replays only the
stateful tail through the scalar code.

Both engines must produce the identical scan — digest, ordered rows, and
stats — and the columnar engine must clear the >=10x bar.  The
committed ``BENCH_perf_forwarding.json`` baseline feeds the ``forwarding``
gate in ``check_regression.py``.
"""

from repro.analysis.report import ComparisonTable
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine.planner import ProbeSpec
from repro.net.testbed import build_mini

from benchmarks.conftest import SEED, write_bench_json, write_result

LOOP_SPEC = "2001:db8:1:60::/60-64"  # 16 /64s, all forwarding loops
PROBES_PER_TARGET = 64
HOP_LIMIT = 255
SPEEDUP_FLOOR = 10.0


def _run_scan(reference: bool):
    """One full scan on a fresh mini topology (fresh virtual clock)."""
    topo = build_mini(seed=SEED, flow_cache=not reference)
    config = ScanConfig(
        scan_range=ScanRange.parse(LOOP_SPEC),
        seed=SEED,
        probes_per_target=PROBES_PER_TARGET,
    )
    probe = ProbeSpec.for_seed(SEED, hop_limit=HOP_LIMIT).build()
    return Scanner(topo.network, topo.vantage, probe, config).run()


def _observables(result):
    stats = result.stats.to_dict()
    stats.pop("wall_seconds")
    return (result.dedup_digest(), [r.to_dict() for r in result.results],
            stats)


def test_perf_forwarding_throughput(benchmark):
    # Headline: the columnar engine.  pedantic rounds warm the lazy numpy
    # import and the per-topology FIB compile out of the reported run.
    columnar = benchmark.pedantic(
        _run_scan, args=(False,), iterations=1, rounds=3
    )
    # Oracle A/B: the reference engine on the identical workload.
    scalar = _run_scan(True)

    # Same scan, bit for bit.
    assert _observables(columnar) == _observables(scalar)

    columnar_pps = columnar.stats.wall_pps
    scalar_pps = scalar.stats.wall_pps
    speedup = columnar_pps / scalar_pps

    table = ComparisonTable(
        "Columnar forwarding engine vs the reference engine",
        ("Engine", "probes", "wall pps"),
    )
    table.add("reference engine (oracle)", scalar.stats.sent,
              f"{scalar_pps:,.0f}")
    table.add("columnar (vector + replay)", columnar.stats.sent,
              f"{columnar_pps:,.0f}")
    table.note(
        f"speedup {speedup:.1f}x on the looping /60 workload "
        f"({PROBES_PER_TARGET} copies/target, hop limit {HOP_LIMIT}); "
        f"identical digest, rows, and stats on both engines"
    )
    write_result("forwarding", table)
    write_bench_json(
        "perf_forwarding",
        sent=columnar.stats.sent,
        columnar_pps=columnar_pps,
        scalar_pps=scalar_pps,
        speedup=speedup,
        probes_per_target=PROBES_PER_TARGET,
        hop_limit=HOP_LIMIT,
    )

    # The bar: >=10x forwarded-probe throughput.
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x bar"
    )
