"""Table IX — peripheries discovered from BGP-advertised-prefix scanning.

Sweeps the 16-bit sub-prefix space of every advertised prefix in the
synthetic global table (the Routeviews substitute), joins findings through
the BGP/GeoIP lookup, and checks the paper's ratios: loops are a small share
of last hops (~3%), but they touch over half the ASes and most countries.
"""

from repro.analysis.reproduce import attribute
from repro.analysis.tables import table9_bgp

from benchmarks.conftest import AS_SCALE, SCALE, write_result


def test_table9_bgp_scan(benchmark, world, world_table, world_survey):
    censuses, surveys = world_survey
    last_hops = [r.last_hop for c in censuses.values() for r in c.records]
    loop_addrs = [r.last_hop for s in surveys.values() for r in s.records]

    # Time the join of every finding through the BGP/GeoIP lookup.
    (asns, countries), (loop_asns, loop_countries) = benchmark(
        lambda: (attribute(last_hops, world_table),
                 attribute(loop_addrs, world_table))
    )

    table = table9_bgp(
        len(last_hops), len(asns), len(countries),
        len(loop_addrs), len(loop_asns), len(loop_countries),
        SCALE / 10, AS_SCALE,
    )
    write_result("table09_bgp_scan", table)

    # Shape: loops are a minority of last hops but span most of the world.
    loop_share = len(loop_addrs) / len(last_hops)
    assert 0.005 < loop_share < 0.25  # paper: 3.2%
    assert len(loop_asns) / len(asns) > 0.35  # paper: 56%
    assert len(loop_countries) / len(countries) > 0.5  # paper: 78%
    # Every AS with ground-truth loops was detected.
    truth_loop_ases = {a.asn for a in world.edges if a.n_loops}
    assert loop_asns == truth_loop_ases
