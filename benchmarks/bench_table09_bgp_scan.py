"""Table IX — peripheries discovered from BGP-advertised-prefix scanning.

Sweeps the 16-bit sub-prefix space of every advertised prefix in the
synthetic global table (the Routeviews substitute), joins findings through
the BGP/GeoIP lookup, and checks the paper's ratios: loops are a small share
of last hops (~3%), but they touch over half the ASes and most countries.
"""

from repro.analysis.tables import table9_bgp
from repro.discovery.periphery import discover

from benchmarks.conftest import AS_SCALE, SCALE, SEED, write_result


def test_table9_bgp_scan(benchmark, world, world_table, world_loops):
    # Discovery sweep across every AS window (the "4M last hops" column).
    def discover_all():
        found = []
        for as_truth in world.edges:
            census = discover(
                world.network, world.vantage, as_truth.scan_spec, seed=SEED
            )
            found.extend(census.records)
        return found

    records = benchmark.pedantic(discover_all, iterations=1, rounds=1)

    asns, countries = set(), set()
    for record in records:
        info = world_table.lookup(record.last_hop)
        assert info is not None
        asns.add(info.asn)
        countries.add(info.country)

    loop_addrs = [
        r.last_hop for survey in world_loops.values() for r in survey.records
    ]
    loop_asns, loop_countries = set(), set()
    for addr in loop_addrs:
        info = world_table.lookup(addr)
        loop_asns.add(info.asn)
        loop_countries.add(info.country)

    table = table9_bgp(
        len(records), len(asns), len(countries),
        len(loop_addrs), len(loop_asns), len(loop_countries),
        SCALE / 10, AS_SCALE,
    )
    write_result("table09_bgp_scan", table)

    # Shape: loops are a minority of last hops but span most of the world.
    loop_share = len(loop_addrs) / len(records)
    assert 0.005 < loop_share < 0.25  # paper: 3.2%
    assert len(loop_asns) / len(asns) > 0.35  # paper: 56%
    assert len(loop_countries) / len(countries) > 0.5  # paper: 78%
    # Every AS with ground-truth loops was detected.
    truth_loop_ases = {a.asn for a in world.edges if a.n_loops}
    assert loop_asns == truth_loop_ases
