"""Figure 5 — top 10 routing-loop origin ASNs and countries.

Joins the BGP-wide loop findings through the AS/country registry.  Shape:
the top of the country ranking matches the paper's (BR, CN, EC, VN, US, …)
and the AS ranking is headed by the configured loop-dense ASes.
"""

from repro.analysis.figures import (
    PAPER_FIG5_COUNTRIES,
    figure5_loop_asn_country,
)
from repro.bgp import TOP_LOOP_ASES

from benchmarks.conftest import write_result


def test_fig05_loop_asn_country(benchmark, world_table, world_loops):
    loop_addrs = [
        r.last_hop for survey in world_loops.values() for r in survey.records
    ]

    asn_table, country_table = benchmark(
        lambda: figure5_loop_asn_country(loop_addrs, world_table)
    )
    write_result("fig05_loop_asn_country", asn_table, country_table)

    # Recompute the rankings for the assertions.
    asn_counts, country_counts = {}, {}
    for addr in loop_addrs:
        info = world_table.lookup(addr)
        asn_counts[info.asn] = asn_counts.get(info.asn, 0) + 1
        country_counts[info.country] = country_counts.get(info.country, 0) + 1

    asn_ranking = sorted(asn_counts, key=asn_counts.get, reverse=True)
    country_ranking = sorted(
        country_counts, key=country_counts.get, reverse=True
    )

    # The loop-dense ASes head the AS ranking, in roughly the Figure 5 order.
    paper_top_asns = [asn for asn, _cc, _n in TOP_LOOP_ASES]
    assert asn_ranking[0] == paper_top_asns[0]  # the Brazilian ISP leads
    assert set(asn_ranking[:10]) >= set(paper_top_asns[:6])

    # Country ranking: Brazil first, and the paper's top-10 dominates.
    assert country_ranking[0] == "BR"
    overlap = len(set(country_ranking[:10]) & set(PAPER_FIG5_COUNTRIES))
    assert overlap >= 6
