#!/usr/bin/env python3
"""Reproduce §VI-B's global survey: scan every advertised BGP prefix.

Builds the synthetic world of BGP-advertised IPv6 prefixes (the Routeviews
substitute), sweeps the 16-bit sub-prefix space of each, locates routing
loops with the h/h+2 method, and attributes them to ASes and countries
(Table IX, Figure 5).

Run:  python examples/bgp_survey.py
"""

from collections import Counter

from repro.bgp import AsRole, build_internet
from repro.discovery.periphery import discover
from repro.loop.detector import find_loops


def main() -> None:
    world = build_internet(seed=7, scale=2_000, n_tail_ases=120)
    # What Routeviews would show for the periphery: one entry per edge AS.
    table = world.fabric.bgp_table(roles=(AsRole.EDGE,))
    print(f"BGP table: {len(table)} advertised prefixes, "
          f"{len(world.network.devices) - 2:,} devices "
          f"across {len({a.country for a in world.edges})} countries\n")

    total_last_hops = 0
    loop_addrs = []
    for as_truth in world.edges:
        census = discover(world.network, world.vantage, as_truth.scan_spec,
                          seed=1)
        total_last_hops += census.n_unique
        survey = find_loops(world.network, world.vantage, as_truth.scan_spec,
                            seed=2)
        loop_addrs.extend(r.last_hop for r in survey.records)

    asns, countries = Counter(), Counter()
    for addr in loop_addrs:
        info = table.lookup(addr)
        asns[info.asn] += 1
        countries[info.country] += 1

    print(f"Last hops discovered : {total_last_hops:,} (paper: 4.0M)")
    print(f"With routing loop    : {len(loop_addrs):,} "
          f"({100 * len(loop_addrs) / total_last_hops:.1f}%; paper: 3.2%)")
    print(f"Loop ASes            : {len(asns)} of {len(world.edges)} "
          f"(paper: 3,877 of 6,911)")
    print(f"Loop countries       : {len(countries)} "
          f"(paper: 132 of 170)\n")

    print("Top loop origin ASes (Figure 5a):")
    for asn, count in asns.most_common(10):
        print(f"  AS{asn:<6d} {count:4d} loop devices")
    print("\nTop loop countries (Figure 5b; paper: BR CN EC VN US MM ...):")
    for country, count in countries.most_common(10):
        print(f"  {country}  {count:4d} loop devices")


if __name__ == "__main__":
    main()
