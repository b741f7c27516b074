"""Data series behind the paper's figures (2, 3, 5, 6).

Figures are regenerated as ranked data series (the numbers a plot would be
drawn from) rather than images: each function returns both the structured
series and a text rendering with the paper's qualitative claims annotated.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.analysis.report import ComparisonTable
from repro.bgp.table import BgpTable
from repro.discovery.vendor_id import IdentifiedDevice
from repro.isp.profiles import SERVICE_KEYS
from repro.net.addr import IPv6Addr
from repro.services.zgrab import ServiceObservation

#: Figure 2's expected top vendors (by service-exposed device count).
PAPER_FIG2_VENDORS = (
    "China Mobile", "Fiberhome", "Youhua Tech", "China Unicom", "ZTE",
    "StarNet", "Skyworth", "AVM GmbH", "TP-Link", "Hitron Tech",
)

#: Figure 6's expected top loop vendors and ASes.
PAPER_FIG6_VENDORS = ("China Mobile", "ZTE", "Skyworth", "Youhua Tech", "StarNet")
PAPER_FIG6_ASES = (4812, 4134, 4837, 9808, 24445)

#: Figure 5's expected top loop countries, most-affected first.
PAPER_FIG5_COUNTRIES = ("BR", "CN", "EC", "VN", "US", "MM", "IN", "GB", "DE", "CH")


def vendor_service_matrix(
    identified: Sequence[IdentifiedDevice],
    observations: Iterable[ServiceObservation],
) -> Dict[str, Dict[str, int]]:
    """vendor → service key → alive-device count (Figures 2 and 3 input)."""
    vendor_of: Dict[int, str] = {
        device.last_hop.value: device.vendor for device in identified
    }
    matrix: Dict[str, Dict[str, int]] = {}
    for obs in observations:
        if not obs.alive:
            continue
        vendor = vendor_of.get(obs.target.value)
        if vendor is None:
            continue
        row = matrix.setdefault(vendor, {k: 0 for k in SERVICE_KEYS})
        row[obs.service] = row.get(obs.service, 0) + 1
    return matrix


def figure2_top_vendors(
    matrix: Mapping[str, Mapping[str, int]],
    top: int = 10,
) -> ComparisonTable:
    """Figure 2 — top vendors by devices with exposed services."""
    totals = {
        vendor: sum(services.values()) for vendor, services in matrix.items()
    }
    ranked = sorted(totals, key=lambda v: totals[v], reverse=True)[:top]
    table = ComparisonTable(
        "Figure 2 — top periphery vendors with exposed services",
        ("Rank", "Vendor", "alive services", *[k for k in SERVICE_KEYS],
         "in paper top-10"),
    )
    for rank, vendor in enumerate(ranked, 1):
        row = matrix[vendor]
        table.add(
            rank,
            vendor,
            totals[vendor],
            *[row.get(k, 0) for k in SERVICE_KEYS],
            "yes" if vendor in PAPER_FIG2_VENDORS else "no",
        )
    overlap = len(set(ranked) & set(PAPER_FIG2_VENDORS))
    table.note(f"{overlap}/{min(top, 10)} of the measured top vendors appear "
               "in the paper's Figure 2 top-10")
    return table


def figure3_service_vendors(
    matrix: Mapping[str, Mapping[str, int]],
    top: int = 5,
) -> ComparisonTable:
    """Figure 3 — leading vendors within each service."""
    table = ComparisonTable(
        "Figure 3 — top vendors within each service",
        ("Service", "Leaders (vendor:count)"),
    )
    for service in SERVICE_KEYS:
        counts = [
            (vendor, row.get(service, 0))
            for vendor, row in matrix.items()
            if row.get(service, 0) > 0
        ]
        counts.sort(key=lambda pair: pair[1], reverse=True)
        leaders = ", ".join(f"{v}:{c}" for v, c in counts[:top]) or "-"
        table.add(service, leaders)
    table.note(
        "paper's qualitative pattern: DNS spread across China Mobile/"
        "Fiberhome/Youhua/ZTE; SSH led by Fiberhome+Youhua; TELNET led by "
        "Youhua+ZTE; HTTP/8080 led by China Mobile"
    )
    return table


def figure5_loop_asn_country(
    loop_addrs: Iterable[IPv6Addr],
    bgp: BgpTable,
    top: int = 10,
) -> Tuple[ComparisonTable, ComparisonTable]:
    """Figure 5 — top routing-loop origin ASNs and countries."""
    asn_counts: Dict[int, int] = {}
    country_counts: Dict[str, int] = {}
    for addr in loop_addrs:
        info = bgp.lookup(addr)
        if info is None:
            continue
        asn_counts[info.asn] = asn_counts.get(info.asn, 0) + 1
        country_counts[info.country] = country_counts.get(info.country, 0) + 1

    asn_table = ComparisonTable(
        "Figure 5a — top routing-loop origin ASNs",
        ("Rank", "ASN", "loop devices"),
    )
    for rank, asn in enumerate(
        sorted(asn_counts, key=lambda a: asn_counts[a], reverse=True)[:top], 1
    ):
        asn_table.add(rank, f"AS{asn}", asn_counts[asn])

    country_table = ComparisonTable(
        "Figure 5b — top routing-loop countries",
        ("Rank", "Country", "loop devices", "in paper top-10"),
    )
    ranked = sorted(
        country_counts, key=lambda c: country_counts[c], reverse=True
    )[:top]
    for rank, country in enumerate(ranked, 1):
        country_table.add(
            rank, country, country_counts[country],
            "yes" if country in PAPER_FIG5_COUNTRIES else "no",
        )
    overlap = len(set(ranked) & set(PAPER_FIG5_COUNTRIES))
    country_table.note(
        f"{overlap}/{min(top, 10)} measured top countries match the paper's"
    )
    return asn_table, country_table


def figure6_loop_vendors(
    loop_vendor_by_isp: Mapping[str, Mapping[str, int]],
    top_vendors: int = 5,
) -> ComparisonTable:
    """Figure 6 — top loop-affected vendors within the top ASes.

    ``loop_vendor_by_isp``: ISP key (or AS label) → vendor → loop-device
    count, as produced by joining loop surveys with vendor identification.
    """
    totals: Dict[str, int] = {}
    for services in loop_vendor_by_isp.values():
        for vendor, count in services.items():
            totals[vendor] = totals.get(vendor, 0) + count
    ranked = sorted(totals, key=lambda v: totals[v], reverse=True)[:top_vendors]

    table = ComparisonTable(
        "Figure 6 — top routing-loop periphery vendors within top ASes",
        ("Vendor", "total loop devices", *loop_vendor_by_isp.keys(),
         "in paper top-5"),
    )
    for vendor in ranked:
        table.add(
            vendor,
            totals[vendor],
            *[loop_vendor_by_isp[isp].get(vendor, 0)
              for isp in loop_vendor_by_isp],
            "yes" if vendor in PAPER_FIG6_VENDORS else "no",
        )
    overlap = len(set(ranked) & set(PAPER_FIG6_VENDORS))
    table.note(
        f"{overlap}/{top_vendors} measured top loop vendors match the "
        f"paper's (China Mobile, ZTE, Skyworth, Youhua Tech, StarNet)"
    )
    return table
