"""The periphery discovery pipeline (§IV): scan → dedup → census.

One XMap scan of a sub-prefix window yields raw :class:`ProbeResult`s; the
census deduplicates them into unique last hops and annotates each with the
paper's analysis dimensions — same/diff /64 (Table II), IID class (Table
III), embedded MAC (Table II's MAC column) — producing exactly the rows the
evaluation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.probes.base import ReplyKind
from repro.core.probes.icmp import IcmpEchoProbe
from repro.core.scanner import ScanConfig, Scanner, ScanResult
from repro.core.stats import ScanStats
from repro.core.target import ScanRange
from repro.core.validate import Validator, seed_secret
from repro.discovery.iid import IidClass, classify_iid
from repro.net.addr import IPv6Addr, IPv6Prefix, MacAddress
from repro.net.device import Device
from repro.net.network import Network
from repro.net.packet import MAX_HOP_LIMIT


@dataclass
class PeripheryRecord:
    """One unique discovered last hop."""

    last_hop: IPv6Addr
    probe_target: IPv6Addr
    reply_kind: ReplyKind
    iid_class: IidClass = field(init=False)
    mac: Optional[MacAddress] = field(init=False)

    def __post_init__(self) -> None:
        self.iid_class = classify_iid(self.last_hop.iid)
        self.mac = self.last_hop.embedded_mac()

    @property
    def same_slash64(self) -> bool:
        return self.last_hop.slash64 == self.probe_target.slash64


@dataclass
class PeripheryCensus:
    """Aggregated discovery results for one scanned window (Table II row)."""

    scan_range: ScanRange
    records: List[PeripheryRecord] = field(default_factory=list)
    stats: ScanStats = field(default_factory=ScanStats)

    # -- Table II columns -------------------------------------------------------

    @property
    def n_unique(self) -> int:
        return len(self.records)

    @property
    def same_pct(self) -> float:
        if not self.records:
            return 0.0
        same = sum(1 for r in self.records if r.same_slash64)
        return 100.0 * same / len(self.records)

    @property
    def diff_pct(self) -> float:
        return 100.0 - self.same_pct if self.records else 0.0

    def unique_slash64s(self) -> Set[IPv6Prefix]:
        return {r.last_hop.slash64 for r in self.records}

    @property
    def unique64_pct(self) -> float:
        if not self.records:
            return 0.0
        return 100.0 * len(self.unique_slash64s()) / len(self.records)

    def eui64_records(self) -> List[PeripheryRecord]:
        return [r for r in self.records if r.iid_class is IidClass.EUI64]

    @property
    def eui64_pct(self) -> float:
        if not self.records:
            return 0.0
        return 100.0 * len(self.eui64_records()) / len(self.records)

    @property
    def mac_unique_pct(self) -> float:
        """Share of embedded MACs that appear exactly once (Table II)."""
        eui = self.eui64_records()
        if not eui:
            return 0.0
        counts: Dict[MacAddress, int] = {}
        for record in eui:
            assert record.mac is not None
            counts[record.mac] = counts.get(record.mac, 0) + 1
        singles = sum(1 for c in counts.values() if c == 1)
        return 100.0 * singles / len(counts)

    def last_hop_addresses(self) -> List[IPv6Addr]:
        return [r.last_hop for r in self.records]

    def merged_with(self, other: "PeripheryCensus") -> "PeripheryCensus":
        merged = PeripheryCensus(scan_range=self.scan_range)
        seen: Set[int] = set()
        for record in self.records + other.records:
            if record.last_hop.value in seen:
                continue
            seen.add(record.last_hop.value)
            merged.records.append(record)
        return merged


def census_from_scan(result: ScanResult) -> PeripheryCensus:
    """Deduplicate a scan's error replies into a census of last hops."""
    census = PeripheryCensus(scan_range=result.range, stats=result.stats)
    seen: Set[int] = set()
    for probe_result in result.results:
        if not probe_result.kind.is_error:
            continue  # echo replies are live hosts, not exposed last hops
        if probe_result.responder.value in seen:
            continue
        seen.add(probe_result.responder.value)
        census.records.append(
            PeripheryRecord(
                last_hop=probe_result.responder,
                probe_target=probe_result.target,
                reply_kind=probe_result.kind,
            )
        )
    return census


def discover(
    network: Network,
    vantage: Device,
    scan_spec: str | ScanRange,
    rate_pps: float = 25_000.0,
    seed: int = 0,
    hop_limit: int = MAX_HOP_LIMIT,
    max_probes: Optional[int] = None,
    **config_kwargs,
) -> PeripheryCensus:
    """Run one periphery-discovery scan and summarise it.

    The probe hop limit defaults to 255 so that looping customer routes
    still surface the *CPE's* Time Exceeded (not the ISP's), matching the
    paper's observation that loop devices appear among discovered last hops.
    """
    scan_range = (
        ScanRange.parse(scan_spec) if isinstance(scan_spec, str) else scan_spec
    )
    validator = Validator(seed_secret(seed))
    probe = IcmpEchoProbe(validator, hop_limit=hop_limit)
    config = ScanConfig(
        scan_range=scan_range,
        rate_pps=rate_pps,
        seed=seed,
        max_probes=max_probes,
        **config_kwargs,
    )
    scanner = Scanner(network, vantage, probe, config)
    return census_from_scan(scanner.run())
