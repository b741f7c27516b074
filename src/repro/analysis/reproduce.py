"""One-call reproduction of the paper's entire evaluation.

:func:`reproduce_all` runs every pipeline — subnet inference, the fifteen
discovery scans, the application-layer sweep, vendor identification, the
loop surveys, the BGP-wide survey, the amplification attack, and the router
case study — and renders every table and figure into a single report.

This is what ``repro-xmap reproduce`` and ``examples/full_reproduction.py``
call; the per-table benchmarks under ``benchmarks/`` do the same work with
assertions and timings attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis import figures, tables
from repro.analysis.report import ComparisonTable
from repro.bgp import AsRole, InternetWorld, build_internet
from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange
from repro.discovery.periphery import PeripheryCensus, census_from_scan, discover
from repro.engine import Campaign, ProbeSpec
from repro.net.spec import BuiltTopology, TopologySpec
from repro.discovery.subnet import infer_subprefix_length
from repro.discovery.vendor_id import IdentifiedDevice, VendorIdentifier
from repro.isp.builder import Deployment, build_deployment
from repro.loop.attack import run_loop_attack
from repro.loop.casestudy import run_case_study
from repro.loop.detector import LoopSurvey, find_loops
from repro.net.packet import MAX_HOP_LIMIT
from repro.services.zgrab import AppScanner, AppScanResult
from repro.telemetry.metrics import MetricsRegistry


@dataclass
class ReproductionRun:
    """Everything one full run produced, for programmatic inspection."""

    scale: float
    seed: int
    deployment: Deployment
    censuses: Dict[str, PeripheryCensus] = field(default_factory=dict)
    app_results: Dict[str, AppScanResult] = field(default_factory=dict)
    identified: Dict[str, List[IdentifiedDevice]] = field(default_factory=dict)
    loop_surveys: Dict[str, LoopSurvey] = field(default_factory=dict)
    world: Optional[InternetWorld] = None
    sections: List[str] = field(default_factory=list)
    #: Per-table telemetry: data-volume counters per stage, a
    #: ``reproduce_stage_seconds`` gauge per stage, and the Table II
    #: campaign's full scanner metrics merged in.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def report(self) -> str:
        return "\n\n".join(self.sections)

    def write_metrics(self, path: str) -> None:
        """Write the per-table metrics snapshot as NDJSON."""
        with open(path, "w") as handle:
            for line in self.metrics.ndjson_lines():
                handle.write(line + "\n")


def reproduce_all(
    scale: float = 20_000.0,
    seed: int = 7,
    include_bgp: bool = True,
    include_case_study: bool = True,
    progress=None,
    metrics_out: Optional[str] = None,
) -> ReproductionRun:
    """Run the full evaluation; returns the run with a rendered report."""
    say = progress or (lambda _msg: None)

    say(f"building the simulated Internet (scale 1/{scale:g})")
    deployment = build_deployment(scale=scale, seed=seed)
    run = ReproductionRun(scale=scale, seed=seed, deployment=deployment)
    metrics = run.metrics
    _stage_t0 = [time.perf_counter()]

    def stage_done(stage: str) -> None:
        now = time.perf_counter()
        metrics.gauge("reproduce_stage_seconds", stage=stage).set(
            now - _stage_t0[0]
        )
        _stage_t0[0] = now

    stage_done("build")

    # -- Table I ----------------------------------------------------------------
    say("inferring delegation lengths (Table I)")
    inferences = {}
    for key, isp in deployment.isps.items():
        inferences[key] = infer_subprefix_length(
            deployment.network, deployment.vantage, isp.scan_base, seed=seed
        )
    run.sections.append(tables.table1_subnet_inference(inferences).render())
    metrics.counter("reproduce_inferences").inc(len(inferences))
    stage_done("table1_subnet_inference")

    # -- Table II / III ------------------------------------------------------------
    # The multi-ISP sweep runs through the orchestration engine: one
    # campaign over all fifteen delegated windows, merged per range.  The
    # serial executor reuses the live deployment (same network, same virtual
    # clock) and the probe spec matches ``discover()``'s seed-derived
    # validator, so the censuses are identical to fifteen single-shot scans.
    say("running the fifteen discovery scans (Table II)")
    campaign = Campaign(
        TopologySpec.deployment(
            profiles=tuple(deployment.isps), scale=scale, seed=seed
        ),
        {
            key: ScanConfig(scan_range=ScanRange.parse(isp.scan_spec), seed=seed)
            for key, isp in deployment.isps.items()
        },
        probe=ProbeSpec.for_seed(seed),
        executor="serial",
        prebuilt=BuiltTopology(deployment.network, deployment.vantage, deployment),
    )
    campaign_result = campaign.run()
    metrics.merge(campaign_result.metrics)
    for key, scan_result in campaign_result.results.items():
        run.censuses[key] = census_from_scan(scan_result)
        metrics.counter("reproduce_census_records", isp=key).inc(
            len(run.censuses[key].records)
        )
    run.sections.append(
        tables.table2_periphery(run.censuses, scale).render()
    )
    all_last_hops = [
        record.last_hop
        for census in run.censuses.values()
        for record in census.records
    ]
    run.sections.append(tables.table3_iid(all_last_hops).render())
    stage_done("table2_periphery")

    # -- Tables IV/V/VII/VIII + Figures 2/3 ---------------------------------------
    say("sweeping application services (Tables V, VII, VIII)")
    scanner = AppScanner(deployment.network, deployment.vantage)
    vid = VendorIdentifier(deployment.catalog)
    for key, census in run.censuses.items():
        run.app_results[key] = scanner.scan(census.last_hop_addresses())
        run.identified[key] = vid.identify(
            census.records, run.app_results[key].observations
        )
    all_identified = [d for ds in run.identified.values() for d in ds]
    all_observations = [
        o for r in run.app_results.values() for o in r.observations
    ]
    run.sections.append(tables.table4_vendors(all_identified, scale).render())
    alive = sorted(
        {o.target for o in all_observations if o.alive},
    )
    run.sections.append(tables.table5_service_iid(alive).render())
    sizes = {key: run.censuses[key].n_unique for key in run.censuses}
    run.sections.append(
        tables.table7_services(run.app_results, sizes, scale).render()
    )
    run.sections.append(
        tables.table8_software(run.app_results.values(), scale).render()
    )
    matrix = figures.vendor_service_matrix(all_identified, all_observations)
    run.sections.append(figures.figure2_top_vendors(matrix).render())
    run.sections.append(figures.figure3_service_vendors(matrix).render())
    metrics.counter("reproduce_app_observations").inc(len(all_observations))
    metrics.counter("reproduce_identified_devices").inc(len(all_identified))
    stage_done("table7_services")

    # -- Tables XI + Figure 6 -----------------------------------------------------
    say("locating routing loops (Table XI)")
    for key, isp in deployment.isps.items():
        run.loop_surveys[key] = find_loops(
            deployment.network, deployment.vantage, isp.scan_spec, seed=seed
        )
    run.sections.append(
        tables.table11_loops(run.loop_surveys, scale).render()
    )
    vendor_of = {d.last_hop.value: d.vendor for d in all_identified}
    loop_vendor_by_as: Dict[str, Dict[str, int]] = {}
    for as_label, key in (
        ("AS4134", "cn-telecom-broadband"),
        ("AS4837", "cn-unicom-broadband"),
        ("AS9808", "cn-mobile-broadband"),
    ):
        counts: Dict[str, int] = {}
        for record in run.loop_surveys[key].records:
            vendor = vendor_of.get(record.last_hop.value)
            if vendor:
                counts[vendor] = counts.get(vendor, 0) + 1
        loop_vendor_by_as[as_label] = counts
    run.sections.append(
        figures.figure6_loop_vendors(loop_vendor_by_as).render()
    )
    metrics.counter("reproduce_loop_records").inc(
        sum(len(s.records) for s in run.loop_surveys.values())
    )
    stage_done("table11_loops")

    # -- the attack (§VI-A) ----------------------------------------------------------
    say("mounting the amplification attack (§VI-A)")
    attack_table = ComparisonTable(
        "§VI-A amplification (one attacker packet per victim)",
        ("Victim block", "crossings", "paper bound"),
    )
    for key in ("cn-unicom-broadband", "cn-mobile-broadband"):
        survey = run.loop_surveys[key]
        if not survey.records:
            continue
        isp = deployment.isps[key]
        victim = isp.truth_by_last_hop()[survey.records[0].last_hop.value]
        target = victim.delegated.subprefix(7, 64).address(0xA77)
        deployment.network.advance(5.0)
        report = run_loop_attack(
            deployment.network, deployment.vantage, target,
            isp.router.name, victim.name, hop_limit=MAX_HOP_LIMIT,
        )
        attack_table.add(isp.profile.isp, report.amplification,
                         f"255-n = {report.theoretical}")
        metrics.gauge(
            "reproduce_attack_crossings", isp=key
        ).set(report.amplification)
    run.sections.append(attack_table.render())
    stage_done("attack")

    # -- Tables IX/X + Figure 5 ---------------------------------------------------
    if include_bgp:
        say("scanning every BGP-advertised prefix (Tables IX-X, Figure 5)")
        run.world = build_internet(seed=seed, scale=scale / 10)
        # Attribution sees what Routeviews would show for the periphery:
        # one entry per edge AS.
        bgp_table = run.world.fabric.bgp_table(roles=(AsRole.EDGE,))
        world_records = []
        loop_addrs = []
        for as_truth in run.world.edges:
            census = discover(
                run.world.network, run.world.vantage, as_truth.scan_spec,
                seed=seed,
            )
            world_records.extend(census.records)
            survey = find_loops(
                run.world.network, run.world.vantage, as_truth.scan_spec,
                seed=seed,
            )
            loop_addrs.extend(r.last_hop for r in survey.records)
        asns, countries = set(), set()
        loop_asns, loop_countries = set(), set()
        for record in world_records:
            info = bgp_table.lookup(record.last_hop)
            asns.add(info.asn)
            countries.add(info.country)
        for addr in loop_addrs:
            info = bgp_table.lookup(addr)
            loop_asns.add(info.asn)
            loop_countries.add(info.country)
        run.sections.append(
            tables.table9_bgp(
                len(world_records), len(asns), len(countries),
                len(loop_addrs), len(loop_asns), len(loop_countries),
                scale / 10, 10.0,
            ).render()
        )
        run.sections.append(tables.table10_loop_iid(loop_addrs).render())
        asn_table, country_table = figures.figure5_loop_asn_country(
            loop_addrs, bgp_table
        )
        run.sections.append(asn_table.render())
        run.sections.append(country_table.render())
        metrics.counter("reproduce_bgp_records").inc(len(world_records))
        metrics.counter("reproduce_bgp_loop_addrs").inc(len(loop_addrs))
        stage_done("table9_bgp")

    # -- Table XII -----------------------------------------------------------------
    if include_case_study:
        say("bench-testing the 99-router roster (Table XII)")
        results = run_case_study()
        run.sections.append(tables.table12_case_study(results).render())
        metrics.counter("reproduce_case_study_units").inc(len(results))
        metrics.counter("reproduce_case_study_vulnerable").inc(
            sum(1 for r in results if r.vulnerable)
        )
        stage_done("table12_case_study")

    if metrics_out:
        run.write_metrics(metrics_out)
        say(f"metrics snapshot written to {metrics_out}")

    return run
