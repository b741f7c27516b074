"""One-call reproduction of the paper's entire evaluation.

Each paper stage has one driver here, which :func:`reproduce_all`, the
``census`` / ``services`` / ``loops`` / ``disclose`` subcommands and the
table benchmarks all call: :func:`infer_delegations` (Table I),
:func:`periphery_censuses` (Tables II-III), :func:`service_audit` (Tables
IV-VIII), :func:`loop_surveys` (Table XI), and :func:`bgp_survey` with
:func:`attribute` (Tables IX-X).  :func:`reproduce_all` is those calls, the
amplification attack and the router case study, rendered into a single
report; ``repro-xmap reproduce`` and ``examples/full_reproduction.py`` call
it.  ``discover()`` and ``find_loops()`` stay the one-window library API.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import figures, tables
from repro.analysis.report import ComparisonTable
from repro.bgp import AsRole, InternetWorld, build_internet
from repro.bgp.table import BgpTable
from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange
from repro.discovery.periphery import PeripheryCensus, census_from_scan, discover
from repro.engine import Campaign, ProbeSpec
from repro.net.spec import BuiltTopology, TopologySpec
from repro.discovery.subnet import SubnetInference, infer_subprefix_length
from repro.discovery.vendor_id import IdentifiedDevice, VendorIdentifier
from repro.isp.builder import Deployment, build_deployment
from repro.loop.attack import run_loop_attack
from repro.loop.casestudy import run_case_study
from repro.loop.detector import LoopSurvey, find_loops
from repro.net.addr import IPv6Addr
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


def infer_delegations(
    deployment: Deployment, seed: int
) -> Dict[str, SubnetInference]:
    """Table I: the inferred delegation length of every ISP block."""
    return {
        key: infer_subprefix_length(
            deployment.network, deployment.vantage, isp.scan_base, seed=seed
        )
        for key, isp in deployment.isps.items()
    }


def periphery_censuses(
    deployment: Deployment, seed: int, scale: float,
    rate_pps: float = 25_000.0, metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, PeripheryCensus]:
    """Tables II-III: one engine campaign over every ISP's window.

    The serial executor scans the live deployment (same network, same
    virtual clock) with ``discover()``'s seed-derived validator, so each
    census is the one a single-shot scan of its block gives.  The
    campaign's scanner metrics merge into ``metrics`` when one is given.
    """
    result = Campaign(
        TopologySpec.deployment(
            profiles=tuple(deployment.isps), scale=scale, seed=seed
        ),
        {
            key: ScanConfig(scan_range=ScanRange.parse(isp.scan_spec),
                            rate_pps=rate_pps, seed=seed)
            for key, isp in deployment.isps.items()
        },
        probe=ProbeSpec.for_seed(seed),
        executor="serial",
        prebuilt=BuiltTopology(deployment.network, deployment.vantage, deployment),
    ).run()
    if metrics is not None:
        metrics.merge(result.metrics)
    return {key: census_from_scan(scan) for key, scan in result.results.items()}


def service_audit(
    deployment: Deployment, censuses: Dict[str, PeripheryCensus]
) -> Tuple[Dict[str, AppScanResult], Dict[str, List[IdentifiedDevice]]]:
    """Tables IV-VIII: the application sweep of every census's last hops,
    and the devices it lets the vendor identifier name."""
    scanner = AppScanner(deployment.network, deployment.vantage)
    vid = VendorIdentifier(deployment.catalog)
    app_results, identified = {}, {}
    for key, census in censuses.items():
        app_results[key] = scanner.scan(census.last_hop_addresses())
        identified[key] = vid.identify(
            census.records, app_results[key].observations
        )
    return app_results, identified


def loop_surveys(deployment: Deployment, seed: int) -> Dict[str, LoopSurvey]:
    """Table XI: the loop scan of every ISP block."""
    return {
        key: find_loops(
            deployment.network, deployment.vantage, isp.scan_spec, seed=seed
        )
        for key, isp in deployment.isps.items()
    }


def bgp_survey(
    world: InternetWorld, seed: int
) -> Tuple[Dict[int, PeripheryCensus], Dict[int, LoopSurvey]]:
    """Tables IX-X: the discovery and loop scans of every edge AS's
    window, each keyed by ASN."""
    censuses, surveys = {}, {}
    for as_truth in world.edges:
        censuses[as_truth.asn] = discover(
            world.network, world.vantage, as_truth.scan_spec, seed=seed
        )
        surveys[as_truth.asn] = find_loops(
            world.network, world.vantage, as_truth.scan_spec, seed=seed
        )
    return censuses, surveys


def attribute(
    addresses: Iterable[IPv6Addr], bgp_table: BgpTable
) -> Tuple[Set[int], Set[str]]:
    """The ASes and the countries ``addresses`` fall in (Table IX)."""
    asns, countries = set(), set()
    for addr in addresses:
        info = bgp_table.lookup(addr)
        asns.add(info.asn)
        countries.add(info.country)
    return asns, countries


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
    inferences = infer_delegations(deployment, seed)
    run.sections.append(tables.table1_subnet_inference(inferences).render())
    metrics.counter("reproduce_inferences").inc(len(inferences))
    stage_done("table1_subnet_inference")

    # -- Table II / III ------------------------------------------------------------
    say("running the fifteen discovery scans (Table II)")
    run.censuses = periphery_censuses(deployment, seed, scale, metrics=metrics)
    for key, census in run.censuses.items():
        metrics.counter("reproduce_census_records", isp=key).inc(
            len(census.records)
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
    run.app_results, run.identified = service_audit(deployment, run.censuses)
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
    run.loop_surveys = loop_surveys(deployment, seed)
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
        world_censuses, world_loops = bgp_survey(run.world, seed)
        last_hops = [
            r.last_hop for c in world_censuses.values() for r in c.records
        ]
        loop_addrs = [
            r.last_hop for s in world_loops.values() for r in s.records
        ]
        asns, countries = attribute(last_hops, bgp_table)
        loop_asns, loop_countries = attribute(loop_addrs, bgp_table)
        run.sections.append(
            tables.table9_bgp(
                len(last_hops), len(asns), len(countries),
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
        metrics.counter("reproduce_bgp_records").inc(len(last_hops))
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
