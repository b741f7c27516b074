"""Command-line interface: drive the reproduction without writing Python.

Installed as ``repro-xmap``.  Subcommands mirror the paper's experiments:

* ``census``     — Table I/II: subnet inference + periphery discovery;
* ``scan``       — orchestrated sharded scan campaign (checkpoint/resume);
* ``services``   — Table VII/VIII: the exposed-services audit;
* ``loops``      — Table XI: loop location on the sample blocks;
* ``attack``     — §VI-A: one amplification attack, with measured crossings;
* ``casestudy``  — Table XII: the 99-router firmware bench;
* ``internet``   — compile the AS-level BGP fabric; inspect route-leak /
  hijack / flap / failover deltas;
* ``health``     — summarise flight-recorder bundles / time-series files;
* ``feasibility``— §III-B: scan-duration projections for a given bandwidth;
* ``serve``      — the multi-tenant scan-service daemon (HTTP API,
  fair-share scheduler, drain/restart-safe queue);
* ``submit`` / ``status`` / ``cancel`` — clients for a running daemon.

Examples::

    repro-xmap census --isp in-jio-broadband --scale 20000
    repro-xmap scan --isp in-jio-broadband --shards 4 --executor process
    repro-xmap scan --shards 8 --checkpoint-dir state/ --resume
    repro-xmap services --isp cn-mobile-broadband --csv out.csv
    repro-xmap loops --scale 50000
    repro-xmap attack
    repro-xmap feasibility --gbps 1
    repro-xmap scan --store results/ --snapshot round-1 --shards 4
    repro-xmap store query results/ --prefix 2001:db8::/32 --csv out.csv
    repro-xmap store diff results/ round-1 round-2
    repro-xmap scan --timeseries 0.01 --health --flight-recorder flight/
    repro-xmap health flight/flight-*.json
    repro-xmap serve --root svc/ --port 8640 --workers 4
    repro-xmap submit --url http://127.0.0.1:8640 --tenant alice \
        --range 2001:db8:1::/56-64 --priority interactive
    repro-xmap status --url http://127.0.0.1:8640
    repro-xmap cancel --url http://127.0.0.1:8640 alice-0003
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import tables
from repro.analysis.report import ComparisonTable
from repro.analysis.reproduce import (
    infer_delegations,
    loop_surveys,
    periphery_censuses,
    service_audit,
)
from repro.core.output import (
    write_census_csv,
    write_loops_csv,
    write_services_csv,
)
from repro.core.stats import FeasibilityRow
from repro.isp.builder import build_deployment
from repro.isp.profiles import PAPER_PROFILES, profile_by_key
from repro.net.packet import MAX_HOP_LIMIT


def _write_metrics(registry, path: str, extra_lines=()) -> None:
    """Write a registry (plus any extra NDJSON lines) to ``path``."""
    with open(path, "w") as handle:
        for line in registry.ndjson_lines():
            handle.write(line + "\n")
        for line in extra_lines:
            handle.write(line + "\n")
    print(f"metrics written to {path}", file=sys.stderr)


def _telemetry_events(args):
    """An EventLog honouring ``--log-json`` (shared across subcommands).

    With ``--log-json`` every structured event is printed as one JSON line
    on stderr; without it the log stays silent (callers may still attach a
    monitor, as ``scan`` does).
    """
    from repro.telemetry import EventLog

    sink = None
    if getattr(args, "log_json", False):
        def sink(line: str) -> None:
            print(line, file=sys.stderr)
    return EventLog(sink=sink)


def _profiles(args) -> list:
    if args.isp:
        return [profile_by_key(key) for key in args.isp]
    return list(PAPER_PROFILES)


def _build(args):
    profiles = _profiles(args)
    print(f"building deployment (scale 1/{args.scale:g}, "
          f"{len(profiles)} block(s)) ...", file=sys.stderr)
    return build_deployment(profiles=profiles, scale=args.scale, seed=args.seed)


def cmd_census(args) -> int:
    deployment = _build(args)
    inferences = infer_delegations(deployment, args.seed)
    censuses = periphery_censuses(deployment, args.seed, args.scale, args.rate)
    print(tables.table1_subnet_inference(inferences).render())
    print()
    print(tables.table2_periphery(censuses, args.scale).render())
    print()
    addrs = [r.last_hop for c in censuses.values() for r in c.records]
    print(tables.table3_iid(addrs).render())
    if args.csv:
        with open(args.csv, "w") as handle:
            for census in censuses.values():
                write_census_csv(census, handle)
        print(f"\nwrote {args.csv}")
    return 0


def cmd_scan(args) -> int:
    """Run an orchestrated scan campaign through ``repro.engine``."""
    from repro.core.scanner import ScanConfig
    from repro.core.target import ScanRange
    from repro.engine import Campaign, CampaignError, ProgressMonitor
    from repro.net.addr import AddressError
    from repro.net.spec import TopologySpec
    from repro.telemetry import ProbeTracer, TraceSpecError

    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        ProbeTracer.from_spec(args.trace)
    except TraceSpecError as exc:
        print(f"error: invalid --trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    for text in args.range or ():
        try:
            ScanRange.parse(text)
        except (AddressError, ValueError) as exc:
            print(f"error: invalid --range {text!r}: {exc}", file=sys.stderr)
            return 2
    if args.shard_timeout is not None and args.executor == "serial":
        print("error: --shard-timeout needs --executor thread or process "
              "(the serial backend cannot watchdog itself)", file=sys.stderr)
        return 2
    if args.retransmit < 0:
        print("error: --retransmit must be >= 0", file=sys.stderr)
        return 2
    if args.snapshot and not args.store:
        print("error: --snapshot requires --store", file=sys.stderr)
        return 2
    if args.timeseries is not None and args.timeseries <= 0:
        print("error: --timeseries must be a positive interval in virtual "
              "seconds", file=sys.stderr)
        return 2
    if args.timeseries_out and args.timeseries is None:
        print("error: --timeseries-out requires --timeseries", file=sys.stderr)
        return 2
    if args.health and args.timeseries is None:
        print("error: --health needs --timeseries (health rules evaluate "
              "the sampled series)", file=sys.stderr)
        return 2
    if args.retry_budget is not None and args.retry_budget < 0:
        print("error: --retry-budget must be >= 0", file=sys.stderr)
        return 2
    fault_schedule = None
    if args.fault_schedule:
        from repro.faults import FaultSchedule, ScheduleError

        parts = []
        for path in args.fault_schedule:
            try:
                parts.append(FaultSchedule.from_file(path))
            except OSError as exc:
                print(f"error: cannot read --fault-schedule {path!r}: {exc}",
                      file=sys.stderr)
                return 2
            except ScheduleError as exc:
                print(f"error: invalid --fault-schedule {path!r}: {exc}",
                      file=sys.stderr)
                return 2
        try:
            # One merged schedule: the worker splits the domains itself
            # (network events arm the topology injector, host events the
            # storage shim).  Overlap validation reruns on the union.
            fault_schedule = FaultSchedule(
                events=sum((p.events for p in parts), ()),
                seed=parts[0].seed,
            )
        except ScheduleError as exc:
            print(f"error: --fault-schedule files conflict: {exc}",
                  file=sys.stderr)
            return 2
        hosts = len(fault_schedule.host_events())
        print(f"fault schedule armed: {len(fault_schedule)} event(s) "
              f"({hosts} host, {len(fault_schedule) - hosts} network), "
              f"seed {fault_schedule.seed}", file=sys.stderr)

    supervisor_policy = None
    if args.supervise or args.retry_budget is not None:
        from repro.engine import SupervisorPolicy

        supervisor_policy = SupervisorPolicy(retry_budget=args.retry_budget)

    profiles = _profiles(args)
    keys = tuple(p.key for p in profiles)
    spec = TopologySpec.deployment(profiles=keys, scale=args.scale,
                                   seed=args.seed)
    print(f"building deployment (scale 1/{args.scale:g}, "
          f"{len(profiles)} block(s)) ...", file=sys.stderr)
    built = spec.build()

    def config_for(range_text: str) -> ScanConfig:
        return ScanConfig(
            scan_range=ScanRange.parse(range_text),
            rate_pps=args.rate,
            seed=args.seed,
            max_probes=args.max_probes,
            trace=args.trace,
            fault_schedule=fault_schedule,
            adaptive_rate=args.adaptive_rate,
            retransmit=args.retransmit,
            timeseries_interval=args.timeseries or 0.0,
        )

    if args.range:
        configs = {text: config_for(text) for text in args.range}
    else:
        configs = {
            key: config_for(isp.scan_spec)
            for key, isp in built.handle.isps.items()
        }

    campaign = Campaign(
        spec,
        configs,
        shards=args.shards,
        executor=args.executor,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        monitor=ProgressMonitor(min_interval=0.5, json_mode=args.log_json),
        prebuilt=built if args.executor == "serial" else None,
        shard_timeout=args.shard_timeout,
        store_dir=args.store,
        snapshot=args.snapshot,
        health=args.health,
        flight_dir=args.flight_recorder,
        supervisor=supervisor_policy,
    )
    try:
        result = campaign.run()
    except CampaignError as error:
        print(f"campaign failed: {error}", file=sys.stderr)
        if campaign.recorder is not None and campaign.recorder.bundles:
            for path in campaign.recorder.bundles:
                print(f"flight-recorder bundle: {path}", file=sys.stderr)
        return 1

    if args.metrics_out:
        import json as _json

        _write_metrics(
            result.metrics, args.metrics_out,
            extra_lines=(
                _json.dumps(trace, sort_keys=True) for trace in result.traces
            ),
        )

    if args.timeseries_out and result.timeseries is not None:
        import json as _json

        with open(args.timeseries_out, "w") as handle:
            _json.dump(result.timeseries.to_dict(), handle, sort_keys=True)
            handle.write("\n")
        print(f"time series written to {args.timeseries_out}",
              file=sys.stderr)

    if args.health and result.health is not None:
        print(result.health.summary(), file=sys.stderr)

    # Supervised partial results still exit 0: the committed snapshot is
    # annotated, the parked shards are named, and the operator decides.
    if result.drained:
        print("campaign drained on SIGTERM: completed shards committed",
              file=sys.stderr)
    for parked in result.degraded:
        print(f"shard degraded: {parked['job_id']} ({parked['reason']}; "
              f"signatures {', '.join(parked['signatures']) or 'none'})",
              file=sys.stderr)

    for path in result.flight_bundles:
        print(f"flight-recorder bundle: {path}", file=sys.stderr)

    # In store mode rows streamed to disk instead of memory; responder
    # counts (and any CSV/JSONL export) come back out of the store.
    store = None
    label_segments: dict = {}
    if args.store and result.snapshot:
        from repro.store import ResultStore

        store = ResultStore(args.store)
        label_segments = dict(
            store.snapshot(result.snapshot).meta.get("labels", {})
        )

    table = ComparisonTable(
        f"Scan campaign ({args.shards} shard(s), {args.executor} executor)",
        ("Range", "sent", "validated", "hit-rate", "uniq responders"),
    )
    for label, scan_result in result.results.items():
        if store is not None:
            # The formatted address is one-to-one with its value, so the
            # dict projection answers this without building row objects.
            uniq = len({
                row["responder"]
                for row in store.iter_dicts(label_segments.get(label, []))
            })
        else:
            uniq = len(scan_result.unique_responders())
        table.add(
            label,
            scan_result.stats.sent,
            scan_result.stats.validated,
            f"{scan_result.stats.hit_rate:.4%}",
            uniq,
        )
    meta = result.metadata()
    note = (
        f"campaign {meta['campaign']}: "
        f"sent this run: {meta['sent_this_run']:,} "
        f"({meta['shards_from_checkpoint']} shard(s) restored from "
        f"checkpoint); wall {meta['wall_seconds']:.2f}s"
    )
    if result.snapshot:
        note += f"; snapshot {result.snapshot} -> {args.store}"
    table.note(note)
    print(table.render())

    for path, sink_cls in ((args.csv, None), (args.jsonl, "jsonl")):
        if not path:
            continue
        from repro.store.sink import CsvSink, JsonlSink

        with open(path, "w") as handle:
            sink = CsvSink(handle) if sink_cls is None else JsonlSink(handle)
            if store is not None:
                sink.emit_many(
                    store.iter_rows(store.snapshot(result.snapshot).segments)
                )
            else:
                for scan_result in result.results.values():
                    sink.emit_many(scan_result.results)
            sink.close()
        print(f"wrote {sink.rows} row(s) to {path}", file=sys.stderr)
    return 0


def cmd_health(args) -> int:
    """Summarise flight-recorder bundles / time-series documents.

    Accepts any mix of ``repro-flight-recorder`` bundles (what a crash,
    watchdog kill, or quarantine dumps) and ``repro-timeseries`` documents
    (``scan --timeseries-out``); each gets an event summary and, when a
    series is present, a health verdict from the stock rules.  Exit code 0
    even when degraded — the verdict is the output, not an error; 1 only
    when an artifact cannot be read.
    """
    import json as _json
    from collections import Counter as _Counter

    from repro.telemetry import (
        BUNDLE_FORMAT,
        SERIES_FORMAT,
        HealthEngine,
        SeriesSet,
        load_bundle,
        sparkline,
    )

    engine = HealthEngine()
    status = 0
    for path in args.bundle:
        try:
            with open(path) as handle:
                data = _json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = 1
            continue
        fmt = data.get("format") if isinstance(data, dict) else None
        if fmt == BUNDLE_FORMAT:
            try:
                bundle = load_bundle(path)
            except ValueError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                status = 1
                continue
            events = bundle.get("events", [])
            kinds = _Counter(str(e.get("type")) for e in events)
            print(f"{path}:")
            print(f"  flight recorder: reason={bundle.get('reason')} "
                  f"campaign={bundle.get('campaign')}")
            print(f"  {len(events)} event(s): "
                  + ", ".join(f"{k} x{n}" for k, n in kinds.most_common(8)))
            series_doc = bundle.get("timeseries")
        elif fmt == SERIES_FORMAT:
            print(f"{path}:")
            series_doc = data
        else:
            print(f"{path}: not a {BUNDLE_FORMAT} or {SERIES_FORMAT} "
                  "document", file=sys.stderr)
            status = 1
            continue
        if series_doc:
            series = SeriesSet.from_dict(series_doc)
            span = series.bucket_range()
            if span is not None:
                sent = series.named("scanner_probes_sent")
                bars = [sent.get(b, 0) for b in range(span[0], span[1] + 1)]
                print(f"  sent/bucket {sparkline(bars, width=60)} "
                      f"(interval {series.interval}s, "
                      f"buckets {span[0]}..{span[1]})")
            report = engine.evaluate(series)
            for line in report.summary().splitlines():
                print(f"  {line}")
        else:
            print("  no time series captured")
    return status


def cmd_services(args) -> int:
    deployment = _build(args)
    censuses = periphery_censuses(deployment, args.seed, args.scale)
    app_results, _ = service_audit(deployment, censuses)
    sizes = {key: censuses[key].n_unique for key in censuses}
    print(tables.table7_services(app_results, sizes, args.scale).render())
    print()
    print(tables.table8_software(app_results.values(), args.scale).render())
    if args.csv:
        with open(args.csv, "w") as handle:
            write_services_csv(app_results.values(), handle)
        print(f"\nwrote {args.csv}")
    return 0


def cmd_loops(args) -> int:
    deployment = _build(args)
    surveys = loop_surveys(deployment, args.seed)
    print(tables.table11_loops(surveys, args.scale).render())
    if args.csv:
        with open(args.csv, "w") as handle:
            for survey in surveys.values():
                write_loops_csv(survey, handle)
        print(f"\nwrote {args.csv}")
    return 0


def cmd_attack(args) -> int:
    from repro.loop.attack import run_loop_attack
    from repro.net.testbed import MiniTopology, build_mini

    topo = build_mini()
    target = MiniTopology.LAN_VULN.subprefix(9, 64).address(0xBAD)
    report = run_loop_attack(
        topo.network, topo.vantage, target, "isp", "cpe-vuln",
        hop_limit=args.hop_limit,
    )
    table = ComparisonTable(
        "Routing-loop amplification (one attacker packet)",
        ("Metric", "Value"),
    )
    table.add("target (not-used prefix)", str(target))
    table.add("hop limit", report.hop_limit)
    table.add("link crossings measured", report.amplification)
    table.add("paper bound (255-n)", report.theoretical)
    table.add("forwards per router", f"{report.per_router_forwards:.0f}")
    print(table.render())
    return 0


def cmd_internet(args) -> int:
    from repro.bgp import (
        Failover,
        PrefixHijack,
        RouteLeak,
        SessionFlap,
        build_internet,
        build_leak_demo,
        compute_delta,
        rib_digest,
    )
    from repro.bgp.world import LEAK_DEMO_LEAKER, LEAK_DEMO_R2, LEAK_DEMO_T1

    if args.demo:
        world = build_leak_demo(seed=args.seed)
    else:
        print(f"compiling internet fabric (scale 1/{args.scale:g}) ...",
              file=sys.stderr)
        world = build_internet(
            seed=args.seed, scale=args.scale, n_tier1=args.tier1,
            n_ix=args.ix, n_tail_ases=args.tail_ases,
            populate=not args.no_population,
        )
    fabric = world.fabric
    from repro.telemetry import MetricsRegistry

    events = _telemetry_events(args)
    registry = MetricsRegistry()
    registry.gauge("bgp_ases").set(len(fabric.ases))
    registry.gauge("bgp_sessions").set(len(fabric.sessions))
    registry.gauge("bgp_rib_routes").set(fabric.rib_routes())
    registry.gauge("bgp_fib_routes").set(fabric.fib_routes())
    registry.gauge("bgp_devices").set(len(world.network.devices))
    events.emit(
        "fabric_compiled",
        ases=len(fabric.ases), ixes=len(fabric.ixes),
        sessions=len(fabric.sessions), demo=bool(args.demo),
    )

    by_role: dict = {}
    for system in fabric.ases.values():
        by_role[system.role.value] = by_role.get(system.role.value, 0) + 1
    transit_sessions = sum(
        1 for s in fabric.sessions.values() if s.rel == "transit"
    )
    table = ComparisonTable(
        "BGP fabric" + (" (leak demo)" if args.demo else ""),
        ("Metric", "Value"),
    )
    table.add("autonomous systems",
              ", ".join(f"{n} {role}" for role, n in sorted(by_role.items())))
    table.add("internet exchanges", len(fabric.ixes))
    table.add("eBGP sessions",
              f"{transit_sessions} transit, "
              f"{len(fabric.sessions) - transit_sessions} peer")
    table.add("RIB routes (tracked ASes)", fabric.rib_routes())
    table.add("installed FIB rows", fabric.fib_routes())
    table.add("RIB digest", rib_digest(fabric.rib)[:16])
    table.add("devices on network", len(world.network.devices))
    if world.edges:
        table.add("edge ASes populated", len(world.edges))
        table.add("CPE devices", sum(e.n_devices for e in world.edges))
        table.add("loop-vulnerable CPEs", sum(e.n_loops for e in world.edges))
    print(table.render())

    if args.scenario is None:
        if args.metrics_out:
            _write_metrics(registry, args.metrics_out)
        return 0
    if args.scenario == "failover":
        asn = args.asn if args.asn is not None else (
            world.edges[0].asn if world.edges else None
        )
        if asn is None:
            print("failover needs --asn on an unpopulated world",
                  file=sys.stderr)
            return 2
        scenario = Failover(asn=asn)
    elif not args.demo:
        print(f"--scenario {args.scenario} needs the --demo world "
              "(its cast of ASes is fixed); use --scenario failover --asn N "
              "on the full internet", file=sys.stderr)
        return 2
    elif args.scenario == "leak":
        scenario = RouteLeak(
            leaker=LEAK_DEMO_LEAKER, from_as=LEAK_DEMO_R2, to_as=LEAK_DEMO_T1,
            prefixes=(str(world.edges[0].block),),
        )
    elif args.scenario == "hijack":
        victim_window = world.edges[0].block.subprefix(1, 40)
        scenario = PrefixHijack(
            hijacker=LEAK_DEMO_LEAKER,
            prefix=str(victim_window.subprefix(0, 44)),
        )
    else:  # flap: drop the victim edge's session with its primary provider
        scenario = SessionFlap(LEAK_DEMO_R2, world.edges[0].asn)
    delta = compute_delta(fabric, scenario)
    registry.counter("bgp_scenario_route_ops",
                     scenario=args.scenario).inc(len(delta.ops))
    events.emit("scenario_delta", scenario=args.scenario, ops=len(delta.ops))
    print()
    print(delta.summary())
    for op in delta.ops[:args.max_ops]:
        hop = f" via {op.next_hop}" if op.next_hop else ""
        print(f"  {op.device}: {op.action} {op.prefix}{hop}")
    if len(delta.ops) > args.max_ops:
        print(f"  ... {len(delta.ops) - args.max_ops} more")
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    return 0


def cmd_casestudy(args) -> int:
    from repro.loop.casestudy import run_case_study

    results = run_case_study()
    print(tables.table12_case_study(results).render())
    vulnerable = sum(1 for r in results if r.vulnerable)
    print(f"\n{vulnerable}/{len(results)} units vulnerable")
    return 0


def cmd_disclose(args) -> int:
    from repro.analysis.disclosure import build_disclosure_report

    deployment = _build(args)
    censuses = periphery_censuses(deployment, args.seed, args.scale)
    app_results, by_isp = service_audit(deployment, censuses)
    surveys = loop_surveys(deployment, args.seed)
    identified = [d for devices in by_isp.values() for d in devices]
    observations = [o for r in app_results.values() for o in r.observations]
    report = build_disclosure_report(identified, surveys, observations)
    print(report.render_summary())
    if args.vendor:
        print()
        print(report.render_advisory(args.vendor))
    return 0


def cmd_reproduce(args) -> int:
    import time

    from repro.analysis.reproduce import reproduce_all

    started = time.time()

    def progress(message: str) -> None:
        print(f"[{time.time() - started:6.1f}s] {message}", file=sys.stderr,
              flush=True)

    run = reproduce_all(scale=args.scale, seed=args.seed, progress=progress,
                        metrics_out=args.metrics_out)
    report = run.report()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def _open_store(args):
    """Open the store with the shared telemetry flags wired through.

    Returns ``(store, registry)``: corruption/quarantine transitions land
    in the ``--log-json`` event stream, integrity counters in the registry
    that ``--metrics-out`` exports.
    """
    from repro.store import ResultStore
    from repro.telemetry import MetricsRegistry

    events = _telemetry_events(args)
    registry = MetricsRegistry()
    store = ResultStore(
        args.dir, metrics=registry,
        on_event=lambda rec: events.ingest([rec]),
    )
    return store, registry


def _export_store_metrics(args, registry) -> None:
    if getattr(args, "metrics_out", None):
        _write_metrics(registry, args.metrics_out)


def cmd_store_info(args) -> int:
    import json as _json

    from repro.store import StoreCorruption

    try:
        store, registry = _open_store(args)
    except StoreCorruption as exc:
        print(f"store corrupt: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(store.info(), indent=2, sort_keys=True))
    _export_store_metrics(args, registry)
    return 0


def cmd_store_query(args) -> int:
    from repro.store import StoreCorruption, StoreError, query
    from repro.store.sink import CsvSink, JsonlSink

    try:
        store, registry = _open_store(args)
        rows = query(
            store,
            snapshot=args.snapshot,
            prefix=args.prefix,
            kind=args.kind,
            responder64=args.responder64,
        )
        handle = open(args.out, "w") if args.out else sys.stdout
        try:
            sink = JsonlSink(handle) if args.jsonl else CsvSink(handle)
            sink.emit_many(rows)
            sink.close()
        finally:
            if args.out:
                handle.close()
    except (StoreError, StoreCorruption, ValueError) as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    print(f"{sink.rows} row(s)", file=sys.stderr)
    _export_store_metrics(args, registry)
    return 0


def cmd_store_diff(args) -> int:
    import json as _json

    from repro.store import StoreCorruption, StoreError, diff

    try:
        store, registry = _open_store(args)
        report = diff(store, args.snapshot_a, args.snapshot_b)
    except (StoreError, StoreCorruption) as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    _export_store_metrics(args, registry)
    return 0


def cmd_store_compact(args) -> int:
    from repro.store import StoreCorruption, StoreError

    try:
        store, registry = _open_store(args)
        report = store.compact()
    except (StoreError, StoreCorruption) as exc:
        print(f"compaction failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"compacted {report['segments_before']} -> "
        f"{report['segments_after']} segment(s); "
        f"{report['rows_before']} -> {report['rows_after']} row(s) "
        f"({report['duplicates_dropped']} duplicate(s) dropped)"
    )
    _export_store_metrics(args, registry)
    return 0


def cmd_feasibility(args) -> int:
    bandwidth = args.gbps * 1e9
    rows = [
        FeasibilityRow("/64 sub-prefixes of a /32 block (2^32)", 32, bandwidth),
        FeasibilityRow("/60 sub-prefixes of a /28 block (2^36)", 36, bandwidth),
        FeasibilityRow("/64 sub-prefixes of a /24 block (2^40)", 40, bandwidth),
    ]
    table = ComparisonTable(
        f"§III-B scan projections at {args.gbps:g} Gbps",
        ("Space", "window bits", "duration"),
    )
    for row in rows:
        table.add(row.label, row.window_bits, row.human)
    print(table.render())
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import json

    from repro.service import ScanService, ServiceServer, TenantPolicy

    policies = {}
    if args.policies:
        with open(args.policies) as handle:
            policies = {
                tenant: TenantPolicy.from_dict(policy)
                for tenant, policy in json.load(handle).items()
            }
    service = ScanService(
        args.root,
        policies=policies,
        default_policy=TenantPolicy(max_in_flight=args.max_in_flight),
        max_workers=args.workers,
        seed=args.seed,
    )
    server = ServiceServer(service, host=args.host, port=args.port).start()
    # The address line is the contract scripts wait on (port 0 is valid).
    print(json.dumps({"address": server.address,
                      "scope": service.queue.allocator.scope,
                      "recovered": service.queue.recovered_leases}),
          flush=True)
    try:
        with service.sigterm_scope():
            if args.once:
                service.run_until_idle()
            else:
                asyncio.run(service.run())
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(json.dumps({"stopped": True, "drained": service.draining,
                      "queue_depth": service.queue.depth}), flush=True)
    return 0


def _service_client(args):
    from repro.service.api import ServiceClient

    return ServiceClient(args.url)


def cmd_submit(args) -> int:
    import json

    from repro.service.api import ApiError

    spec = {
        "tenant": args.tenant,
        "name": args.name or args.scan_range,
        "scan_range": args.scan_range,
        "topology": args.topology,
        "seed": args.seed,
        "shards": args.shards,
        "executor": args.executor,
        "priority": args.priority,
        "rate_pps": args.rate,
        "max_probes": args.max_probes,
    }
    try:
        record = _service_client(args).submit(spec)
    except ApiError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2))
    return 0


def cmd_status(args) -> int:
    import json

    from repro.service.api import ApiError

    client = _service_client(args)
    try:
        if args.id is None:
            payload: object = client.service_status()
            if args.tenant is not None:
                payload = {"campaigns": client.list_campaigns(args.tenant)}
        elif args.results:
            payload = {"rows": client.results(args.id, limit=args.limit)}
        else:
            payload = client.status(args.id)
    except ApiError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2))
    return 0


def cmd_cancel(args) -> int:
    import json

    from repro.service.api import ApiError

    try:
        record = _service_client(args).cancel(args.id)
    except ApiError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xmap",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One shared parent for the telemetry surface, so every subcommand
    # that produces metrics/events spells the flags identically.
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument("--metrics-out", default=None, metavar="FILE",
                           help="write telemetry counters/gauges/histograms "
                                "(and any sampled probe traces) as NDJSON")
    telemetry.add_argument("--log-json", action="store_true",
                           help="emit raw structured events as JSON lines "
                                "instead of human status text")

    def common(p):
        p.add_argument("--scale", type=float, default=20_000.0,
                       help="population scale-down factor (default 20000)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--isp", action="append", default=None,
                       metavar="KEY",
                       help="profile key (repeatable); default: all fifteen")
        p.add_argument("--csv", default=None, help="also write results as CSV")

    p = sub.add_parser("census", help="Tables I-III: discovery census")
    common(p)
    p.add_argument("--rate", type=float, default=25_000.0,
                   help="probe rate in pps (default 25000, the paper's)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("scan",
                       help="orchestrated sharded scan campaign "
                            "(checkpoint/resume)",
                       parents=[telemetry])
    common(p)
    p.add_argument("--range", action="append", default=None, metavar="SPEC",
                   help="explicit scan range (repeatable), e.g. "
                        "2001:db8::/32-64; default: each selected ISP's "
                        "delegated window")
    p.add_argument("--rate", type=float, default=25_000.0,
                   help="probe rate in pps (default 25000)")
    p.add_argument("--shards", type=int, default=1,
                   help="shards per range (default 1)")
    p.add_argument("--workers", type=int, default=None,
                   help="pool size for thread/process executors")
    p.add_argument("--executor", choices=("serial", "thread", "process"),
                   default="serial")
    p.add_argument("--checkpoint-dir", default=None,
                   help="directory for ZMap-style resumable state files")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint-dir instead of starting "
                        "fresh")
    p.add_argument("--max-probes", type=int, default=None,
                   help="cap probes per shard")
    p.add_argument("--trace", default="off", metavar="SPEC",
                   help="probe-lifecycle tracing: off, all, or sample:N "
                        "(default off)")
    p.add_argument("--timeseries", type=float, default=None,
                   metavar="SECONDS",
                   help="sample per-bucket metric deltas every SECONDS of "
                        "virtual clock (merged bit-identically across "
                        "shards)")
    p.add_argument("--timeseries-out", default=None, metavar="FILE",
                   help="write the merged campaign time series as JSON "
                        "(requires --timeseries)")
    p.add_argument("--health", action="store_true",
                   help="evaluate the stock SLO/health rules over the "
                        "sampled series and print the verdict (requires "
                        "--timeseries)")
    p.add_argument("--flight-recorder", default=None, metavar="DIR",
                   help="always-on bounded flight recorder: dump a "
                        "telemetry bundle to DIR on watchdog kill, "
                        "checkpoint/store quarantine, SIGTERM, or campaign "
                        "failure")
    p.add_argument("--fault-schedule", action="append", default=None,
                   metavar="FILE",
                   help="JSON fault schedule (repro.faults), repeatable and "
                        "merged: network events are injected into every "
                        "shard's simulated network, host events "
                        "(fs-error/fs-torn-write/fs-crash) into its "
                        "checkpoint/store I/O — deterministic chaos testing")
    p.add_argument("--supervise", action="store_true",
                   help="enable the campaign supervisor: park shards that "
                        "keep failing (circuit breaker) and commit partial "
                        "results instead of failing the whole campaign")
    p.add_argument("--retry-budget", type=int, default=None, metavar="N",
                   help="global cap on shard retries across the campaign "
                        "(implies --supervise)")
    p.add_argument("--adaptive-rate", action="store_true",
                   help="AIMD probe-rate control: back off on reply-rate "
                        "collapse, creep back to --rate when healthy")
    p.add_argument("--retransmit", type=int, default=0, metavar="N",
                   help="retry silent targets up to N times with jittered "
                        "exponential virtual backoff (default 0 = off)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="watchdog: abandon and retry any shard still running "
                        "after this many wall seconds (thread/process "
                        "executors only)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="stream results into a repro.store result store at "
                        "DIR (segments + atomic manifest) instead of "
                        "buffering them in memory")
    p.add_argument("--snapshot", default=None, metavar="NAME",
                   help="snapshot name for this round in the store "
                        "(default: round-<campaign id>)")
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="also write results as JSON lines")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("services", help="Tables VII-VIII: service audit")
    common(p)
    p.set_defaults(func=cmd_services)

    p = sub.add_parser("loops", help="Table XI: loop location")
    common(p)
    p.set_defaults(func=cmd_loops)

    p = sub.add_parser("attack", help="§VI-A: amplification demo")
    p.add_argument("--hop-limit", type=int, default=MAX_HOP_LIMIT)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("casestudy", help="Table XII: 99-router bench")
    p.set_defaults(func=cmd_casestudy)

    p = sub.add_parser("internet",
                       help="compile the AS-level BGP fabric and "
                            "inspect control-plane scenarios",
                       parents=[telemetry])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", type=float, default=20_000.0,
                   help="edge population scale-down factor (default 20000)")
    p.add_argument("--tier1", type=int, default=3,
                   help="number of tier-1 transit ASes (default 3)")
    p.add_argument("--ix", type=int, default=2,
                   help="number of internet exchanges (default 2)")
    p.add_argument("--tail-ases", type=int, default=220,
                   help="generated edge ASes beyond Figure 5's top ten")
    p.add_argument("--no-population", action="store_true",
                   help="compile routers/RIBs/FIBs only, skip the CPEs")
    p.add_argument("--demo", action="store_true",
                   help="build the small two-transit route-leak world")
    p.add_argument("--scenario",
                   choices=("leak", "hijack", "flap", "failover"),
                   default=None,
                   help="compute and print a control-plane scenario delta")
    p.add_argument("--asn", type=int, default=None,
                   help="AS for --scenario failover")
    p.add_argument("--max-ops", type=int, default=20,
                   help="route operations to print (default 20)")
    p.set_defaults(func=cmd_internet)

    p = sub.add_parser("disclose",
                       help="§VII: per-vendor disclosure summary/advisories")
    common(p)
    p.add_argument("--vendor", default=None,
                   help="also print the full advisory for one vendor")
    p.set_defaults(func=cmd_disclose)

    p = sub.add_parser("reproduce",
                       help="run the whole evaluation, emit one report")
    p.add_argument("--scale", type=float, default=50_000.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the per-table metrics snapshot as NDJSON")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("store",
                       help="inspect, query, diff, and compact a result "
                            "store written by `scan --store`")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    sp = store_sub.add_parser("info", help="manifest summary as JSON",
                              parents=[telemetry])
    sp.add_argument("dir", help="store directory")
    sp.set_defaults(func=cmd_store_info)

    sp = store_sub.add_parser("query",
                              help="stream matching rows as CSV/JSONL",
                              parents=[telemetry])
    sp.add_argument("dir", help="store directory")
    sp.add_argument("--snapshot", default=None,
                    help="restrict to one round's snapshot")
    sp.add_argument("--prefix", default=None, metavar="PFX",
                    help="probe-target prefix filter, e.g. 2001:db8::/32")
    sp.add_argument("--kind", default=None,
                    help="reply-kind filter (e.g. echo-reply, "
                         "dest-unreachable)")
    sp.add_argument("--responder64", default=None, metavar="PFX64",
                    help="responder /64 filter")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write rows here instead of stdout")
    sp.add_argument("--jsonl", action="store_true",
                    help="emit JSON lines instead of CSV")
    sp.set_defaults(func=cmd_store_query)

    sp = store_sub.add_parser("diff",
                              help="longitudinal churn between two rounds",
                              parents=[telemetry])
    sp.add_argument("dir", help="store directory")
    sp.add_argument("snapshot_a", help="earlier round")
    sp.add_argument("snapshot_b", help="later round")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    sp.set_defaults(func=cmd_store_diff)

    sp = store_sub.add_parser("compact",
                              help="merge + dedup segments, sweep orphans",
                              parents=[telemetry])
    sp.add_argument("dir", help="store directory")
    sp.set_defaults(func=cmd_store_compact)

    p = sub.add_parser("health",
                       help="summarise flight-recorder bundles and "
                            "time-series documents")
    p.add_argument("bundle", nargs="+",
                   help="flight-recorder bundle or --timeseries-out "
                        "document (repeatable)")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser("feasibility", help="§III-B projections")
    p.add_argument("--gbps", type=float, default=1.0)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("serve",
                       help="run the multi-tenant scan-service daemon "
                            "(HTTP API + fair-share scheduler)")
    p.add_argument("--root", required=True,
                   help="service state root (queue.json + queue.log, "
                        "tenants/, logs/)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="HTTP port (default 0 = ephemeral; the chosen "
                        "address is printed as JSON on stdout)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker-fleet size (concurrent campaign leases)")
    p.add_argument("--seed", type=int, default=0,
                   help="scheduler tiebreak seed (replayable decisions)")
    p.add_argument("--max-in-flight", type=int, default=2,
                   help="default per-tenant concurrent-lease cap")
    p.add_argument("--policies", default=None, metavar="FILE",
                   help="JSON {tenant: policy} overriding the default "
                        "(weight, max_in_flight, probe_budget, ...)")
    p.add_argument("--once", action="store_true",
                   help="drain the queue to idle, then exit (batch mode)")
    p.set_defaults(func=cmd_serve)

    def service_client_args(p):
        p.add_argument("--url", required=True,
                       help="daemon base URL, e.g. http://127.0.0.1:8640")

    p = sub.add_parser("submit", help="submit a campaign to a daemon")
    service_client_args(p)
    p.add_argument("--tenant", required=True)
    p.add_argument("--name", default=None,
                   help="campaign label (default: the range spec)")
    p.add_argument("--range", required=True, dest="scan_range",
                   metavar="SPEC", help="e.g. 2001:db8:1::/56-64")
    p.add_argument("--topology", default="mini",
                   help="topology kind (default mini)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--executor", default="serial",
                   choices=("serial", "thread", "process"))
    p.add_argument("--priority", default="normal",
                   choices=("interactive", "normal", "batch"))
    p.add_argument("--rate", type=float, default=25_000.0)
    p.add_argument("--max-probes", type=int, default=None)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status",
                       help="service summary, or one campaign's record")
    service_client_args(p)
    p.add_argument("id", nargs="?", default=None,
                   help="campaign id (omit for the service summary)")
    p.add_argument("--tenant", default=None,
                   help="list this tenant's campaigns instead")
    p.add_argument("--results", action="store_true",
                   help="fetch the campaign's committed rows")
    p.add_argument("--limit", type=int, default=None,
                   help="cap --results rows")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("cancel", help="cancel a queued or leased campaign")
    service_client_args(p)
    p.add_argument("id")
    p.set_defaults(func=cmd_cancel)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
