"""repro.faults: deterministic chaos — schedules, injection, adaptation."""

import pickle

import pytest

from repro.core.probes.icmp import IcmpEchoProbe
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.core.validate import Validator
from repro.faults import (
    BLACKHOLE,
    LOSS_BURST,
    RATE_LIMIT,
    ROUTE_FLAP,
    ROUTER_CRASH,
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    ScheduleError,
)
from repro.telemetry.metrics import MetricsRegistry

from tests.pipeline import engine
from tests.topo import build_mini

LAN_OK = "2001:db8:1:50::/60-64"  # 16 targets behind cpe-ok, all answer
BOTH_LANS = "2001:db8:1::/56-64"  # 256 targets; 32 answer (both CPE LANs)


def stats_key(stats):
    """Every ScanStats field except wall-clock time (not deterministic)."""
    data = vars(stats).copy()
    data.pop("wall_seconds", None)
    return data


def scan(range_text=LAN_OK, schedule=None, rate_pps=2000.0, reference=False,
         seed=1, **knobs):
    topo = build_mini(flow_cache=not reference)
    probe = IcmpEchoProbe(Validator(bytes(range(16))))
    config = ScanConfig(
        scan_range=ScanRange.parse(range_text),
        rate_pps=rate_pps,
        seed=seed,
        fault_schedule=schedule,
        **knobs,
    )
    registry = MetricsRegistry()
    scanner = Scanner(topo.network, topo.vantage, probe, config,
                      metrics=registry)
    with engine(block_size=1 if reference else None):
        result = scanner.run()
    return topo, scanner, result, registry


class TestScheduleValidation:
    def test_json_round_trip(self):
        schedule = FaultSchedule(
            seed=7,
            events=(
                FaultEvent(kind=LOSS_BURST, start=0.001, end=0.002, rate=0.5,
                           link=("isp", "cpe-ok")),
                FaultEvent(kind=ROUTER_CRASH, start=0.003, end=0.004,
                           device="cpe-ok"),
                FaultEvent(kind=RATE_LIMIT, start=0.005, end=0.006,
                           device="cpe-ok", rate=10.0, burst=2.0),
                FaultEvent(kind=BLACKHOLE, start=0.007, end=0.008,
                           device="isp", prefix="2001:db8:1:50::/60"),
            ),
        )
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_from_file(self, tmp_path):
        path = tmp_path / "sched.json"
        schedule = FaultSchedule(
            seed=3,
            events=(FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0,
                               rate=0.1),),
        )
        path.write_text(schedule.to_json())
        assert FaultSchedule.from_file(path) == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError, match="unknown fault kind"):
            FaultEvent(kind="meteor-strike", start=0.0, end=1.0).validate()

    def test_bad_window_rejected(self):
        with pytest.raises(ScheduleError, match="window"):
            FaultEvent(kind=LOSS_BURST, start=0.5, end=0.5,
                       rate=0.1).validate()

    def test_loss_rate_bounds(self):
        with pytest.raises(ScheduleError, match="rate"):
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0,
                       rate=1.5).validate()
        with pytest.raises(ScheduleError, match="rate"):
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0).validate()

    def test_device_required(self):
        with pytest.raises(ScheduleError, match="device is required"):
            FaultEvent(kind=ROUTER_CRASH, start=0.0, end=1.0).validate()

    def test_prefix_required(self):
        with pytest.raises(ScheduleError, match="prefix is required"):
            FaultEvent(kind=BLACKHOLE, start=0.0, end=1.0,
                       device="isp").validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ScheduleError, match="unknown fault event field"):
            FaultEvent.from_dict(
                {"kind": LOSS_BURST, "start": 0, "end": 1, "rate": 0.5,
                 "severity": "extreme"}
            )

    def test_malformed_json_rejected(self):
        with pytest.raises(ScheduleError, match="not valid JSON"):
            FaultSchedule.from_json("{truncated")
        with pytest.raises(ScheduleError, match="JSON object"):
            FaultSchedule.from_json("[1, 2]")
        with pytest.raises(ScheduleError, match="seed"):
            FaultSchedule.from_json('{"seed": "lots", "events": []}')

    def test_overlap_same_resource_rejected(self):
        with pytest.raises(ScheduleError, match="overlapping"):
            FaultSchedule(events=(
                FaultEvent(kind=BLACKHOLE, start=0.0, end=2.0, device="isp",
                           prefix="2001:db8:1:50::/60"),
                FaultEvent(kind=ROUTE_FLAP, start=1.0, end=3.0, device="isp",
                           prefix="2001:db8:1:50::/60"),
            ))

    def test_disjoint_windows_and_distinct_resources_allowed(self):
        FaultSchedule(events=(
            # Same resource, back-to-back windows: fine.
            FaultEvent(kind=BLACKHOLE, start=0.0, end=1.0, device="isp",
                       prefix="2001:db8:1:50::/60"),
            FaultEvent(kind=ROUTE_FLAP, start=1.0, end=2.0, device="isp",
                       prefix="2001:db8:1:50::/60"),
            # Overlapping windows on different devices: fine.
            FaultEvent(kind=ROUTER_CRASH, start=0.5, end=1.5,
                       device="cpe-ok"),
            FaultEvent(kind=ROUTER_CRASH, start=0.5, end=1.5,
                       device="cpe-vuln"),
        ))

    def test_config_with_schedule_pickles(self):
        schedule = FaultSchedule(
            seed=5,
            events=(FaultEvent(kind=LOSS_BURST, start=0.0, end=0.01,
                               rate=0.3),),
        )
        config = ScanConfig(scan_range=ScanRange.parse(LAN_OK),
                            fault_schedule=schedule)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.fault_schedule == schedule


class TestArming:
    def test_unknown_device_rejected_at_arm(self):
        topo = build_mini()
        schedule = FaultSchedule(events=(
            FaultEvent(kind=ROUTER_CRASH, start=0.0, end=1.0,
                       device="no-such-router"),
        ))
        with pytest.raises(FaultError, match="unknown device"):
            FaultInjector(topo.network, schedule).arm()

    def test_vantage_crash_rejected(self):
        topo = build_mini()
        schedule = FaultSchedule(events=(
            FaultEvent(kind=ROUTER_CRASH, start=0.0, end=1.0,
                       device=topo.vantage.name),
        ))
        injector = FaultInjector(topo.network, schedule,
                                 protected=(topo.vantage.name,))
        with pytest.raises(FaultError, match="protected"):
            injector.arm()

    def test_double_arming_rejected(self):
        topo = build_mini()
        schedule = FaultSchedule(events=(
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0, rate=0.5),
        ))
        FaultInjector(topo.network, schedule).arm()
        with pytest.raises(FaultError, match="already armed"):
            FaultInjector(topo.network, schedule).arm()

    def test_flap_without_route_fails_fast(self):
        schedule = FaultSchedule(events=(
            FaultEvent(kind=ROUTE_FLAP, start=0.0, end=0.004, device="isp",
                       prefix="2001:db8:ffff::/48"),
        ))
        with pytest.raises(FaultError, match="no route"):
            scan(schedule=schedule)


class TestFaultEffects:
    def test_loss_burst_drops_probes(self):
        schedule = FaultSchedule(seed=9, events=(
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0, rate=1.0),
        ))
        topo, _, result, registry = scan(schedule=schedule)
        assert result.stats.validated == 0
        assert registry.value("fault_packets_lost") > 0
        # restore() leaves the network pristine.
        assert topo.network.faults is None
        assert topo.network.link_loss == {}

    def test_loss_burst_on_one_link_spares_others(self):
        # Kill the isp -> cpe-ok link only: cpe-vuln's LAN still answers.
        schedule = FaultSchedule(seed=9, events=(
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0, rate=1.0,
                       link=("isp", "cpe-ok")),
        ))
        _, _, result, _ = scan(range_text=BOTH_LANS, schedule=schedule)
        responders = {str(r.responder) for r in result.results}
        assert result.stats.validated == 16
        assert "2001:db8:0:5::dead:beef" not in responders  # cpe-ok: dark
        assert "2001:db8:0:6::1234" in responders  # cpe-vuln: untouched

    def test_router_crash_window_goes_dark_then_reboots(self):
        # Crash cpe-ok for the middle of the scan: targets probed during
        # the window vanish, targets after the reboot answer again.
        schedule = FaultSchedule(events=(
            FaultEvent(kind=ROUTER_CRASH, start=0.002, end=0.004,
                       device="cpe-ok"),
        ))
        topo, _, result, _ = scan(schedule=schedule)
        assert 0 < result.stats.validated < 16
        # Rebooted: back in the topology, cold neighbor cache.
        assert topo.network.devices["cpe-ok"] is topo.cpe_ok

    def test_rate_limit_window_suppresses_errors(self):
        schedule = FaultSchedule(events=(
            FaultEvent(kind=RATE_LIMIT, start=0.0, end=1.0, device="cpe-ok",
                       rate=0.0001, burst=1.0),
        ))
        topo, _, result, _ = scan(schedule=schedule)
        original = topo.cpe_ok.error_limiter
        assert result.stats.validated == 1  # one error per burst
        # The original limiter object is restored at scan end.
        assert topo.cpe_ok.error_limiter is original

    def test_blackhole_window_restores_route(self):
        schedule = FaultSchedule(events=(
            FaultEvent(kind=BLACKHOLE, start=0.002, end=0.004, device="isp",
                       prefix="2001:db8:1:50::/60"),
        ))
        topo, _, result, _ = scan(schedule=schedule)
        assert 0 < result.stats.validated < 16
        # The delegated route came back: a fresh fault-free scan is whole.
        _, _, clean, _ = scan()
        assert clean.stats.validated == 16

    def test_route_flap_reconverges(self):
        schedule = FaultSchedule(events=(
            FaultEvent(kind=ROUTE_FLAP, start=0.002, end=0.004, device="isp",
                       prefix="2001:db8:1:50::/60"),
        ))
        topo, _, result, _ = scan(schedule=schedule)
        assert 0 < result.stats.validated < 16
        routes = [
            r for r in topo.isp.table.routes()
            if str(r.prefix) == "2001:db8:1:50::/60"
        ]
        assert len(routes) == 1  # re-announced exactly once

    def test_fault_records_journal_applies_and_reverts(self):
        schedule = FaultSchedule(events=(
            FaultEvent(kind=ROUTER_CRASH, start=0.002, end=0.004,
                       device="cpe-ok"),
            FaultEvent(kind=LOSS_BURST, start=0.005, end=0.006, rate=0.5),
        ))
        _, scanner, _, registry = scan(schedule=schedule)
        records = scanner.fault_injector.records
        assert [r["type"] for r in records] == [
            "fault_applied", "fault_reverted",
            "fault_applied", "fault_reverted",
        ]
        assert records[0]["device"] == "cpe-ok"
        assert all("t_virtual" in r for r in records)
        assert registry.value("fault_events", kind=ROUTER_CRASH,
                              phase="applied") == 1

    def test_mid_window_restore_reverts_on_scan_end(self):
        # The window outlives the scan; restore() must revert it anyway.
        schedule = FaultSchedule(events=(
            FaultEvent(kind=ROUTER_CRASH, start=0.002, end=999.0,
                       device="cpe-ok"),
        ))
        topo, scanner, _, _ = scan(schedule=schedule)
        assert "cpe-ok" in topo.network.devices
        assert topo.network.faults is None
        revert = scanner.fault_injector.records[-1]
        assert revert["type"] == "fault_reverted"
        assert revert["reason"] == "scan-end"


class TestDeterminism:
    SCHEDULE = FaultSchedule(seed=42, events=(
        FaultEvent(kind=LOSS_BURST, start=0.0005, end=0.0015, rate=0.6),
        FaultEvent(kind=ROUTER_CRASH, start=0.002, end=0.003,
                   device="cpe-ok"),
        FaultEvent(kind=RATE_LIMIT, start=0.0035, end=0.0045,
                   device="cpe-ok", rate=200.0, burst=1.0),
        FaultEvent(kind=BLACKHOLE, start=0.005, end=0.006, device="isp",
                   prefix="2001:db8:1:50::/60"),
        FaultEvent(kind=ROUTE_FLAP, start=0.0065, end=0.007, device="isp",
                   prefix="2001:db8:1:50::/60"),
    ))

    # At 25 kpps the 256-target scan spans ~0.01 virtual seconds, so the
    # schedule's windows (0.0005-0.007) land mid-stream and bite.
    RATE = 25_000.0

    def test_same_seed_same_schedule_bit_identical(self):
        runs = [scan(range_text=BOTH_LANS, schedule=self.SCHEDULE,
                     rate_pps=self.RATE)
                for _ in range(2)]
        digests = [r.dedup_digest() for _, _, r, _ in runs]
        assert digests[0] == digests[1]
        assert stats_key(runs[0][2].stats) == stats_key(runs[1][2].stats)
        assert (runs[0][1].fault_injector.records
                == runs[1][1].fault_injector.records)

    def test_different_chaos_seed_differs(self):
        # Only the loss draws consume the chaos RNG, so give the whole scan
        # a lossy window over all-responding targets: a different fault
        # seed must lose a different subset.
        def lossy(seed):
            return FaultSchedule(seed=seed, events=(
                FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0, rate=0.2),
            ))

        _, _, a, _ = scan(schedule=lossy(42))
        _, _, b, _ = scan(schedule=lossy(43))
        assert a.dedup_digest() != b.dedup_digest()

    def test_serial_and_batched_identical_under_faults(self):
        _, _, serial, _ = scan(range_text=BOTH_LANS, schedule=self.SCHEDULE,
                               rate_pps=self.RATE, reference=True)
        _, _, batched, _ = scan(range_text=BOTH_LANS, schedule=self.SCHEDULE,
                                rate_pps=self.RATE)
        assert serial.dedup_digest() == batched.dedup_digest()
        assert stats_key(serial.stats) == stats_key(batched.stats)

    def test_serial_and_batched_identical_hardened_under_faults(self):
        knobs = dict(retransmit=2, retransmit_backoff=0.0002,
                     adaptive_rate=True, adaptive_window=4,
                     rate_pps=self.RATE)
        s_topo, _, serial, s_reg = scan(
            range_text=BOTH_LANS, schedule=self.SCHEDULE, reference=True,
            **knobs
        )
        b_topo, _, batched, b_reg = scan(
            range_text=BOTH_LANS, schedule=self.SCHEDULE, **knobs
        )
        assert serial.dedup_digest() == batched.dedup_digest()
        assert stats_key(serial.stats) == stats_key(batched.stats)
        for name in ("scanner_retransmits", "scanner_retransmit_recoveries"):
            assert s_reg.value(name) == b_reg.value(name)

    def test_armed_idle_schedule_is_bit_identical_to_disabled(self):
        # A schedule whose only window never arrives must not perturb the
        # scan in any observable way (results, stats, scan counters).
        idle = FaultSchedule(seed=1, events=(
            FaultEvent(kind=ROUTER_CRASH, start=1e9, end=2e9,
                       device="cpe-ok"),
        ))
        _, _, plain, plain_reg = scan(range_text=BOTH_LANS)
        _, _, armed, armed_reg = scan(range_text=BOTH_LANS, schedule=idle)
        assert plain.dedup_digest() == armed.dedup_digest()
        assert stats_key(plain.stats) == stats_key(armed.stats)
        assert (plain_reg.counters_named("scanner_probes_sent")
                == armed_reg.counters_named("scanner_probes_sent"))


class TestScannerHardening:
    def test_retransmit_recovers_lossy_targets(self):
        # 20% per-link loss over ~6 legs loses most targets outright.
        schedule = FaultSchedule(seed=2, events=(
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0, rate=0.2),
        ))
        _, _, naive, _ = scan(schedule=schedule)
        _, _, hardened, registry = scan(schedule=schedule, retransmit=3,
                                        retransmit_backoff=0.0002)
        assert hardened.stats.validated > naive.stats.validated
        assert registry.value("scanner_retransmits") > 0
        assert registry.value("scanner_retransmit_recoveries") > 0

    def test_retransmit_composes_with_probes_per_target(self):
        schedule = FaultSchedule(seed=2, events=(
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0, rate=0.7),
        ))
        _, _, result, registry = scan(
            schedule=schedule, retransmit=2, retransmit_backoff=0.0002,
            probes_per_target=2,
        )
        # Copies go out first; retransmits only fire for targets where every
        # copy went unanswered.
        assert result.stats.sent >= 32
        assert registry.value("scanner_retransmits") >= 0

    def test_adaptive_rate_backs_off_under_clampdown(self):
        # Tighten both CPE limiters mid-scan: the validated-reply rate
        # collapses against the established baseline and AIMD halves the
        # pacer rate; healthy windows afterwards creep back up.
        schedule = FaultSchedule(events=(
            FaultEvent(kind=RATE_LIMIT, start=0.004, end=0.009,
                       device="cpe-ok", rate=0.0001, burst=1.0),
            FaultEvent(kind=RATE_LIMIT, start=0.004, end=0.009,
                       device="cpe-vuln", rate=0.0001, burst=1.0),
        ))
        _, scanner, _, registry = scan(
            range_text=BOTH_LANS, schedule=schedule, rate_pps=25_000.0,
            adaptive_rate=True, adaptive_window=16,
        )
        assert registry.value("scanner_rate_adjustments", direction="down") > 0
        assert scanner.pacer.rate < 25_000.0

    def test_adaptive_rate_holds_budget_when_healthy(self):
        # Every target answers, so every window is at-baseline: no downs.
        _, scanner, result, registry = scan(
            range_text=LAN_OK, adaptive_rate=True, adaptive_window=4,
        )
        assert registry.value("scanner_rate_adjustments",
                              direction="down") == 0
        assert scanner.pacer.rate == 2000.0
        assert result.stats.validated == 16


def _applied(kind, t, window, **fields):
    return {"type": "fault_applied", "kind": kind, "t_virtual": t,
            "window": list(window), **fields}


def _reverted(kind, t, window, reason, **fields):
    return {"type": "fault_reverted", "kind": kind, "t_virtual": t,
            "window": list(window), **fields, "reason": reason}


class TestGoldenJournal:
    """The fault records a worker ships to the campaign's EventLog, pinned
    field for field: one mixed network + host schedule over the mini
    topology, every executor.  The host windows filter on a path no file
    has, so the shards survive them; two windows are still open when the
    scan ends."""

    SCHEDULE = FaultSchedule(seed=11, events=(
        FaultEvent(kind=LOSS_BURST, start=0.0010, end=0.0020, rate=0.3),
        FaultEvent(kind="fs-error", start=0.0005, end=0.0025, op="write",
                   err="EIO", path="no-such-file"),
        FaultEvent(kind=RATE_LIMIT, start=0.0015, end=0.0030, device="isp",
                   rate=1.0, burst=1.0),
        FaultEvent(kind=ROUTE_FLAP, start=0.0020, end=0.0035, device="isp",
                   prefix="2001:db8:1:60::/60"),
        FaultEvent(kind="fs-error", start=0.0030, end=9.0, op="fsync",
                   err="ENOSPC", path="no-such-file"),
        FaultEvent(kind=RATE_LIMIT, start=0.0040, end=9.0, device="cpe-ok",
                   rate=2.0),
    ))

    #: One shard's records, in shipping order: the network injector's
    #: journal (restored when the scan ends), then the host injector's
    #: (restored after the final checkpoint and the segment seal).  The
    #: loss burst ends at the instant the route flap starts: the revert
    #: comes first.  Host windows move when a durability op next looks.
    PER_SHARD = [
        _applied(LOSS_BURST, 0.001, (0.001, 0.002), rate=0.3),
        _applied(RATE_LIMIT, 0.0015200000000000014, (0.0015, 0.003),
                 device="isp", rate=1.0),
        _reverted(LOSS_BURST, 0.0020000000000000026, (0.001, 0.002),
                  "window-end", rate=0.3),
        _applied(ROUTE_FLAP, 0.0020000000000000026, (0.002, 0.0035),
                 device="isp", prefix="2001:db8:1:60::/60"),
        _reverted(RATE_LIMIT, 0.0030000000000000053, (0.0015, 0.003),
                  "window-end", device="isp", rate=1.0),
        _reverted(ROUTE_FLAP, 0.0035200000000000066, (0.002, 0.0035),
                  "window-end", device="isp", prefix="2001:db8:1:60::/60"),
        _applied(RATE_LIMIT, 0.004000000000000008, (0.004, 9.0),
                 device="cpe-ok", rate=2.0),
        _reverted(RATE_LIMIT, 0.005080000000000011, (0.004, 9.0),
                  "scan-end", device="cpe-ok", rate=2.0),
        _applied("fs-error", 0.0006000000000000001, (0.0005, 0.0025),
                 op="write", path="no-such-file"),
        _reverted("fs-error", 0.002520000000000004, (0.0005, 0.0025),
                  "window-end", op="write", path="no-such-file"),
        _applied("fs-error", 0.0031600000000000057, (0.003, 9.0),
                 op="fsync", path="no-such-file"),
        _reverted("fs-error", 0.005080000000000011, (0.003, 9.0),
                  "scan-end", op="fsync", path="no-such-file"),
    ]

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_records_shipped_to_the_event_log(self, tmp_path, executor):
        from repro.engine import Campaign, make_executor
        from repro.net.spec import TopologySpec

        config = ScanConfig(scan_range=ScanRange.parse(BOTH_LANS), seed=5,
                            fault_schedule=self.SCHEDULE)
        result = Campaign(
            TopologySpec.mini(), {"golden": config}, shards=2,
            executor=make_executor(executor, workers=2),
            checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=16,
            store_dir=str(tmp_path / "store"), snapshot="round",
            backoff_base=0.0,
        ).run()
        stamps = ("seq", "t", "campaign", "worker_t", "worker_seq")
        shipped = [
            {k: v for k, v in event.items() if k not in stamps}
            for event in result.events.events
            if str(event["type"]).startswith(("fault_", "host_fault"))
        ]
        # Two shards, each on its own copy of the network and its own
        # clock: the same journal twice, back to back.
        assert shipped == self.PER_SHARD * 2
        assert [list(r) for r in shipped] == \
            [list(r) for r in self.PER_SHARD * 2]  # key order too
