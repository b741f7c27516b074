"""Telemetry: metrics registry, probe tracing, structured event log.

The load-bearing property is merge equality: the metrics of a sharded
campaign, folded across shard workers exactly as ``ScanStats.merge`` folds
stats, must reproduce the single-shot scan's probe/reply/veto counters
bit-for-bit — on every executor backend.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocklist import Blocklist
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine import Campaign, ProbeSpec, ProgressMonitor
from repro.net.spec import TopologySpec
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    NULL_REGISTRY,
    ProbeTracer,
    TraceSpecError,
    WorkerEventBuffer,
)

from repro.telemetry.metrics import HOP_BUCKETS, WAIT_BUCKETS

from tests.topo import build_mini

SPEC = "2001:db8:1::/56-64"  # 256 sub-prefixes over both CPEs' space

#: Counter families that must merge bit-for-bit across shards.  Pacer
#: counters are deliberately excluded: each shard's token bucket starts
#: with its own burst credit, so ``pacer_stalls`` differs from the
#: single-shot scan by exactly shards-1 — a property of pacing, not a
#: telemetry bug.
SCANNER_COUNTERS = (
    "scanner_probes_sent",
    "scanner_replies_received",
    "scanner_replies_validated",
    "scanner_replies",
    "scanner_replies_discarded",
    "scanner_blocklist_vetoes",
)


def _config(**kwargs) -> ScanConfig:
    return ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5, **kwargs)


def _single_shot(**config_kwargs) -> MetricsRegistry:
    topo = build_mini()
    probe = ProbeSpec.for_seed(5).build()
    scanner = Scanner(topo.network, topo.vantage, probe, _config(**config_kwargs))
    scanner.run()
    return scanner.metrics


class TestMetricsPrimitives:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("sent").inc()
        registry.counter("sent").inc(4)
        registry.gauge("position").set(17)
        hist = registry.histogram("hops", bounds=(1.0, 4.0, 16.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        assert registry.value("sent") == 5
        assert registry.value("position") == 17
        assert hist.counts == [2, 1, 0, 1]  # <=1, <=4, <=16, overflow
        assert hist.count == 4
        assert hist.mean == pytest.approx(104.5 / 4)

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        registry.counter("replies", kind="echo").inc(2)
        registry.counter("replies", kind="unreach").inc(3)
        assert registry.value("replies", kind="echo") == 2
        assert registry.value("replies", kind="unreach") == 3
        assert registry.value("replies") == 0
        assert len(registry.counters_named("replies")) == 2

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("sent").inc(10)
        b.counter("sent").inc(5)
        b.counter("only_b").inc(1)
        a.gauge("position").set(100)
        b.gauge("position").set(250)
        a.histogram("hops", bounds=(1.0, 2.0)).observe(1)
        b.histogram("hops", bounds=(1.0, 2.0)).observe(5)
        a.merge(b)
        assert a.value("sent") == 15  # counters sum
        assert a.value("only_b") == 1
        assert a.value("position") == 250  # gauges take the max
        hist = a.histogram("hops", bounds=(1.0, 2.0))
        assert hist.counts == [1, 0, 1] and hist.count == 2

    def test_merge_rejects_mismatched_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("hops", bounds=(1.0, 2.0)).observe(1)
        b.histogram("hops", bounds=(1.0, 4.0)).observe(1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_export_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("sent", shard="0").inc(7)
        registry.gauge("clock").set(1.5)
        registry.histogram("hops", bounds=(1.0, 8.0)).observe(3)
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()
        for line in registry.ndjson_lines():
            assert json.loads(line)["kind"] in ("counter", "gauge", "histogram")

    def test_merge_dict_accepts_none(self):
        registry = MetricsRegistry()
        registry.merge_dict(None)
        assert len(registry) == 0

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("x", a=1).inc()
        NULL_REGISTRY.gauge("y").set(9)
        NULL_REGISTRY.histogram("z").observe(1)
        assert NULL_REGISTRY.value("x", a=1) == 0
        assert len(NULL_REGISTRY) == 0
        assert list(NULL_REGISTRY.ndjson_lines()) == []
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.histogram("z").quantile(0.5) == 0.0


#: Observations for the bulk-vs-loop property: floats anywhere (the
#: overflow bucket included), hop counts, and values equal to a bound.
OBSERVATIONS = st.lists(st.one_of(
    st.floats(min_value=-10.0, max_value=1e6),
    st.integers(min_value=0, max_value=300),
    st.sampled_from(HOP_BUCKETS + WAIT_BUCKETS),
), max_size=60)


class TestObserveMany:
    """``observe_many(xs)`` is ``for x in xs: observe(x)``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(bounds=st.sampled_from([HOP_BUCKETS, WAIT_BUCKETS]),
           before=OBSERVATIONS, values=OBSERVATIONS, after=OBSERVATIONS)
    def test_equals_observe_in_a_loop(self, bounds, before, values, after):
        bulk, loop = MetricsRegistry(), MetricsRegistry()
        many = bulk.histogram("h", bounds=bounds)
        one = loop.histogram("h", bounds=bounds)
        for value in before:  # a histogram that has seen values already
            many.observe(value)
            one.observe(value)
        many.observe_many(values)
        for value in values:
            one.observe(value)
        assert bulk.to_dict() == loop.to_dict()
        for value in after:  # and goes on alike, one value at a time
            many.observe(value)
            one.observe(value)
        assert bulk.to_dict() == loop.to_dict()

    @settings(max_examples=300, deadline=None)
    @given(bounds=st.sampled_from([HOP_BUCKETS, WAIT_BUCKETS]),
           before=OBSERVATIONS,
           values=st.lists(st.integers(min_value=0, max_value=300),
                           max_size=60),
           after=OBSERVATIONS, huge=st.booleans())
    def test_an_int_column_equals_observe_in_a_loop(
        self, bounds, before, values, after, huge
    ):
        """A chunk's hops come as an int column: its counts, ``sum`` and
        last-value memo are the loop's, also after a fractional or a
        float-inexact ``sum`` (where the column takes the loop)."""
        np = pytest.importorskip("numpy")
        many = MetricsRegistry().histogram("h", bounds=bounds)
        one = MetricsRegistry().histogram("h", bounds=bounds)
        for histogram in (many, one):
            if huge:  # past 2**53: a float sum no longer counts by ones
                histogram.observe(float(1 << 53))
            for value in before:
                histogram.observe(value)
        many.observe_many(np.array(values, dtype=np.int64))
        for value in values:
            one.observe(value)
        state = ("counts", "count", "sum", "_last")
        assert [getattr(many, a) for a in state] == [
            getattr(one, a) for a in state]
        assert type(many.sum) is type(one.sum)
        for value in after:
            many.observe(value)
            one.observe(value)
        assert [getattr(many, a) for a in state] == [
            getattr(one, a) for a in state]

    def test_null_histogram_takes_a_block_too(self):
        NULL_REGISTRY.histogram("z").observe_many([1, 2.5, 300])
        assert len(NULL_REGISTRY) == 0


class TestHistogramQuantile:
    def _uniform(self):
        # One observation per integer 1..10 over unit-wide buckets: every
        # rank interpolates exactly, so quantiles are textbook.
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat", bounds=tuple(float(b) for b in range(1, 11))
        )
        for value in range(1, 11):
            hist.observe(float(value))
        return hist

    def test_known_distribution(self):
        hist = self._uniform()
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.quantile(0.9) == pytest.approx(9.0)
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_empty_histogram_and_domain(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 2.0))
        assert hist.quantile(0.5) == 0.0
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                hist.quantile(bad)

    def test_overflow_clamps_to_last_finite_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 2.0))
        hist.observe(100.0)  # overflow bucket
        assert hist.quantile(0.99) == 2.0

    def test_bucket_resolution_caveat(self):
        # Ten identical observations smear uniformly across their bucket:
        # the estimate is bucket-resolution, not value-resolution.
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(4.0, 8.0))
        for _ in range(10):
            hist.observe(5.0)
        assert hist.quantile(0.5) == pytest.approx(6.0)  # mid-bucket
        assert 4.0 < hist.quantile(0.1) < hist.quantile(0.9) <= 8.0


class TestScannerMetrics:
    def test_counters_match_stats(self):
        topo = build_mini()
        probe = ProbeSpec.for_seed(5).build()
        scanner = Scanner(topo.network, topo.vantage, probe, _config())
        result = scanner.run()
        metrics = scanner.metrics
        assert metrics.value("scanner_probes_sent") == result.stats.sent
        assert metrics.value("scanner_replies_received") == result.stats.received
        assert metrics.value("scanner_replies_validated") == result.stats.validated
        assert sum(
            metrics.counters_named("scanner_replies").values()
        ) == result.stats.validated
        hist = metrics.histogram("probe_hops")
        assert hist.count == result.stats.sent

    def test_blocklist_vetoes_are_counted_by_rule(self):
        blocklist = Blocklist(blocked=["2001:db8:1:80::/57"])
        topo = build_mini()
        probe = ProbeSpec.for_seed(5).build()
        scanner = Scanner(
            topo.network, topo.vantage, probe, _config(blocklist=blocklist)
        )
        result = scanner.run()
        vetoes = scanner.metrics.counters_named("scanner_blocklist_vetoes")
        assert sum(vetoes.values()) == result.stats.blocked == 128
        (labels,) = vetoes
        assert dict(labels)["reason"] == "blocked"
        assert dict(labels)["rule"] == "2001:db8:1:80::/57"

    def test_collect_metrics_off_uses_null_registry(self):
        topo = build_mini()
        probe = ProbeSpec.for_seed(5).build()
        scanner = Scanner(
            topo.network, topo.vantage, probe,
            _config(collect_metrics=False, max_probes=4),
        )
        scanner.run()
        assert scanner.metrics is NULL_REGISTRY

    def test_progress_stride_throttles_the_hook(self):
        """The hook names the ``sent`` count it next needs control at; the
        scan runs it after the first target, then only at those points."""
        topo = build_mini()
        probe = ProbeSpec.for_seed(5).build()
        calls = []
        scanner = Scanner(topo.network, topo.vantage, probe, _config())

        def every_eight(s):
            calls.append(s.result.stats.sent)
            return s.result.stats.sent + 8

        scanner.on_progress = every_eight
        scanner.run()
        assert calls == [1, *range(9, 256, 8), 256]


class TestMergeEquality:
    """Sharded campaign metrics == single-shot metrics, on every backend."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_sharded_counters_match_single_shot(self, executor, tmp_path):
        single = _single_shot(blocklist=Blocklist(blocked=["2001:db8:1:80::/57"]))
        campaign = Campaign(
            TopologySpec.mini(),
            {SPEC: _config(blocklist=Blocklist(blocked=["2001:db8:1:80::/57"]))},
            probe=ProbeSpec.for_seed(5),
            shards=4,
            executor=executor,
            workers=2,
            checkpoint_dir=str(tmp_path / "state"),
        )
        merged = campaign.run().metrics
        for name in SCANNER_COUNTERS:
            assert merged.counters_named(name) == single.counters_named(name), name
        # histograms merge bucket-wise to the single-shot distribution
        assert merged.histogram("probe_hops").counts == (
            single.histogram("probe_hops").counts
        )

    def test_checkpoint_restored_shards_do_not_double_count(self, tmp_path):
        state = str(tmp_path / "state")

        def run_campaign(resume):
            return Campaign(
                TopologySpec.mini(),
                {SPEC: _config()},
                probe=ProbeSpec.for_seed(5),
                shards=2,
                checkpoint_dir=state,
                resume=resume,
            ).run()

        first = run_campaign(resume=False)
        second = run_campaign(resume=True)
        assert second.shards_from_checkpoint == 2
        # restored shards ship no metrics: the resumed campaign's registry
        # only counts what this invocation actually did (nothing)
        assert second.metrics.value("scanner_probes_sent") == 0
        assert first.metrics.value("scanner_probes_sent") == first.stats.sent


class TestProbeTracing:
    def test_spec_parsing(self):
        assert ProbeTracer.from_spec("off").enabled is False
        assert ProbeTracer.from_spec("all").mode == "all"
        assert ProbeTracer.from_spec("sample:4").every == 4
        for bad in ("sample:", "sample:0", "sample:x", "nope"):
            with pytest.raises(TraceSpecError):
                ProbeTracer.from_spec(bad)

    def test_sampling_selects_every_nth(self):
        tracer = ProbeTracer.from_spec("sample:3")
        opened = [tracer.begin(f"t{i}") is not None for i in range(9)]
        assert opened == [True, False, False] * 3

    def test_predicate_sampling(self):
        tracer = ProbeTracer(predicate=lambda target: "5" in str(target))
        assert tracer.enabled
        assert tracer.begin("addr-5") is not None
        assert tracer.begin("addr-6") is None

    def test_trace_reconstructs_hop_by_hop_path(self):
        topo = build_mini()
        probe = ProbeSpec.for_seed(5).build()
        scanner = Scanner(
            topo.network, topo.vantage, probe, _config(trace="sample:16")
        )
        result = scanner.run()
        traces = list(scanner.tracer.traces)
        assert len(traces) == 256 // 16
        validated = [t for t in traces if t.verdict() == "validated"]
        assert validated, "sampling 16 of 256 probes must catch a hit"
        trace = validated[0]
        names = [e["event"] for e in trace.events]
        assert names[0] == "generated"
        assert "paced_send" in names
        # the full forwarding story: LPM decisions, hop-limit decrements,
        # the ICMPv6 error that became the validated reply, delivery home
        assert trace.path(), "hop events must reconstruct the probe's path"
        assert any(e["event"] == "route_lookup" for e in trace.events)
        assert any(e["event"] == "hop_limit_decrement" for e in trace.events)
        assert any(e["event"] == "icmpv6_error" for e in trace.events)
        assert any(e["event"] == "delivered" for e in trace.events)
        # outbound leg only: the ICMPv6 error reply travels home with a
        # fresh hop limit, so cut the event stream at error generation
        error_at = next(
            i for i, e in enumerate(trace.events)
            if e["event"] == "icmpv6_error"
        )
        outbound = [
            e["hop_limit"]
            for e in trace.events[:error_at]
            if e["event"] == "hop"
        ]
        assert outbound == sorted(outbound, reverse=True)
        assert len(set(outbound)) == len(outbound)  # strictly decreasing
        assert result.stats.sent == 256

    def test_traces_survive_the_process_pool(self, tmp_path):
        campaign = Campaign(
            TopologySpec.mini(),
            {SPEC: _config(trace="sample:32")},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            executor="process",
            workers=2,
        )
        result = campaign.run()
        assert len(result.traces) == 256 // 32
        rehydrated = ProbeTracer.from_dicts(result.traces)
        assert any(t.path() for t in rehydrated)

    def test_network_untraced_path_unchanged(self):
        topo = build_mini()
        assert topo.network.active_trace is None
        topo.network.trace_event("hop", device="nobody")  # must be a no-op


class TestEventLog:
    def test_emit_stamps_seq_time_campaign(self):
        log = EventLog(campaign_id="abc")
        first = log.emit("started", shards=2)
        second = log.emit("finished")
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["campaign"] == "abc"
        assert second["t"] >= first["t"] >= 0
        assert log.of_type("started") == [first]

    def test_subscribers_and_sink_see_every_event(self):
        seen, lines = [], []
        log = EventLog(sink=lines.append)
        log.subscribe(seen.append)
        log.emit("ping", n=1)
        assert seen[0]["type"] == "ping"
        assert json.loads(lines[0])["n"] == 1

    def test_retention_is_bounded(self):
        log = EventLog(max_events=3)
        for i in range(10):
            log.emit("tick", i=i)
        assert len(log) == 3
        assert [e["i"] for e in log.events] == [7, 8, 9]

    def test_ingest_preserves_worker_clock(self):
        buffer = WorkerEventBuffer()
        buffer.emit("checkpoint_written", job_id="j0")
        log = EventLog(campaign_id="abc")
        log.ingest(buffer.records)
        (event,) = log.of_type("checkpoint_written")
        assert event["campaign"] == "abc"
        assert event["job_id"] == "j0"
        assert "worker_t" in event

    def test_ingest_preserves_worker_sequence(self):
        # Outcomes arrive batched, so the campaign log's own ordering
        # cannot reconstruct the worker's: the per-buffer sequence number
        # must survive ingestion as ``worker_seq``.
        buffer = WorkerEventBuffer()
        for i in range(3):
            buffer.emit("tick", i=i)
        log = EventLog()
        log.ingest(reversed(buffer.records))  # arrival order scrambled
        ticks = log.of_type("tick")
        assert [e["worker_seq"] for e in ticks] == [2, 1, 0]
        assert [e["i"] for e in ticks] == [2, 1, 0]
        # The campaign log re-stamps its own seq in arrival order.
        assert [e["seq"] for e in ticks] == sorted(
            e["seq"] for e in ticks
        )

    def test_write_ndjson(self, tmp_path):
        log = EventLog()
        log.emit("one")
        log.emit("two")
        path = tmp_path / "events.ndjson"
        log.write(str(path))
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert [p["type"] for p in parsed] == ["one", "two"]


class TestCampaignEvents:
    def test_campaign_journals_its_lifecycle(self, tmp_path):
        campaign = Campaign(
            TopologySpec.mini(),
            {SPEC: _config()},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            checkpoint_dir=str(tmp_path / "state"),
        )
        result = campaign.run()
        log = result.events
        assert log is campaign.events
        types = [e["type"] for e in log.events]
        assert "manifest_written" in types
        assert "campaign_started" in types
        assert types[-1] == "campaign_finished"
        finished = log.of_type("shard_finished")
        assert [(e["shard"], e["shards"]) for e in finished] == [(0, 2), (1, 2)]
        assert log.of_type("checkpoint_written")  # ingested from workers
        assert all(e["campaign"] == log.campaign_id for e in log.events)

    def test_monitor_renders_from_events(self):
        lines = []
        monitor = ProgressMonitor(sink=lines.append)
        Campaign(
            TopologySpec.mini(),
            {SPEC: _config()},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            monitor=monitor,
        ).run()
        assert lines[0] == "campaign: 1 range(s) in 2 shard(s)"
        assert lines[-1].startswith("done: 2/2 shards")

    def test_monitor_lines_are_bounded(self):
        monitor = ProgressMonitor(sink=lambda _line: None, max_lines=3)
        for i in range(10):
            monitor.handle_event({"type": "shard_retry", "job_id": f"j{i}",
                                  "attempt": 1, "error": "boom"})
        assert len(monitor.lines) == 3
        assert "j9" in monitor.lines[-1]

    def test_monitor_json_mode_forwards_raw_events(self):
        lines = []
        monitor = ProgressMonitor(sink=lines.append, json_mode=True)
        monitor.handle_event({"type": "custom_event", "n": 3})
        assert json.loads(lines[0]) == {"type": "custom_event", "n": 3}


class TestCliTelemetryFlags:
    def test_scan_rejects_bad_trace_spec(self, capsys):
        from repro.cli import main

        assert main(["scan", "--trace", "sample:zero"]) == 2
        assert "invalid --trace" in capsys.readouterr().err

    def test_scan_writes_metrics_ndjson(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.ndjson"
        assert main([
            "scan", "--isp", "in-jio-broadband", "--scale", "50000",
            "--shards", "2", "--trace", "sample:64",
            "--metrics-out", str(out),
        ]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"counter", "gauge", "histogram", "trace"} <= kinds
        sent = [r for r in records
                if r["kind"] == "counter" and r["name"] == "scanner_probes_sent"]
        assert sent and sent[0]["value"] > 0
