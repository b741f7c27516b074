"""Virtual-clock time series: sampler mechanics and shard-merge identity.

The load-bearing property mirrors the PR 2 metrics-merge contract on the
time axis: the merged per-bucket series of a sharded campaign must equal
the unsharded scan's series bit for bit — on every executor backend —
for the scanner's probe/reply counter families.  Pacer counters carry the
documented ``shards - 1`` burst-credit caveat and are excluded, exactly
as in ``tests/test_telemetry.py``.
"""

import json

import pytest

from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine import Campaign, ProbeSpec
from repro.net.spec import TopologySpec
from repro.telemetry import MetricsRegistry
from repro.telemetry.timeseries import (
    MetricSeries,
    SeriesSampler,
    SeriesSet,
    sparkline,
)

from tests.pipeline import engine
from tests.topo import build_mini

#: 16 targets behind cpe-ok; at 2 kpps the scan spans 8 virtual ms.
SPEC = "2001:db8:1:50::/60-64"
RATE = 2000.0
#: 4 probes per bucket — 4 shards divide it, so merge is bit-identical.
INTERVAL = 0.002

#: Families asserted bit-identical across the shard merge (pacer counters
#: excluded: each shard's token bucket starts with its own burst credit).
SCANNER_FAMILIES = (
    "scanner_probes_sent",
    "scanner_replies_received",
    "scanner_replies_validated",
    "scanner_replies",
    "scanner_replies_discarded",
)


def _config(**kwargs) -> ScanConfig:
    kwargs.setdefault("timeseries_interval", INTERVAL)
    return ScanConfig(scan_range=ScanRange.parse(SPEC), seed=1,
                      rate_pps=RATE, **kwargs)


def _single_shot(**config_kwargs):
    topo = build_mini(seed=1)
    probe = ProbeSpec.for_seed(1).build()
    scanner = Scanner(topo.network, topo.vantage, probe,
                      _config(**config_kwargs))
    result = scanner.run()
    return scanner, result


def _family_points(series_set: SeriesSet, name: str):
    """{labels: sorted points} for one family — full fidelity, not summed."""
    return {
        series.labels: dict(sorted(series.points.items()))
        for series in series_set
        if series.name == name
    }


class TestSparkline:
    def test_scales_to_eight_levels(self):
        assert sparkline([0, 7]) == "▁█"
        assert sparkline([0, 1, 2, 3, 4, 5, 6, 7]) == "▁▂▃▄▅▆▇█"

    def test_flat_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "▁▁▁"  # flat zero hugs the floor
        assert sparkline([5, 5]) == "▅▅"      # flat nonzero sits mid-scale

    def test_width_keeps_newest(self):
        assert sparkline([9, 9, 0, 9], width=2) == "▁█"


class TestMetricSeries:
    def test_ring_evicts_oldest_and_flags_truncation(self):
        series = MetricSeries("m", ())
        for bucket in range(4):
            series.add(bucket, 1, max_buckets=3)
        assert series.truncated
        assert sorted(series.points) == [1, 2, 3]

    def test_same_bucket_accumulates_without_eviction(self):
        series = MetricSeries("m", ())
        series.add(0, 1, max_buckets=1)
        series.add(0, 2, max_buckets=1)
        assert series.points == {0: 3}
        assert not series.truncated


class TestSeriesSet:
    def test_named_sums_label_variants(self):
        series = SeriesSet(0.5)
        series.record("replies", (("kind", "echo"),), 0, 2)
        series.record("replies", (("kind", "unreach"),), 0, 3)
        series.record("replies", (("kind", "echo"),), 1, 1)
        assert series.named("replies") == {0: 5, 1: 1}
        assert series.bucket_range() == (0, 1)
        assert series.t_of(2) == 1.0

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SeriesSet(0.0)

    def test_merge_interval_mismatch_raises(self):
        with pytest.raises(ValueError, match="cannot merge"):
            SeriesSet(0.5).merge(SeriesSet(0.25))

    def test_merge_sums_per_bucket(self):
        a, b = SeriesSet(1.0), SeriesSet(1.0)
        a.record("sent", (), 0, 2)
        b.record("sent", (), 0, 3)
        b.record("sent", (), 1, 1)
        merged = a.merge(b)
        assert merged is a
        assert merged.named("sent") == {0: 5, 1: 1}

    def test_round_trips_through_dict_and_ndjson(self):
        series = SeriesSet(0.25)
        series.record("sent", (), 0, 4)
        series.record("replies", (("kind", "echo"),), 1, 2)
        doc = series.to_dict()
        assert doc["format"] == "repro-timeseries"
        back = SeriesSet.from_dict(json.loads(json.dumps(doc)))
        assert back.interval == series.interval
        assert back.to_dict() == doc
        lines = list(series.ndjson_lines())
        assert len(lines) == 2
        assert all(json.loads(line)["interval"] == 0.25 for line in lines)


class TestSeriesSampler:
    def _sampler(self, interval=1.0, shards=1, **kwargs):
        registry = MetricsRegistry()
        return registry, SeriesSampler(registry, interval, shards=shards,
                                       **kwargs)

    def test_validates_arguments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            SeriesSampler(registry, 0.0)
        with pytest.raises(ValueError):
            SeriesSampler(registry, 1.0, shards=0)

    def test_deltas_land_in_their_buckets(self):
        registry, sampler = self._sampler(interval=1.0)
        sampler.start(10.0)  # origin off zero: buckets index from start
        registry.counter("sent").inc(2)
        sampler.tick(11.0)  # closes bucket 0
        registry.counter("sent").inc(3)
        series = sampler.finish()
        assert series.named("sent") == {0: 2, 1: 3}
        assert sampler.boundary == float("inf")

    def test_start_is_idempotent(self):
        registry, sampler = self._sampler()
        sampler.start(5.0)
        first = sampler.boundary
        sampler.start(99.0)
        assert sampler.boundary == first

    def test_epsilon_guard_absorbs_float_error(self):
        registry, sampler = self._sampler(interval=0.001)
        sampler.start(0.0)
        registry.counter("sent").inc()
        # An ulp short of the boundary still counts as bucket 1.
        sampler.tick(0.001 - 1e-12)
        assert sampler.finish().named("sent") == {0: 1}
        assert sampler.ticks == 2  # bucket 0 closed by tick, 1 by finish

    def test_gap_buckets_stay_sparse(self):
        registry, sampler = self._sampler(interval=1.0)
        sampler.start(0.0)
        registry.counter("sent").inc()
        sampler.tick(5.5)  # silence from bucket 1 through 4
        registry.counter("sent").inc()
        series = sampler.finish()
        assert series.named("sent") == {0: 1, 5: 1}

    def test_sharded_sampler_uses_compressed_local_interval(self):
        registry, sampler = self._sampler(interval=1.0, shards=4)
        assert sampler.local_interval == 0.25
        sampler.start(0.0)
        registry.counter("sent").inc()
        sampler.tick(0.25)  # one *local* interval = one global bucket
        registry.counter("sent").inc()
        series = sampler.finish()
        assert series.interval == 1.0  # exported on the campaign axis
        assert series.named("sent") == {0: 1, 1: 1}


class TestScannerSampling:
    def test_sampler_disabled_without_interval_or_metrics(self):
        scanner, _ = _single_shot(timeseries_interval=0.0)
        assert scanner.sampler is None
        scanner, _ = _single_shot(collect_metrics=False)
        assert scanner.sampler is None

    def test_series_totals_match_registry(self):
        scanner, result = _single_shot()
        series = scanner.sampler.series
        sent = series.named("scanner_probes_sent")
        assert sum(sent.values()) == result.stats.sent == 16
        assert sum(series.named("scanner_replies_validated").values()) == (
            result.stats.validated
        )
        # 16 targets at 2 kpps over 2 ms buckets: 4 probes per bucket.
        assert sent == {0: 4, 1: 4, 2: 4, 3: 4}

    def test_batched_series_identical_to_serial(self):
        with engine(block_size=1):
            serial_scanner, _ = _single_shot()
        with engine(block_size=3):
            batched_scanner, _ = _single_shot()
        whole_scanner, _ = _single_shot()
        assert batched_scanner.sampler.to_dict() == (
            serial_scanner.sampler.to_dict()
        ) == whole_scanner.sampler.to_dict()


class TestShardMergeIdentity:
    """Merged shard series == unsharded series, on every backend."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_merged_series_bit_identical(self, executor, tmp_path):
        _, single_result = _single_shot()
        single_scanner, _ = _single_shot()
        single = single_scanner.sampler.series
        campaign = Campaign(
            TopologySpec.mini(seed=1),
            {SPEC: _config()},
            probe=ProbeSpec.for_seed(1),
            shards=4,
            executor=executor,
            workers=2,
            checkpoint_dir=str(tmp_path / "state"),
        )
        merged = campaign.run().timeseries
        assert merged is not None
        assert merged.interval == single.interval
        for family in SCANNER_FAMILIES:
            assert _family_points(merged, family) == (
                _family_points(single, family)
            ), family

    def test_campaign_without_sampling_has_no_series(self):
        campaign = Campaign(
            TopologySpec.mini(seed=1),
            {SPEC: _config(timeseries_interval=0.0)},
            probe=ProbeSpec.for_seed(1),
            shards=2,
        )
        assert campaign.run().timeseries is None


class TestCliFlags:
    def test_timeseries_must_be_positive(self, capsys):
        from repro.cli import main
        assert main(["scan", "--timeseries", "0"]) == 2
        assert "--timeseries" in capsys.readouterr().err

    def test_timeseries_out_requires_sampling(self, capsys):
        from repro.cli import main
        assert main(["scan", "--timeseries-out", "x.json"]) == 2
        assert "--timeseries-out requires --timeseries" in (
            capsys.readouterr().err
        )

    def test_health_requires_sampling(self, capsys):
        from repro.cli import main
        assert main(["scan", "--health"]) == 2
        assert "--health" in capsys.readouterr().err

    def test_shared_telemetry_flags_on_other_subcommands(self):
        from repro.cli import build_parser
        parser = build_parser()
        for argv in (
            ["internet", "--metrics-out", "m.ndjson", "--log-json"],
            ["store", "info", "s", "--metrics-out", "m.ndjson"],
            ["store", "query", "s", "--metrics-out", "m.ndjson",
             "--log-json"],
            ["store", "diff", "s", "a", "b", "--log-json"],
            ["store", "compact", "s", "--metrics-out", "m.ndjson"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "metrics_out")
            assert hasattr(args, "log_json")
