"""The scan orchestration engine: planning, executors, checkpoint/resume."""

import json

import pytest

from repro.core.probes.base import ReplyKind
from repro.core.scanner import ProbeResult, ScanConfig, ScanResult, Scanner
from repro.core.stats import ScanStats
from repro.core.target import ScanRange
from repro.core.validate import Validator, seed_secret
from repro.engine import (
    Campaign,
    CampaignError,
    CheckpointStore,
    CoverageError,
    ProbeSpec,
    ProgressMonitor,
    ShardPlanner,
    WorkerInterrupted,
    execute_job,
    make_executor,
)
from repro.engine.checkpoint import DONE, PARTIAL
from repro.net.addr import IPv6Addr
from repro.net.spec import TopologySpec
from repro.store.oslayer import document_checksum as _checksum
from repro.store.segment import pack_row

from tests.topo import build_mini

SPEC = "2001:db8:1::/56-64"  # 256 sub-prefixes over both CPEs' space
UE_SPEC = "2001:db8:2::/56-64"


def _config(spec=SPEC, **kwargs) -> ScanConfig:
    return ScanConfig(scan_range=ScanRange.parse(spec), seed=5, **kwargs)


def _reply_set(result: ScanResult):
    return {(r.responder.value, r.target.value, r.kind) for r in result.results}


class TestShardCoverage:
    """Union of per-shard streams == unsharded stream, no duplicates."""

    @pytest.mark.parametrize("count_bits", [0, 1, 3, 6, 8])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_planner_proves_partition(self, count_bits, seed, shards):
        config = ScanConfig(
            scan_range=ScanRange.parse(f"2001:db8::/{64 - count_bits}-64"),
            seed=seed,
        )
        assert ShardPlanner(shards).verify_coverage(config) == 1 << count_bits

    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_sharded_target_streams_partition_addresses(self, shards):
        topo = build_mini()
        probe_mod = ProbeSpec.for_seed(5).build()
        full = [
            a.value
            for a in Scanner(topo.network, topo.vantage, probe_mod, _config()).targets()
        ]
        assert len(full) == len(set(full)) == 256
        sharded = []
        for shard in range(shards):
            scanner = Scanner(
                topo.network, topo.vantage, probe_mod,
                _config(shard=shard, shards=shards),
            )
            sharded.extend(a.value for a in scanner.targets())
        assert len(sharded) == len(set(sharded))
        assert set(sharded) == set(full)

    def test_verify_coverage_rejects_huge_spaces(self):
        config = ScanConfig(scan_range=ScanRange.parse("2001:db8::/32-64"))
        with pytest.raises(CoverageError):
            ShardPlanner(2).verify_coverage(config)

    def test_skip_fast_forwards_the_stream(self):
        topo = build_mini()
        probe_mod = ProbeSpec.for_seed(5).build()
        full = list(
            Scanner(topo.network, topo.vantage, probe_mod, _config()).targets()
        )
        resumed = list(
            Scanner(
                topo.network, topo.vantage, probe_mod, _config(skip=100)
            ).targets()
        )
        assert resumed == full[100:]


class TestMergeHooks:
    def test_stats_merge_sums_and_widens(self):
        a = ScanStats(sent=10, blocked=1, received=4, validated=3,
                      virtual_start=5.0, virtual_end=9.0, wall_seconds=1.0)
        b = ScanStats(sent=20, blocked=2, received=6, validated=5,
                      virtual_start=2.0, virtual_end=7.0, wall_seconds=0.5)
        a.merge(b)
        assert (a.sent, a.blocked, a.received, a.validated) == (30, 3, 10, 8)
        assert (a.virtual_start, a.virtual_end) == (2.0, 9.0)
        assert a.wall_seconds == 1.5

    def test_stats_merge_ignores_empty_window(self):
        a = ScanStats(sent=10, virtual_start=5.0, virtual_end=9.0)
        a.merge(ScanStats())  # fresh stats must not clamp the window to 0
        assert (a.virtual_start, a.virtual_end) == (5.0, 9.0)
        empty = ScanStats()
        empty.merge(a)
        assert (empty.virtual_start, empty.virtual_end) == (5.0, 9.0)

    def _result(self, *keys) -> ScanResult:
        result = ScanResult(range=ScanRange.parse(SPEC))
        for i in keys:
            result.results.append(
                ProbeResult(
                    target=IPv6Addr(i), responder=IPv6Addr(i + 1),
                    kind=ReplyKind.DEST_UNREACHABLE, icmp_type=1, icmp_code=3,
                )
            )
        return result

    def test_result_merge_dedups_cross_shard(self):
        left, right = self._result(1, 2), self._result(2, 3)
        left.merge(right)
        assert len(left.results) == 3
        assert left.dedup_digest() == self._result(1, 2, 3).dedup_digest()

    def test_result_merge_rejects_range_mismatch(self):
        with pytest.raises(ValueError):
            self._result(1).merge(ScanResult(range=ScanRange.parse(UE_SPEC)))

    def test_by_kind_counts(self):
        result = self._result(1, 2, 3)
        assert result.by_kind() == {ReplyKind.DEST_UNREACHABLE: 3}

    def test_result_round_trips_through_json(self):
        topo = build_mini()
        scanner = Scanner(
            topo.network, topo.vantage, ProbeSpec.for_seed(5).build(), _config()
        )
        result = scanner.run()
        assert result.stats.validated > 0
        restored = ScanResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert _reply_set(restored) == _reply_set(result)
        assert restored.stats == result.stats
        assert restored.dedup_digest() == result.dedup_digest()


class TestProbeSpec:
    def test_for_seed_matches_discover_secret(self):
        assert ProbeSpec.for_seed(9).secret == seed_secret(9)
        assert Validator(seed_secret(9)).secret == seed_secret(9)

    @pytest.mark.parametrize("kind", ["icmp", "tcp", "udp"])
    def test_builds_each_probe_kind(self, kind):
        probe = ProbeSpec(kind=kind, secret=bytes(16), port=80).build()
        assert probe.validator.secret == bytes(16)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProbeSpec(kind="quic").build()


class TestTopologySpec:
    def test_mini_round_trip(self):
        built = TopologySpec.mini().build()
        assert built.vantage.name == "vantage"
        assert "cpe-vuln" in built.network.devices

    def test_deployment_block_identical_alone_or_among_many(self):
        solo = TopologySpec.deployment(
            profiles=("in-jio-broadband",), scale=20_000, seed=7
        ).build()
        duo = TopologySpec.deployment(
            profiles=("in-jio-broadband", "cn-mobile-broadband"),
            scale=20_000, seed=7,
        ).build()
        solo_isp = solo.handle.isps["in-jio-broadband"]
        duo_isp = duo.handle.isps["in-jio-broadband"]
        assert solo_isp.scan_spec == duo_isp.scan_spec
        assert [t.last_hop for t in solo_isp.truths] == [
            t.last_hop for t in duo_isp.truths
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec("does-not-exist").build()


class TestCampaignEquivalence:
    """4-shard campaigns return byte-identical responder sets to 1 shard."""

    def _run(self, shards, executor, workers=None):
        campaign = Campaign(
            TopologySpec.mini(),
            {"wide": _config(), "ue": _config(UE_SPEC)},
            probe=ProbeSpec.for_seed(5),
            shards=shards,
            executor=executor,
            workers=workers,
        )
        return campaign.run()

    @pytest.fixture(scope="class")
    def baseline(self):
        return self._run(1, "serial")

    @pytest.mark.parametrize("executor,workers", [
        ("serial", None), ("thread", 4), ("process", 4),
    ])
    def test_four_shards_match_one(self, baseline, executor, workers):
        result = self._run(4, executor, workers)
        for label in ("wide", "ue"):
            assert _reply_set(result.results[label]) == _reply_set(
                baseline.results[label]
            )
            assert result.results[label].stats.sent == (
                baseline.results[label].stats.sent
            )
        assert result.stats.sent == baseline.stats.sent

    def test_monitor_reports_progress(self):
        lines = []
        campaign = Campaign(
            TopologySpec.mini(),
            {"ue": _config(UE_SPEC)},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            monitor=ProgressMonitor(sink=lines.append),
        )
        campaign.run()
        assert any("campaign: 1 range(s) in 2 shard(s)" in l for l in lines)
        assert any(l.startswith("done: 2/2 shards") for l in lines)
        assert any("send:" in l and "hits:" in l for l in lines)


class TestRetryWithBackoff:
    def test_transient_worker_failure_is_retried(self):
        boom = {"wide.s01of02": 1}  # first attempt of shard 1 dies

        def fault(job):
            if boom.get(job.job_id, 0) > 0:
                boom[job.job_id] -= 1
                raise OSError("worker lost")

        campaign = Campaign(
            TopologySpec.mini(),
            {"wide": _config()},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            executor=make_executor("serial", fault_hook=fault),
            max_retries=2,
            backoff_base=0.0,
        )
        result = campaign.run()
        attempts = {o.job.job_id: o.attempts for o in result.outcomes}
        assert attempts["wide.s01of02"] == 2
        assert attempts["wide.s00of02"] == 1
        assert result.stats.sent == 256

    def test_persistent_failure_raises_campaign_error(self):
        def fault(job):
            raise OSError("worker always lost")

        campaign = Campaign(
            TopologySpec.mini(),
            {"wide": _config()},
            probe=ProbeSpec.for_seed(5),
            shards=2,
            executor=make_executor("serial", fault_hook=fault),
            max_retries=1,
            backoff_base=0.0,
        )
        with pytest.raises(CampaignError) as excinfo:
            campaign.run()
        assert "wide.s00of02" in str(excinfo.value)
        assert excinfo.value.failures


class TestCheckpointResume:
    def _campaign(self, ckdir, **kwargs):
        return Campaign(
            TopologySpec.mini(),
            {"wide": _config()},
            probe=ProbeSpec.for_seed(5),
            shards=4,
            checkpoint_dir=str(ckdir),
            checkpoint_every=16,
            **kwargs,
        )

    def test_kill_and_resume_scans_every_index_exactly_once(self, tmp_path):
        baseline = Campaign(
            TopologySpec.mini(), {"wide": _config()},
            probe=ProbeSpec.for_seed(5), shards=4,
        ).run()

        interrupted = self._campaign(tmp_path / "state")
        jobs = interrupted.plan()
        jobs[2].interrupt_after = 37  # die mid-shard, past a checkpoint write
        with pytest.raises(WorkerInterrupted):
            interrupted.run(jobs=jobs)

        store = CheckpointStore(tmp_path / "state")
        states = {s.job_id: s for s in store.iter_states()}
        assert states["wide.s00of04"].status == DONE
        assert states["wide.s01of04"].status == DONE
        assert states["wide.s02of04"].status == PARTIAL
        assert states["wide.s02of04"].position == 37
        run1_sent = sum(s.result.stats.sent for s in states.values())

        resumed = self._campaign(tmp_path / "state", resume=True).run()
        # Completed shards re-send zero probes.
        by_id = {o.job.job_id: o for o in resumed.outcomes}
        for done_id in ("wide.s00of04", "wide.s01of04"):
            assert by_id[done_id].from_checkpoint
            assert by_id[done_id].sent_this_run == 0
        # The partial shard fast-forwarded to its checkpointed position.
        assert by_id["wide.s02of04"].resumed_at == 37
        # No probe index scanned twice: the two runs' sends sum exactly to
        # the uninterrupted campaign's (every index costs one probe).
        assert run1_sent + resumed.sent_this_run == baseline.stats.sent
        assert resumed.stats.sent == baseline.stats.sent
        # And the merged reply set is byte-identical.
        assert _reply_set(resumed.results["wide"]) == _reply_set(
            baseline.results["wide"]
        )

    def test_resume_refuses_mismatched_campaign(self, tmp_path):
        self._campaign(tmp_path / "state").run()
        other = Campaign(
            TopologySpec.mini(),
            {"wide": _config()},
            probe=ProbeSpec.for_seed(5),
            shards=8,  # different shard split
            checkpoint_dir=str(tmp_path / "state"),
            resume=True,
        )
        with pytest.raises(CampaignError):
            other.run()

    def test_fresh_campaign_clears_stale_state(self, tmp_path):
        first = self._campaign(tmp_path / "state").run()
        assert first.shards_from_checkpoint == 0
        again = self._campaign(tmp_path / "state").run()  # no resume flag
        assert again.shards_from_checkpoint == 0
        assert again.sent_this_run == first.sent_this_run

    def test_resume_skips_everything_after_clean_finish(self, tmp_path):
        first = self._campaign(tmp_path / "state").run()
        second = self._campaign(tmp_path / "state", resume=True).run()
        assert second.sent_this_run == 0
        assert second.shards_from_checkpoint == 4
        assert _reply_set(second.results["wide"]) == _reply_set(
            first.results["wide"]
        )

    def test_corrupt_state_is_discarded(self, tmp_path):
        events = []
        store = CheckpointStore(tmp_path / "state", on_event=events.append)
        job = self._campaign(tmp_path / "state").plan()[0]
        outcome = execute_job(job)
        state = store.load_shard(job.job_id)
        assert state is not None and state.status == DONE
        assert len(state.result.results) == len(outcome.result.results)
        # Tamper with the persisted replies and refresh the checksum, so
        # only the content digest stands between the edit and a resume.
        path = store.shard_path(job.job_id)
        data = json.loads(path.read_text())
        row = pack_row(outcome.result.results[0]).hex()
        data["tail"] = data["tail"][:-len(row)] if data["tail"] else row
        data["checksum"] = _checksum(data)
        path.write_text(json.dumps(data))
        assert store.load_shard(job.job_id) is None
        assert [e["reason"] for e in events
                if e["type"] == "checkpoint_corrupt"] == ["digest-mismatch"]
        rerun = execute_job(job)
        assert rerun.sent_this_run == outcome.sent_this_run  # fully re-scanned
