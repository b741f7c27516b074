"""The host fault domain: scheduled storage failures under the scanner.

Unit level: the three host fault kinds (schema, JSON round-trip, overlap
rejection) and the :class:`FaultyOs` shim's op semantics on a hand-driven
virtual clock.  Integration level: host-fault schedules riding a campaign
— fatal errors park shards (supervisor) or fail the run (stock), simulated
crashes at the seal/commit boundary recover via resume, and the fault
journal rides the worker event stream home.
"""

import errno
import json
import struct

import pytest

from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange
from repro.engine import (
    Campaign,
    CampaignError,
    CheckpointStore,
    SupervisorPolicy,
    execute_job,
)
from repro.faults import (
    FS_CRASH,
    FS_ERROR,
    FS_TORN_WRITE,
    FaultEvent,
    FaultSchedule,
    FaultyOs,
    HostFaultInjector,
    ScheduleError,
    SimulatedCrash,
)
from repro.net.spec import TopologySpec
from repro.store import ResultStore

SPEC = "2001:db8:1::/56-64"


def _event(kind, start=0.0, end=1e9, **kw):
    return FaultEvent(kind=kind, start=start, end=end, **kw)


def _injector(*events, clock=None):
    clock = clock if clock is not None else [0.0]
    schedule = FaultSchedule(events=tuple(events))
    injector = HostFaultInjector(schedule, clock=lambda: clock[0])
    return injector, injector.os_layer(), clock


class TestSchema:
    def test_fs_error_requires_valid_op_and_err(self):
        _event(FS_ERROR, op="write", err="EIO").validate()
        with pytest.raises(ScheduleError):
            _event(FS_ERROR, op="stat", err="EIO").validate()
        with pytest.raises(ScheduleError):
            _event(FS_ERROR, op="write", err="EPERM").validate()

    def test_fs_torn_write_requires_offset(self):
        _event(FS_TORN_WRITE, offset=0).validate()
        with pytest.raises(ScheduleError):
            _event(FS_TORN_WRITE).validate()
        with pytest.raises(ScheduleError):
            _event(FS_TORN_WRITE, offset=-1).validate()

    def test_fs_crash_requires_rename_phase(self):
        _event(FS_CRASH, op="before-rename").validate()
        _event(FS_CRASH, op="after-rename").validate()
        with pytest.raises(ScheduleError):
            _event(FS_CRASH, op="write").validate()

    def test_json_round_trip_preserves_host_fields(self):
        schedule = FaultSchedule(events=(
            _event(FS_ERROR, 1.0, 2.0, op="fsync", err="ENOSPC",
                   path="manifest"),
            _event(FS_TORN_WRITE, 3.0, 4.0, offset=512, path=".seg"),
            _event(FS_CRASH, 5.0, 6.0, op="after-rename"),
        ), seed=9)
        clone = FaultSchedule.from_json(schedule.to_json())
        assert clone == schedule
        payload = json.loads(schedule.to_json())
        assert payload["events"][0]["err"] == "ENOSPC"
        assert payload["events"][1]["offset"] == 512

    def test_overlapping_host_windows_on_one_resource_rejected(self):
        with pytest.raises(ScheduleError, match="overlapping"):
            FaultSchedule(events=(
                _event(FS_ERROR, 0.0, 5.0, op="write", err="EIO"),
                _event(FS_TORN_WRITE, 3.0, 8.0, offset=4),
            ))

    def test_domain_split(self):
        schedule = FaultSchedule(events=(
            _event("loss-burst", rate=0.5),
            _event(FS_ERROR, op="write", err="EIO"),
        ))
        assert [e.kind for e in schedule.host_events()] == [FS_ERROR]
        assert [e.kind for e in schedule.network_events()] == ["loss-burst"]
        assert schedule.events[1].host_domain
        assert not schedule.events[0].host_domain


class TestFaultyOs:
    def test_fs_error_fires_only_inside_window(self, tmp_path):
        injector, shim, clock = _injector(
            _event(FS_ERROR, 1.0, 2.0, op="write", err="ENOSPC")
        )
        with open(tmp_path / "f", "wb") as handle:
            shim.write(handle, b"before")
            clock[0] = 1.5
            with pytest.raises(OSError) as excinfo:
                shim.write(handle, b"inside")
            assert excinfo.value.errno == errno.ENOSPC
            clock[0] = 2.0
            shim.write(handle, b"after")
        assert (tmp_path / "f").read_bytes() == b"beforeafter"

    def test_path_filter_scopes_the_fault(self, tmp_path):
        injector, shim, clock = _injector(
            _event(FS_ERROR, 0.0, 10.0, op="write", err="EIO",
                   path="victim")
        )
        clock[0] = 5.0
        with open(tmp_path / "bystander", "wb") as handle:
            shim.write(handle, b"fine")
        with open(tmp_path / "victim.seg", "wb") as handle:
            with pytest.raises(OSError):
                shim.write(handle, b"doomed")

    def test_fsync_and_rename_errors(self, tmp_path):
        injector, shim, clock = _injector(
            _event(FS_ERROR, 0.0, 10.0, op="fsync", err="EIO"),
        )
        clock[0] = 1.0
        with open(tmp_path / "f", "wb") as handle:
            shim.write(handle, b"x")
            with pytest.raises(OSError):
                shim.fsync(handle)
        injector, shim, clock = _injector(
            _event(FS_ERROR, 0.0, 10.0, op="rename", err="EIO"),
        )
        clock[0] = 1.0
        src = tmp_path / "a"
        src.write_bytes(b"x")
        with pytest.raises(OSError):
            shim.replace(src, tmp_path / "b")
        assert src.exists() and not (tmp_path / "b").exists()

    def test_torn_write_tears_at_cumulative_offset(self, tmp_path):
        injector, shim, clock = _injector(
            _event(FS_TORN_WRITE, 0.0, 10.0, offset=5)
        )
        clock[0] = 1.0
        with open(tmp_path / "f", "wb") as handle:
            shim.write(handle, b"abc")  # 3 bytes: below the tear point
            with pytest.raises(OSError) as excinfo:
                shim.write(handle, b"defgh")  # crosses at 5: "de" lands
            assert excinfo.value.errno == errno.EIO
            with pytest.raises(OSError):
                shim.write(handle, b"later")  # past the tear: nothing lands
        assert (tmp_path / "f").read_bytes() == b"abcde"

    def test_crash_before_rename_leaves_tmp_only(self, tmp_path):
        injector, shim, clock = _injector(
            _event(FS_CRASH, 0.0, 10.0, op="before-rename")
        )
        clock[0] = 1.0
        src = tmp_path / "data.tmp"
        src.write_bytes(b"sealed")
        with pytest.raises(SimulatedCrash):
            shim.replace(src, tmp_path / "data.seg")
        assert src.exists() and not (tmp_path / "data.seg").exists()

    def test_crash_after_rename_leaves_rename_durable(self, tmp_path):
        injector, shim, clock = _injector(
            _event(FS_CRASH, 0.0, 10.0, op="after-rename")
        )
        clock[0] = 1.0
        src = tmp_path / "data.tmp"
        src.write_bytes(b"sealed")
        with pytest.raises(SimulatedCrash):
            shim.replace(src, tmp_path / "data.seg")
        assert not src.exists()
        assert (tmp_path / "data.seg").read_bytes() == b"sealed"

    def test_simulated_crash_is_not_an_ordinary_exception(self):
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, Exception)

    def test_journal_and_restore(self, tmp_path):
        injector, shim, clock = _injector(
            _event(FS_ERROR, 1.0, 2.0, op="write", err="EIO"),
            _event(FS_ERROR, 0.0, 50.0, op="fsync", err="EIO",
                   path="elsewhere"),
        )
        clock[0] = 1.5
        with open(tmp_path / "f", "wb") as handle:
            with pytest.raises(OSError):
                shim.write(handle, b"x")
            clock[0] = 3.0
            shim.write(handle, b"x")
        types = [r["type"] for r in injector.records]
        assert types.count("fault_applied") == 2
        assert "host_fault_injected" in types
        assert types.count("fault_reverted") == 1  # write window ended
        injector.restore()  # the fsync window is still open at scan end
        reverts = [r for r in injector.records
                   if r["type"] == "fault_reverted"]
        assert [r["reason"] for r in reverts] == ["window-end", "scan-end"]
        # Post-restore the shim is transparent.
        clock[0] = 10.0
        with open(tmp_path / "g", "wb") as handle:
            shim.write(handle, b"clean")


def _campaign(tmp_path, schedule, name, resume=False, supervisor=None,
              max_retries=2):
    config = ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5,
                        fault_schedule=schedule)
    return Campaign(
        TopologySpec.mini(),
        {"hostchaos": config},
        shards=2,
        checkpoint_dir=str(tmp_path / name / "ckpt"),
        checkpoint_every=64,
        resume=resume,
        store_dir=str(tmp_path / name / "store"),
        snapshot="round",
        backoff_base=0.0,
        max_retries=max_retries,
        supervisor=supervisor,
    )


def _rows(store_dir):
    store = ResultStore(str(store_dir))
    snap = store.snapshot("round")
    return sorted(
        (r.target.value, r.responder.value, r.kind.value)
        for r in store.iter_rows(snap.segments)
    )


class TestCampaignIntegration:
    def test_persistent_fs_error_fails_the_stock_campaign(self, tmp_path):
        # EIO on every checkpoint write of shard 0, forever: deterministic
        # faults fail identically on every retry, so the stock loop gives
        # up with CampaignError after max_retries.
        schedule = FaultSchedule(events=(
            _event(FS_ERROR, op="write", err="EIO", path="s00of02"),
        ))
        campaign = _campaign(tmp_path, schedule, "stock")
        with pytest.raises(CampaignError) as excinfo:
            campaign.run()
        assert "s00of02" in str(excinfo.value)

    def test_supervisor_parks_the_broken_shard_and_commits_the_rest(
        self, tmp_path
    ):
        schedule = FaultSchedule(events=(
            _event(FS_ERROR, op="write", err="EIO", path="s00of02"),
        ))
        policy = SupervisorPolicy()
        campaign = _campaign(tmp_path, schedule, "sup", supervisor=policy)
        result = campaign.run()
        assert [d["job_id"] for d in result.degraded] == \
            ["hostchaos.s00of02of02".replace("of02of02", "of02")]
        parked = result.degraded[0]
        assert parked["reason"] == "retries-exhausted"
        assert parked["signatures"] == ["OSError:EIO"]
        assert len(result.outcomes) == 1  # shard 1 completed
        # The partial commit landed and says so.
        store = ResultStore(str(tmp_path / "sup" / "store"))
        snap = store.snapshot("round")
        assert snap.meta["degraded"] == ["hostchaos.s00of02"]
        assert snap.rows > 0
        assert result.events.of_type("shard_degraded")
        assert result.events.of_type("campaign_degraded")

    def test_seal_crash_recovers_via_resume(self, tmp_path):
        baseline = _campaign(tmp_path, None, "base").run()
        want = _rows(tmp_path / "base" / "store")
        # Shard 0 "dies" at its segment seal — after its DONE checkpoint,
        # before the rename lands.
        schedule = FaultSchedule(events=(
            _event(FS_CRASH, op="before-rename", path="s00of02.seg"),
        ))
        campaign = _campaign(tmp_path, schedule, "crash")
        with pytest.raises(SimulatedCrash):
            campaign.run()
        store_dir = tmp_path / "crash" / "store"
        assert "round" not in ResultStore(str(store_dir)).snapshots
        # Resume: the DONE shard restores from its checkpoint (the restore
        # path never re-arms host faults — its crash already "happened")
        # and the round commits exactly the baseline rows.
        resumed = _campaign(tmp_path, schedule, "crash", resume=True).run()
        assert resumed.snapshot == "round"
        assert _rows(store_dir) == want
        assert ResultStore(str(store_dir)).orphans() == []
        assert baseline.stats.validated == resumed.stats.validated

    def test_fault_journal_rides_home_on_the_event_log(self, tmp_path):
        # A window that opens and shuts without ever matching a file: the
        # apply/revert journal still ships back on the worker outcome.
        schedule = FaultSchedule(events=(
            _event(FS_ERROR, 0.0, 1e-6, op="write", err="EIO",
                   path="no-such-file"),
        ))
        result = _campaign(tmp_path, schedule, "journal").run()
        applied = [e for e in result.events.of_type("fault_applied")
                   if e["kind"] == FS_ERROR]
        reverted = [e for e in result.events.of_type("fault_reverted")
                    if e["kind"] == FS_ERROR]
        assert applied and reverted

    def test_torn_checkpoint_write_is_quarantined_on_resume(self, tmp_path):
        # Tear shard 0's very first checkpoint write a few bytes in — the
        # write that creates its log: the shard fails (EIO), the half-written
        # tmp never renames into place, and the campaign retries cleanly —
        # the integrity layer never even sees a torn file because the rename
        # protocol withheld it.
        schedule = FaultSchedule(events=(
            _event(FS_TORN_WRITE, 0.0, 0.5, offset=7, path="s00of02"),
        ))
        policy = SupervisorPolicy()
        campaign = _campaign(tmp_path, schedule, "torn", supervisor=policy)
        result = campaign.run()
        injected = [e for e in result.events.of_type("host_fault_injected")]
        if result.degraded:
            # The window outlived every retry: shard parked, round partial.
            assert result.degraded[0]["signatures"] == ["OSError:EIO"]
        else:
            # A retry landed after the window closed; full round.
            assert len(result.outcomes) == 2
        assert result.snapshot == "round"

    def test_torn_log_append_resumes_from_the_previous_checkpoint(
        self, tmp_path
    ):
        # 25 kpps: a checkpoint every 16 probes lands every 0.64 ms of
        # virtual time.  The window catches only the second one — an append
        # to the shard's log, not the write that created it — and tears it
        # five bytes in.
        schedule = FaultSchedule(events=(
            _event(FS_TORN_WRITE, 0.0010, 0.0015, offset=5, path=".log"),
        ))

        def job(name, schedule):
            config = ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5,
                                fault_schedule=schedule)
            return Campaign(
                TopologySpec.mini(), {"hostchaos": config}, shards=2,
                checkpoint_dir=str(tmp_path / name), checkpoint_every=16,
            ).plan()[0]

        whole = execute_job(job("whole", None)).result
        with pytest.raises(OSError) as torn:
            execute_job(job("torn", schedule))
        assert torn.value.errno == errno.EIO
        events = []
        store = CheckpointStore(tmp_path / "torn", on_event=events.append)
        log = store.log_path("hostchaos.s00of02")
        state = store.load_shard("hostchaos.s00of02")
        # The five torn bytes are on disk, after the identity record and
        # the first checkpoint's (8-byte file header, then records framed
        # ``len u32 | ~len u32 | payload | sha256``) ...
        data, good = log.read_bytes(), 8
        for _ in range(2):
            good += 8 + struct.unpack_from(">I", data, good)[0] + 32
        assert len(data) == good + 5
        # ... and are stepped over, not quarantined: the shard is where its
        # first checkpoint left it.
        assert state.position == 16 and not events

        resumed = execute_job(job("torn", None))
        assert resumed.resumed_at == 16
        assert resumed.sent_this_run == whole.stats.sent - 16
        assert not [e for e in resumed.events
                    if e["type"] == "checkpoint_corrupt"]
        assert resumed.result.dedup_digest() == whole.dedup_digest()
        assert resumed.result.stats.validated == whole.stats.validated
        assert store.load_shard("hostchaos.s00of02").status == "done"
        assert not events
