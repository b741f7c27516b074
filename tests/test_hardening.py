"""Engine hardening: watchdog, checkpoint integrity, and the kill-test."""

import dataclasses
import json
import struct
import sys
import threading
import time

import pytest

from repro.core.probes.base import ReplyKind
from repro.core.scanner import ProbeResult, ScanConfig, ScanResult
from repro.core.stats import ScanStats
from repro.core.target import ScanRange
from repro.engine import (
    Campaign,
    CheckpointStore,
    ProbeSpec,
    ThreadPoolBackend,
    WatchdogTimeout,
    WorkerInterrupted,
    execute_job,
    make_executor,
)
from repro.engine.checkpoint import DONE, PARTIAL, ShardState
from repro.faults import FaultEvent, FaultSchedule, LOSS_BURST, ROUTER_CRASH
from repro.net.addr import IPv6Addr
from repro.net.spec import TopologySpec
from repro.store.oslayer import RealOs
from repro.store.oslayer import document_checksum as _checksum
from repro.store.segment import pack_row
from tests.pipeline import ALWAYS, engine

SPEC = "2001:db8:1::/56-64"  # 256 sub-prefixes over both CPEs' space


def _config(spec=SPEC, **kwargs) -> ScanConfig:
    return ScanConfig(scan_range=ScanRange.parse(spec), seed=5, **kwargs)


def _reply_set(result):
    return {(r.responder.value, r.target.value, r.kind) for r in result.results}


def _campaign(configs, **kwargs) -> Campaign:
    defaults = dict(probe=ProbeSpec.for_seed(5), backoff_base=0.0)
    defaults.update(kwargs)
    return Campaign(TopologySpec.mini(), configs, **defaults)


def _noop_hook(job):
    """Module-level (hence picklable) fault hook for the process backend."""


@dataclasses.dataclass(frozen=True)
class SleepOnce:
    """Picklable fault hook: the first attempt of ``job_id`` hangs.

    A marker file records the first attempt, so the retry (in a fresh pool
    worker that shares no memory with the killed one) sails through.
    """

    job_id: str
    seconds: float
    marker_dir: str

    def __call__(self, job) -> None:
        if job.job_id != self.job_id:
            return
        import pathlib

        marker = pathlib.Path(self.marker_dir) / f"{job.job_id}.hung"
        if not marker.exists():
            marker.write_text("hanging")
            time.sleep(self.seconds)


class TestWatchdog:
    def test_thread_watchdog_abandons_hung_shard_and_retries(self):
        baseline = _campaign({"wide": _config()}, shards=2).run()
        hung = {"wide.s01of02": 1}

        def hook(job):
            if hung.get(job.job_id, 0) > 0:
                hung[job.job_id] -= 1
                time.sleep(1.5)  # well past the shard deadline

        campaign = _campaign(
            {"wide": _config()},
            shards=2,
            executor=ThreadPoolBackend(workers=2, fault_hook=hook,
                                       shard_timeout=0.25),
            max_retries=2,
        )
        result = campaign.run()
        attempts = {o.job.job_id: o.attempts for o in result.outcomes}
        assert attempts["wide.s01of02"] == 2  # watchdog kill + clean retry
        assert attempts["wide.s00of02"] == 1
        assert result.metrics.value("campaign_watchdog_kills") == 1
        timeouts = result.events.of_type("watchdog_timeout")
        assert [e["job_id"] for e in timeouts] == ["wide.s01of02"]
        assert "deadline" in timeouts[0]["error"]
        assert _reply_set(result.results["wide"]) == _reply_set(
            baseline.results["wide"]
        )

    def test_process_watchdog_kills_hung_worker(self, tmp_path):
        hook = SleepOnce(job_id="wide.s00of02", seconds=30.0,
                         marker_dir=str(tmp_path))
        campaign = _campaign(
            {"wide": _config()},
            shards=2,
            executor=make_executor("process", workers=1, fault_hook=hook,
                                   shard_timeout=1.0),
            max_retries=2,
        )
        started = time.monotonic()
        result = campaign.run()
        # The hung worker was killed, not waited for.
        assert time.monotonic() - started < 15.0
        assert result.metrics.value("campaign_watchdog_kills") >= 1
        assert result.stats.sent == 256

    def test_hung_shard_exhausting_retries_fails_campaign(self):
        from repro.engine import CampaignError

        campaign = _campaign(
            {"wide": _config()},
            shards=1,
            executor=ThreadPoolBackend(
                workers=1,
                fault_hook=lambda job: time.sleep(0.8),
                shard_timeout=0.1,
            ),
            max_retries=1,
        )
        with pytest.raises(CampaignError) as excinfo:
            campaign.run()
        assert isinstance(
            next(iter(excinfo.value.failures.values())), WatchdogTimeout
        )

    def test_serial_backend_refuses_watchdog(self):
        with pytest.raises(ValueError, match="cannot watchdog itself"):
            make_executor("serial", shard_timeout=1.0)


class TestProcessFaultHooks:
    def test_unpicklable_hook_rejected_up_front(self):
        with pytest.raises(ValueError, match="does not pickle"):
            make_executor("process", fault_hook=lambda job: None)

    def test_picklable_hook_ships_to_pool_workers(self):
        campaign = _campaign(
            {"wide": _config()},
            shards=2,
            executor=make_executor("process", workers=2,
                                   fault_hook=_noop_hook),
        )
        result = campaign.run()
        assert result.stats.sent == 256


class TestKillTest:
    def test_sigkilled_worker_resumes_with_zero_duplicate_probes(
        self, tmp_path
    ):
        baseline = _campaign({"wide": _config()}, shards=2).run()

        campaign = _campaign(
            {"wide": _config()},
            shards=2,
            executor="process",
            workers=1,
            checkpoint_dir=str(tmp_path / "state"),
            checkpoint_every=16,
            max_retries=2,
        )
        jobs = campaign.plan()
        # A real SIGKILL mid-shard: the worker writes one last partial
        # checkpoint and dies without cleanup (BrokenProcessPool upstream).
        jobs[1].kill_after = 37
        result = campaign.run(jobs=jobs)

        by_id = {o.job.job_id: o for o in result.outcomes}
        killed = by_id["wide.s01of02"]
        assert killed.attempts == 2  # died once, resumed once
        assert killed.resumed_at == 37  # fast-forwarded past the checkpoint
        retries = result.events.of_type("shard_retry")
        assert any("wide.s01of02" == e["job_id"] for e in retries)
        assert result.events.of_type("shard_resumed")
        # Zero duplicate probes: the kill+resume campaign sends exactly the
        # uninterrupted campaign's probe count, and the census is identical.
        assert result.stats.sent == baseline.stats.sent
        assert _reply_set(result.results["wide"]) == _reply_set(
            baseline.results["wide"]
        )

    def test_kill_test_under_chaos_is_reproducible(self, tmp_path):
        # Faults + SIGKILL + resume.  The resumed attempt restarts the
        # virtual clock, so the fault window deterministically replays over
        # the *remaining* stream — two identical kill campaigns must agree
        # probe for probe, and nothing is sent twice.
        schedule = FaultSchedule(seed=11, events=(
            FaultEvent(kind=ROUTER_CRASH, start=0.002, end=0.003,
                       device="cpe-ok"),
        ))

        def run(ckdir):
            campaign = _campaign(
                {"wide": _config(fault_schedule=schedule)},
                shards=2,
                executor="process",
                workers=1,
                checkpoint_dir=str(ckdir),
                checkpoint_every=16,
                max_retries=2,
            )
            jobs = campaign.plan()
            jobs[0].kill_after = 37
            return campaign.run(jobs=jobs)

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first.stats.sent == 256  # 37 before the kill + the rest, once
        assert first.stats.sent == second.stats.sent
        assert first.stats.validated == second.stats.validated
        assert _reply_set(first.results["wide"]) == _reply_set(
            second.results["wide"]
        )


class TestCheckpointIntegrity:
    def _store(self, tmp_path):
        events = []
        return CheckpointStore(tmp_path / "state", on_event=events.append), \
            events

    def _write_state(self, store, job_id="wide.s00of02"):
        from repro.core.scanner import ScanResult

        state = ShardState(
            job_id=job_id, status=DONE, shard=0, shards=2, position=128,
            result=ScanResult(range=ScanRange.parse(SPEC)),
        )
        store.write_shard(state)
        return state

    def test_truncated_shard_file_quarantined(self, tmp_path):
        store, events = self._store(tmp_path)
        self._write_state(store)
        path = store.shard_path("wide.s00of02")
        path.write_text(path.read_text()[:40])  # torn write

        assert store.load_shard("wide.s00of02") is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        corrupt = [e for e in events if e["type"] == "checkpoint_corrupt"]
        assert corrupt and corrupt[0]["reason"] == "truncated-or-invalid-json"

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store, events = self._store(tmp_path)
        self._write_state(store)
        path = store.shard_path("wide.s00of02")
        data = json.loads(path.read_text())
        data["position"] = 999  # edit without refreshing the checksum
        path.write_text(json.dumps(data))

        assert store.load_shard("wide.s00of02") is None
        assert path.with_name(path.name + ".corrupt").exists()
        corrupt = [e for e in events if e["type"] == "checkpoint_corrupt"]
        assert corrupt and corrupt[0]["reason"] == "checksum-mismatch"

    def test_state_without_checksum_quarantined(self, tmp_path):
        # Every v2 writer records a checksum; a head that lost the field
        # (or had its key damaged) must not load unverified.
        store, events = self._store(tmp_path)
        state = self._write_state(store)
        path = store.shard_path(state.job_id)
        data = json.loads(path.read_text())
        del data["checksum"]
        path.write_text(json.dumps(data))

        assert store.load_shard(state.job_id) is None
        assert path.with_name(path.name + ".corrupt").exists()
        corrupt = [e for e in events if e["type"] == "checkpoint_corrupt"]
        assert corrupt and corrupt[0]["reason"] == "checksum-mismatch"

    def test_v1_state_is_treated_as_missing(self, tmp_path):
        # A well-formed file of the previous format version is neither
        # resumed from nor quarantined: the shard is scanned afresh.
        store, events = self._store(tmp_path)
        path = store.shard_path("wide.s00of02")
        v1 = {
            "version": 1, "job_id": "wide.s00of02", "status": "done",
            "shard": 0, "shards": 2, "position": 128,
            "result": {"range": SPEC, "results": [], "stats": {}},
            "digest": "",
        }
        v1["checksum"] = _checksum(v1)
        path.write_text(json.dumps(v1))

        assert store.load_shard("wide.s00of02") is None
        assert list(store.iter_states()) == []
        assert path.exists() and not events

    def test_iter_states_skips_corrupt_files(self, tmp_path):
        store, events = self._store(tmp_path)
        self._write_state(store, "wide.s00of02")
        self._write_state(store, "wide.s01of02")
        bad = store.shard_path("wide.s00of02")
        bad.write_text("{not json")

        survivors = [s.job_id for s in store.iter_states()]
        assert survivors == ["wide.s01of02"]
        assert bad.with_name(bad.name + ".corrupt").exists()
        assert any(e["type"] == "checkpoint_corrupt" for e in events)

    def test_corrupt_manifest_treated_as_missing(self, tmp_path):
        store, events = self._store(tmp_path)
        store.write_manifest({"ranges": ["wide"], "shards": 2, "seeds": [5]})
        path = store.directory / store.MANIFEST
        path.write_text(path.read_text()[:25])

        assert store.load_manifest() is None
        assert (store.directory / (store.MANIFEST + ".corrupt")).exists()
        assert any(e["type"] == "checkpoint_corrupt" for e in events)

    def test_clear_removes_quarantined_files(self, tmp_path):
        store, _ = self._store(tmp_path)
        self._write_state(store)
        path = store.shard_path("wide.s00of02")
        path.write_text("garbage")
        assert store.load_shard("wide.s00of02") is None  # quarantines
        store.clear()
        assert not list(store.directory.glob("shard-*"))

    def test_resume_rescans_shard_with_corrupt_checkpoint(self, tmp_path):
        ckdir = tmp_path / "state"
        campaign_kwargs = dict(
            shards=2, checkpoint_dir=str(ckdir), checkpoint_every=16,
        )
        first = _campaign({"wide": _config()}, **campaign_kwargs).run()
        store = CheckpointStore(ckdir)
        victim = store.shard_path("wide.s01of02")
        victim.write_text(victim.read_text()[:60])  # torn write mid-flush

        resumed = _campaign({"wide": _config()}, resume=True,
                            **campaign_kwargs).run()
        by_id = {o.job.job_id: o for o in resumed.outcomes}
        assert by_id["wide.s00of02"].sent_this_run == 0  # intact: restored
        assert by_id["wide.s01of02"].sent_this_run > 0  # corrupt: re-scanned
        assert resumed.events.of_type("checkpoint_corrupt")
        assert _reply_set(resumed.results["wide"]) == _reply_set(
            first.results["wide"]
        )


def _record_offsets(data):
    """Start offset of every record of a checkpoint log, then its end
    (the format of ``repro.engine.checkpoint``'s module docstring: an
    8-byte file header, then ``len u32 | ~len u32 | payload | sha256``)."""
    offsets, offset = [], 8
    while offset < len(data):
        offsets.append(offset)
        size, complement = struct.unpack_from(">II", data, offset)
        assert size ^ complement == 0xFFFFFFFF
        offset += 8 + size + 32
    assert offset == len(data)
    return offsets + [offset]


class CountingOs(RealOs):
    """Records every durability op as (op, file name, bytes)."""

    def __init__(self):
        self.ops = []

    def write(self, handle, data):
        self.ops.append(("write", handle.name, len(data)))
        super().write(handle, data)

    def fsync(self, handle):
        self.ops.append(("fsync", handle.name, 0))
        super().fsync(handle)

    def replace(self, src, dst):
        self.ops.append(("replace", str(dst), 0))
        super().replace(src, dst)


def _rows(count, start=0):
    return [
        ProbeResult(
            target=IPv6Addr((0x20010DB8 << 96) + start + i),
            responder=IPv6Addr((0x20010DB8 << 96) + (1 << 64) + start + i),
            kind=ReplyKind.DEST_UNREACHABLE, icmp_type=1, icmp_code=3,
        )
        for i in range(count)
    ]


class TestCheckpointLog:
    """The append-only, chained log under PARTIAL checkpoints: cost is the
    delta, a torn tail falls back one checkpoint, anything else that fails
    to verify is quarantined with the head."""

    JOB = "wide.s00of02"

    def _job(self, ckdir, **kwargs):
        job = _campaign(
            {"wide": _config()}, shards=2, checkpoint_dir=str(ckdir),
            checkpoint_every=16,
        ).plan()[0]
        return dataclasses.replace(job, **kwargs)

    def _load(self, ckdir, job_id=JOB):
        events = []
        store = CheckpointStore(ckdir, on_event=events.append)
        return store.load_shard(job_id), events, store

    def _assert_same_result(self, got, want):
        assert _reply_set(got) == _reply_set(want)
        assert got.dedup_digest() == want.dedup_digest()
        for name in ScanStats._COUNTERS:
            assert getattr(got.stats, name) == getattr(want.stats, name)

    # -- cost ----------------------------------------------------------------

    @pytest.mark.parametrize("checkpoints", [4, 64])
    def test_partial_checkpoint_is_one_write_one_fsync_of_the_delta(
        self, tmp_path, checkpoints
    ):
        counting = CountingOs()
        store = CheckpointStore(tmp_path / "state", os_layer=counting)
        scan_range = ScanRange.parse(SPEC)
        per_checkpoint = []
        for k in range(checkpoints):
            before = len(counting.ops)
            store.write_shard(ShardState(
                job_id=self.JOB, status=PARTIAL, shard=0, shards=2,
                position=10 * (k + 1),
                result=ScanResult(range=scan_range, results=_rows(5, 5 * k),
                                  stats=ScanStats(sent=10 * (k + 1))),
            ))
            per_checkpoint.append(counting.ops[before:])
        store.close()
        # The first checkpoint creates the log: write, fsync, rename.
        assert [op for op, _, _ in per_checkpoint[0]] == \
            ["write", "fsync", "replace"]
        # Every later one is one write and one fsync of one record whose
        # size is that of its own rows — however many came before
        # (the same figure at 4 and at 64 checkpoints).
        # (The descriptor keeps the tmp name the log was created under.)
        log = str(store.log_path(self.JOB))
        for ops in per_checkpoint[1:]:
            assert [op for op, _, _ in ops] == ["write", "fsync"]
            assert all(name.startswith(log) for _, name, _ in ops)
            assert ops[0][2] == 8 + 72 + 5 * 35 + 32
        state, events, _ = self._load(tmp_path / "state")
        assert not events
        assert state.status == PARTIAL
        assert state.position == 10 * checkpoints
        assert state.result.results == _rows(5 * checkpoints)

    def test_shard_without_partial_checkpoint_never_creates_a_log(
        self, tmp_path
    ):
        counting = CountingOs()
        store = CheckpointStore(tmp_path / "state", os_layer=counting)
        store.write_shard(ShardState(
            job_id=self.JOB, status=DONE, shard=0, shards=2, position=128,
            result=ScanResult(range=ScanRange.parse(SPEC), results=_rows(7)),
        ))
        # What the rewrite-everything format paid for any checkpoint.
        assert [op for op, _, _ in counting.ops] == \
            ["write", "fsync", "replace"]
        assert not store.log_path(self.JOB).exists()
        state, events, _ = self._load(tmp_path / "state")
        assert state.status == DONE and state.result.results == _rows(7)
        assert not events

    def test_done_over_a_log_requires_the_whole_result(self, tmp_path):
        store = CheckpointStore(tmp_path / "state")
        scan_range = ScanRange.parse(SPEC)
        store.write_shard(ShardState(
            job_id=self.JOB, status=PARTIAL, shard=0, shards=2, position=10,
            result=ScanResult(range=scan_range, results=_rows(5)),
        ))
        with pytest.raises(ValueError):
            store.write_shard(ShardState(
                job_id=self.JOB, status=DONE, shard=0, shards=2, position=20,
                result=ScanResult(range=scan_range, results=_rows(5, 5)),
            ))

    # -- torn tail -----------------------------------------------------------

    def test_truncation_anywhere_in_the_last_record_falls_back_one_checkpoint(
        self, tmp_path
    ):
        whole = execute_job(self._job(tmp_path / "whole")).result
        ckdir = tmp_path / "state"
        with pytest.raises(WorkerInterrupted):
            execute_job(self._job(ckdir, interrupt_after=70))
        log = CheckpointStore(ckdir).log_path(self.JOB)
        data = log.read_bytes()
        offsets = _record_offsets(data)
        assert len(offsets) == 1 + 5 + 1  # identity, 16/32/48/64/70, end
        last = offsets[-2]
        log.write_bytes(data[:last])
        previous, _, _ = self._load(ckdir)
        assert previous.status == PARTIAL and previous.position == 64
        for cut in range(last, len(data)):
            log.write_bytes(data[:cut])
            state, events, _ = self._load(ckdir)
            assert not events, f"cut at {cut}: {events}"
            assert state.position == 64 and state.status == PARTIAL
            assert state.result.stats == previous.result.stats
            assert state.result.results == previous.result.results
            # ... and the resume from there converges.
            outcome = execute_job(self._job(ckdir))
            assert outcome.resumed_at == 64
            assert not [e for e in outcome.events
                        if e["type"] == "checkpoint_corrupt"]
            self._assert_same_result(outcome.result, whole)
            reloaded, events, store = self._load(ckdir)
            assert reloaded.status == DONE and not events
            self._assert_same_result(reloaded.result, whole)
            store.shard_path(self.JOB).unlink()

    def test_torn_bytes_inside_the_last_record_fall_back_one_checkpoint(
        self, tmp_path
    ):
        # The file grew to its full length but the last record's bytes did
        # not all land: complete, failing its digest, nothing after it.
        ckdir = tmp_path / "state"
        with pytest.raises(WorkerInterrupted):
            execute_job(self._job(ckdir, interrupt_after=70))
        log = CheckpointStore(ckdir).log_path(self.JOB)
        data = bytearray(log.read_bytes())
        data[_record_offsets(data)[-2] + 20] ^= 0xFF
        log.write_bytes(bytes(data))
        state, events, _ = self._load(ckdir)
        assert state.position == 64 and not events

    # -- corruption ----------------------------------------------------------

    def _assert_quarantined(self, ckdir, store, events, what):
        head, log = store.shard_path(self.JOB), store.log_path(self.JOB)
        corrupt = [e for e in events if e["type"] == "checkpoint_corrupt"]
        assert len(corrupt) == 1, f"{what}: {events}"
        assert not log.exists(), what
        assert log.with_name(log.name + ".corrupt").exists(), what
        assert not head.exists(), what
        return corrupt[0]

    def test_flipping_any_byte_of_an_interior_record_quarantines(
        self, tmp_path
    ):
        ckdir = tmp_path / "state"
        with pytest.raises(WorkerInterrupted):
            execute_job(self._job(ckdir, interrupt_after=70))
        log = CheckpointStore(ckdir).log_path(self.JOB)
        data = log.read_bytes()
        offsets = _record_offsets(data)
        # The identity record and a checkpoint record, neither at the tail.
        for start, end in ((offsets[0], offsets[1]), (offsets[2], offsets[3])):
            for at in range(start, end):
                for path in ckdir.glob("*.corrupt"):
                    path.unlink()
                flipped = bytearray(data)
                flipped[at] ^= 0x01
                log.write_bytes(bytes(flipped))
                state, events, store = self._load(ckdir)
                assert state is None, f"flip at {at} loaded"
                event = self._assert_quarantined(
                    ckdir, store, events, f"flip at {at}"
                )
                assert event["reason"] == "checksum-mismatch"
        # Quarantined means re-scanned, from the start.
        outcome = execute_job(self._job(ckdir))
        assert outcome.resumed_at == 0 and outcome.sent_this_run == 128

    def test_flipping_any_byte_of_the_head_quarantines_head_and_log(
        self, tmp_path
    ):
        ckdir = tmp_path / "state"
        whole = execute_job(self._job(ckdir))
        store = CheckpointStore(ckdir)
        head, log = store.shard_path(self.JOB), store.log_path(self.JOB)
        head_bytes, log_bytes = head.read_bytes(), log.read_bytes()
        assert json.loads(head_bytes)["log_length"] == len(log_bytes)
        for at in range(len(head_bytes)):
            for path in ckdir.glob("*.corrupt"):
                path.unlink()
            flipped = bytearray(head_bytes)
            flipped[at] ^= 0x01
            try:
                if json.loads(flipped) == json.loads(head_bytes):
                    # A digit of a float beyond its precision: the same
                    # document, which is what the checksum covers.
                    continue
            except ValueError:
                pass
            head.write_bytes(bytes(flipped))
            log.write_bytes(log_bytes)
            state, events, store = self._load(ckdir)
            assert state is None, f"flip at {at} loaded"
            self._assert_quarantined(ckdir, store, events, f"flip at {at}")
            assert head.with_name(head.name + ".corrupt").exists()
        outcome = execute_job(self._job(ckdir))
        assert not outcome.from_checkpoint and outcome.sent_this_run == 128
        self._assert_same_result(outcome.result, whole.result)

    def _done_shard(self, ckdir):
        execute_job(self._job(ckdir))
        store = CheckpointStore(ckdir)
        return store.shard_path(self.JOB), store.log_path(self.JOB)

    def _rewrite_head(self, head, **changes):
        data = json.loads(head.read_text())
        data.update(changes)
        data["checksum"] = _checksum(data)
        head.write_text(json.dumps(data))

    def test_head_naming_a_log_that_does_not_match_quarantines(self, tmp_path):
        # Each head below is internally consistent (fresh checksum): only
        # the comparison against the log can catch it.
        for name, damage in {
            "shorter-log": lambda head, log: log.write_bytes(
                log.read_bytes()[:-1]),
            "missing-log": lambda head, log: log.unlink(),
            "other-chain": lambda head, log: self._rewrite_head(
                head, log_chain="00" * 32),
            "mid-record-length": lambda head, log: self._rewrite_head(
                head, log_length=len(log.read_bytes()) - 5),
            "length-past-the-chain": lambda head, log: (
                self._rewrite_head(
                    head, log_length=len(log.read_bytes()) + 5),
                log.write_bytes(log.read_bytes() + b"\0" * 5),
            ),
        }.items():
            ckdir = tmp_path / name
            head, log = self._done_shard(ckdir)
            damage(head, log)
            state, events, _ = self._load(ckdir)
            assert state is None, name
            corrupt = [e for e in events if e["type"] == "checkpoint_corrupt"]
            assert [e["reason"] for e in corrupt] == ["checksum-mismatch"], name
            assert not head.exists() and not log.exists(), name

    def test_head_whose_rows_do_not_hash_to_its_digest_quarantines(
        self, tmp_path
    ):
        head, log = self._done_shard(tmp_path / "state")
        tail = json.loads(head.read_text())["tail"]
        self._rewrite_head(head, tail=tail + pack_row(_rows(1)[0]).hex())
        state, events, _ = self._load(tmp_path / "state")
        assert state is None
        assert [e["reason"] for e in events] == ["digest-mismatch"]
        assert not head.exists() and not log.exists()

    def test_log_of_another_version_is_treated_as_missing(self, tmp_path):
        ckdir = tmp_path / "state"
        with pytest.raises(WorkerInterrupted):
            execute_job(self._job(ckdir, interrupt_after=70))
        log = CheckpointStore(ckdir).log_path(self.JOB)
        data = bytearray(log.read_bytes())
        data[4] = 9  # the header's version byte
        log.write_bytes(bytes(data))
        state, events, _ = self._load(ckdir)
        assert state is None and not events and log.exists()
        log.write_bytes(b"not a checkpoint log")
        state, events, _ = self._load(ckdir)
        assert state is None
        assert [e["reason"] for e in events] == ["malformed-state"]

    # -- racing attempts -----------------------------------------------------

    def test_straggler_racing_its_retry_leaves_consistent_state(
        self, tmp_path
    ):
        whole = execute_job(self._job(tmp_path / "whole")).result
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(12):
                ckdir = tmp_path / f"race-{round_}"
                log = CheckpointStore(ckdir).log_path(self.JOB)
                outcomes, errors = [], []

                def attempt():
                    try:
                        outcomes.append(execute_job(self._job(ckdir)))
                    except BaseException as exc:  # reported below
                        errors.append(exc)

                straggler = threading.Thread(target=attempt)
                retry = threading.Thread(target=attempt)
                straggler.start()
                # The retry starts once the straggler has checkpointed, so
                # it resumes from (and republishes) the straggler's log.
                deadline = time.monotonic() + 10.0
                while not log.exists() and straggler.is_alive():
                    assert time.monotonic() < deadline
                retry.start()
                for thread in (straggler, retry):
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                assert not errors and len(outcomes) == 2
                for outcome in outcomes:
                    self._assert_same_result(outcome.result, whole)
                state, events, _ = self._load(ckdir)
                assert not events, f"round {round_}: {events}"
                assert state.status == DONE
                self._assert_same_result(state.result, whole)
                assert not list(ckdir.glob("*.tmp"))
        finally:
            sys.setswitchinterval(interval)


class TestCrossBackendDeterminism:
    """Same seed + schedule -> bit-identical campaigns on every backend."""

    SCHEDULE = FaultSchedule(seed=42, events=(
        FaultEvent(kind=LOSS_BURST, start=0.0005, end=0.0015, rate=0.4),
        FaultEvent(kind=ROUTER_CRASH, start=0.002, end=0.003,
                   device="cpe-ok"),
    ))

    def _run(self, executor, workers=None):
        config = _config(
            fault_schedule=self.SCHEDULE,
            retransmit=2,
            retransmit_backoff=0.0002,
            adaptive_rate=True,
            adaptive_window=32,
        )
        return _campaign(
            {"wide": config}, shards=2, executor=executor, workers=workers
        ).run()

    @pytest.fixture(scope="class")
    def reference(self):
        return self._run("serial")

    @pytest.mark.parametrize("executor,workers", [
        ("thread", 2), ("process", 2),
    ])
    def test_backends_reproduce_identical_chaos(self, reference, executor,
                                                workers):
        result = self._run(executor, workers)
        assert _reply_set(result.results["wide"]) == _reply_set(
            reference.results["wide"]
        )
        assert result.stats.sent == reference.stats.sent
        assert result.stats.validated == reference.stats.validated
        for name in ("scanner_retransmits", "fault_packets_lost"):
            assert result.metrics.value(name) == reference.metrics.value(name)
        # The chaos timeline itself is identical, shard for shard.
        faults = sorted(
            (e["kind"], e["t_virtual"])
            for e in result.events.of_type("fault_applied")
        )
        ref_faults = sorted(
            (e["kind"], e["t_virtual"])
            for e in reference.events.of_type("fault_applied")
        )
        assert faults == ref_faults

    def test_batched_loop_reproduces_identical_chaos(self, reference):
        with engine(block_size=3, vector_min=ALWAYS):
            result = self._run("serial")
        assert _reply_set(result.results["wide"]) == _reply_set(
            reference.results["wide"]
        )
        assert result.stats.sent == reference.stats.sent
