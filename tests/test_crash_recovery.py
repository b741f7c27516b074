"""Kill-anywhere crash recovery: SIGKILL at any durability op, then prove
the resumed campaign converges to a store row-for-row identical to an
uninterrupted run (zero duplicates, zero losses, same snapshot membership).

Driven through the ``campaign`` target of ``python -m repro.faults.killtest``
in subprocesses (:mod:`tests.crashkit`) so the deaths are real SIGKILLs — no
atexit, no flushed buffers, no cleanup — across both the serial and process
executor backends.

``REPRO_KILL_POINTS`` scales the sampled kill-point count (CI smoke runs
reduced; the default meets the ≥25-point acceptance bar).  Two walks are
exhaustive whatever it says: every durability op of the fixed serial
campaign, and an injected worker death at every checkpoint boundary of
every shard — and, on a smaller campaign, after every single target — on
every executor backend.
"""

import os
import random
import signal

import pytest

from repro.core.blocklist import Blocklist
from repro.core.scanner import ScanConfig
from repro.core.stats import ScanStats
from repro.core.target import ScanRange
from repro.engine import (
    Campaign,
    CheckpointStore,
    ProbeSpec,
    WorkerInterrupted,
    make_executor,
)
from repro.engine.checkpoint import DONE
from repro.faults.killtest import SNAPSHOT, build_campaign
from repro.net.spec import TopologySpec
from repro.store import ResultStore

from tests import crashkit

#: Seeded SIGKILL points on the process backend: a third of the total the
#: variable names (the serial backend's share is superseded by the full walk).
TOTAL_POINTS = int(os.environ.get("REPRO_KILL_POINTS", "25"))
PROCESS_POINTS = max(1, TOTAL_POINTS - (TOTAL_POINTS * 2) // 3)


def _baseline(tmp_path, executor):
    """One uninterrupted run's report (rows, segments, op census)."""
    report = crashkit.baseline(
        "campaign", tmp_path / f"baseline-{executor}", "--executor", executor
    )
    assert report["stores"]["store"]["rows"] > 0
    return report


def _assert_recovered(report, want, context):
    crashkit.assert_same_stores(report, want, context)
    assert report["segments"] == want["segments"], context


class TestKillAnywhere:
    """The tentpole property, at real-SIGKILL strength."""

    # The serial backend's op stream is walked in full below; the process
    # backend, where each forked worker ticks its own counter, is sampled.
    @pytest.mark.parametrize("executor,points", [("process", PROCESS_POINTS)])
    def test_sigkill_at_seeded_ops_recovers_identical_store(
        self, tmp_path, executor, points
    ):
        want = _baseline(tmp_path, executor)
        # The parent's own op count is small — forked workers tick their
        # *own* counters — so sample kill points from the serial op census
        # (the full durability stream); a point beyond what any one process
        # reaches simply yields an unkilled run, and the store property is
        # asserted regardless.
        total_ops = _baseline(tmp_path, "serial")["ops"]
        assert total_ops > 10  # the harness exercises real durability work
        rng = random.Random(1337)
        kill_points = sorted(
            rng.sample(range(1, total_ops + 1), min(points, total_ops))
        )
        assert len(kill_points) >= min(points, total_ops)
        for kill_after in kill_points:
            statuses, report = crashkit.kill_and_recover(
                "campaign", tmp_path / f"{executor}-kill-{kill_after}",
                kill_after, "--executor", executor,
            )
            _assert_recovered(
                report, want,
                f"kill at op {kill_after} ({executor}, exits {statuses})",
            )

    def test_sigkill_at_every_op_recovers_identical_store(self, tmp_path):
        want = _baseline(tmp_path, "serial")
        for kill_after in range(1, want["ops"] + 1):
            statuses, report = crashkit.kill_and_recover(
                "campaign", tmp_path / f"kill-{kill_after}", kill_after
            )
            assert statuses[0] != 0  # every op is a real death
            _assert_recovered(
                report, want, f"kill at op {kill_after} (exits {statuses})"
            )

    def test_durability_ops_are_linear_in_checkpoints(self, tmp_path):
        """Two ops (write, fsync) per PARTIAL checkpoint, whatever the shard
        already holds: quartering ``checkpoint_every`` adds exactly two ops
        per added checkpoint."""
        def count(every):
            return crashkit.baseline("campaign", tmp_path / f"every-{every}",
                                     "--checkpoint-every", str(every))["ops"]

        # 2 shards x 128 probes: 1, 3 and 7 PARTIAL checkpoints per shard
        # before the last boundary (which the DONE head covers) ...
        ops = {every: count(every) for every in (64, 32, 16)}
        # ... and the first of each shard also renames its log into place.
        assert ops[32] - ops[64] == 2 * 2 * 2
        assert ops[16] - ops[32] == 2 * 4 * 2

    def test_backends_agree_on_the_baseline(self, tmp_path):
        serial = _baseline(tmp_path, "serial")
        _assert_recovered(_baseline(tmp_path, "process"), serial, "process")


class TestSealCommitWindow:
    """The narrowest window: death between segment seal and manifest
    commit leaves sealed-but-unreferenced orphans, never partial state;
    resume absorbs them and commits exactly once."""

    def test_orphans_absorbed_never_double_committed(self, tmp_path):
        directory = tmp_path / "window"
        want = _baseline(tmp_path, "serial")
        total_ops = want["ops"]
        # Walk backwards from the end of the op stream: the tail ops are
        # the final seals, the manifest write/fsync/rename, and the
        # directory fsync.  Kill at every one of the last eight.
        for kill_after in range(max(1, total_ops - 7), total_ops + 1):
            subdir = directory / f"op-{kill_after}"
            proc = crashkit.run_harness(
                "campaign", subdir, "--kill-after-ops", str(kill_after),
                check=False,
            )
            assert proc.returncode == -signal.SIGKILL.value or \
                proc.returncode == 137
            store_dir = subdir / "store"
            # Pre-resume: either the snapshot landed atomically or it is
            # wholly absent with orphans on disk — no third state.
            store = ResultStore(store_dir)
            if SNAPSHOT not in store.snapshots:
                committed = set(store.segments)
                assert all(
                    name not in committed for name in store.orphans()
                )
            del store
            crashkit.run_harness("campaign", subdir, "--resume")
            assert crashkit.committed(store_dir) == \
                (want["stores"]["store"], want["segments"])
            # Exactly one committed copy; orphans for this round are gone.
            final = ResultStore(store_dir)
            assert final.orphans() == []
            assert sorted(final.segments) == want["segments"]


class TestInterruptAtEveryCheckpoint:
    """An injected worker death at every checkpoint boundary of every
    shard: the resumed campaign equals the uninterrupted one in store rows,
    scan statistics and probe accounting."""

    EVERY = 32

    def _campaign(self, directory, executor, resume=False):
        # One worker: shards in sequence, no straggler left racing the resume.
        return build_campaign(
            str(directory), make_executor(executor, workers=1), shards=2,
            resume=resume, checkpoint_every=self.EVERY,
        )

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_resume_equals_uninterrupted(self, tmp_path, executor):
        baseline = self._campaign(tmp_path / "base", executor).run()
        want = crashkit.committed(tmp_path / "base" / "store")
        sent = {o.job.job_id: o.result.stats.sent for o in baseline.outcomes}
        assert sum(sent.values()) == baseline.stats.sent == 256
        walked = 0
        for index, job_id in enumerate(sorted(sent)):
            for boundary in range(self.EVERY, sent[job_id] + 1, self.EVERY):
                directory = tmp_path / f"{executor}-{index}-{boundary}"
                interrupted = self._campaign(directory, executor)
                jobs = interrupted.plan()
                assert jobs[index].job_id == job_id
                jobs[index].interrupt_after = boundary
                with pytest.raises(WorkerInterrupted):
                    interrupted.run(jobs=jobs)
                states = {
                    s.job_id: s
                    for s in CheckpointStore(directory / "ckpt").iter_states()
                }
                assert states[job_id].position >= boundary
                first_run_sent = sum(
                    s.result.stats.sent for s in states.values()
                )

                resumed = self._campaign(directory, executor, resume=True).run()
                by_id = {o.job.job_id: o for o in resumed.outcomes}
                for other, state in states.items():
                    if state.status == DONE:
                        assert by_id[other].from_checkpoint
                        assert by_id[other].sent_this_run == 0
                assert by_id[job_id].resumed_at == states[job_id].position
                assert first_run_sent + resumed.sent_this_run == 256
                for name in ScanStats._COUNTERS:
                    assert getattr(resumed.stats, name) == \
                        getattr(baseline.stats, name), name
                for label, result in baseline.results.items():
                    assert resumed.results[label].dedup_digest() == \
                        result.dedup_digest()
                assert crashkit.committed(directory / "store") == want
                walked += 1
        assert walked == 8  # 2 shards x boundaries 32, 64, 96, 128


class TestOpCensus:
    """The durability-op count is checkpoint cadence made visible: one
    more or one fewer checkpoint moves it."""

    @pytest.mark.parametrize("every,ops", [(64, 35), (16, 59)])
    def test_op_count_is_unchanged(self, tmp_path, every, ops):
        assert crashkit.baseline("campaign", tmp_path, "--checkpoint-every",
                                 str(every))["ops"] == ops


class TestInterruptAtEveryTarget:
    """An injected worker death after every target of every shard — not
    only at checkpoint boundaries, and with a blocklist vetoing positions
    inside the block the targets are drawn from: the state the death
    checkpoints is exact at any target, so the resumed campaign equals the
    uninterrupted one in store rows, statistics (``blocked`` included) and
    probe accounting."""

    SPEC = "2001:db8:1:40::/58-64"  # 64 sub-prefixes, one block per shard

    def _campaign(self, directory, executor, resume=False):
        config = ScanConfig(
            scan_range=ScanRange.parse(self.SPEC), seed=5,
            blocklist=Blocklist(blocked=["2001:db8:1:68::/62",
                                         "2001:db8:1:44::/63"]),
        )
        return Campaign(
            TopologySpec.mini(), {"kill": config},
            probe=ProbeSpec.for_seed(5), shards=2,
            executor=make_executor(executor, workers=1),
            checkpoint_dir=str(directory / "ckpt"), checkpoint_every=16,
            resume=resume, store_dir=str(directory / "store"),
            snapshot=SNAPSHOT, backoff_base=0.0,
        )

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_resume_equals_uninterrupted(self, tmp_path, executor):
        baseline = self._campaign(tmp_path / "base", executor).run()
        want = crashkit.committed(tmp_path / "base" / "store")
        assert want[0]["rows"] and baseline.stats.blocked == 6
        total = baseline.stats.sent
        sent = {o.job.job_id: o.result.stats.sent for o in baseline.outcomes}
        for index, job_id in enumerate(sorted(sent)):
            for k in range(1, sent[job_id] + 1):
                directory = tmp_path / f"{executor}-{index}-{k}"
                interrupted = self._campaign(directory, executor)
                jobs = interrupted.plan()
                assert jobs[index].job_id == job_id
                jobs[index].interrupt_after = k
                with pytest.raises(WorkerInterrupted):
                    interrupted.run(jobs=jobs)
                states = {
                    s.job_id: s
                    for s in CheckpointStore(directory / "ckpt").iter_states()
                }
                # Died after exactly k probes, vetoed positions accounted.
                died = states[job_id]
                assert died.result.stats.sent == k
                assert died.position == k + died.result.stats.blocked
                first_run_sent = sum(
                    s.result.stats.sent for s in states.values()
                )

                resumed = self._campaign(directory, executor, resume=True).run()
                by_id = {o.job.job_id: o for o in resumed.outcomes}
                assert by_id[job_id].resumed_at == died.position
                assert first_run_sent + resumed.sent_this_run == total
                for name in ScanStats._COUNTERS:
                    assert getattr(resumed.stats, name) == \
                        getattr(baseline.stats, name), (name, k)
                assert crashkit.committed(directory / "store") == want
