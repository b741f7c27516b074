"""Campaign supervision: breakers, retry budgets, SIGTERM drain.

The supervisor is opt-in (pass a ``SupervisorPolicy``); everything here
also pins the contract that no policy leaves the campaign bit-identical to
the stock fail-fast loop.
"""

import os
import signal

import pytest

from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange
from repro.engine import (
    Campaign,
    CampaignError,
    SerialExecutor,
    Supervisor,
    SupervisorPolicy,
    failure_signature,
)
from repro.engine.supervisor import (
    BREAKER_OPEN,
    BUDGET_EXHAUSTED,
    DRAINED,
    RETRIES_EXHAUSTED,
)
from repro.net.spec import TopologySpec

SPEC = "2001:db8:1::/56-64"


def _config():
    return ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5)


def _campaign(shards=2, supervisor=None, hook=None, max_retries=2,
              **kwargs):
    executor = SerialExecutor(fault_hook=hook) if hook else "serial"
    return Campaign(
        TopologySpec.mini(),
        {"sup": _config()},
        shards=shards,
        executor=executor,
        backoff_base=0.0,
        max_retries=max_retries,
        supervisor=supervisor,
        **kwargs,
    )


class TestSignatures:
    def test_oserror_refined_by_errno(self):
        import errno as errno_mod

        assert failure_signature(
            OSError(errno_mod.EIO, "boom")
        ) == "OSError:EIO"
        assert failure_signature(
            OSError(errno_mod.ENOSPC, "full")
        ) == "OSError:ENOSPC"

    def test_plain_exceptions_by_type(self):
        assert failure_signature(ValueError("x")) == "ValueError"
        assert failure_signature(KeyError("x")) == "KeyError"


class TestSupervisorUnit:
    def test_same_signature_retries_until_exhausted(self):
        sup = Supervisor(SupervisorPolicy())
        exc = OSError(5, "io")
        assert sup.note_failure("j", exc, attempt=1, max_retries=2) == "retry"
        assert sup.note_failure("j", exc, attempt=2, max_retries=2) == "retry"
        assert sup.note_failure("j", exc, attempt=3, max_retries=2) == "park"
        assert sup.parked[0].reason == RETRIES_EXHAUSTED
        assert sup.parked[0].signatures == ["OSError:EIO"]

    def test_distinct_signatures_open_the_breaker_early(self):
        sup = Supervisor(SupervisorPolicy(breaker_distinct=3))
        assert sup.note_failure("j", ValueError(), 1, 99) == "retry"
        assert sup.note_failure("j", KeyError(), 2, 99) == "retry"
        assert sup.note_failure("j", RuntimeError(), 3, 99) == "park"
        assert sup.parked[0].reason == BREAKER_OPEN
        assert len(sup.parked[0].signatures) == 3

    def test_global_budget_parks_across_shards(self):
        sup = Supervisor(SupervisorPolicy(retry_budget=2))
        assert sup.note_failure("a", ValueError(), 1, 99) == "retry"
        assert sup.note_failure("b", ValueError(), 1, 99) == "retry"
        assert sup.note_failure("c", ValueError(), 1, 99) == "park"
        assert sup.parked[0].reason == BUDGET_EXHAUSTED

    def test_drain_flag_and_scope(self):
        sup = Supervisor(SupervisorPolicy())
        assert not sup.draining
        with sup.drain_scope():
            os.kill(os.getpid(), signal.SIGTERM)
            # The handler ran synchronously in this (main) thread.
            assert sup.draining
        # Scope exited: the previous handler is back.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class _FlakyHook:
    """Fails selected shards with a scripted exception sequence."""

    def __init__(self, victim, sequence):
        self.victim = victim
        self.sequence = list(sequence)
        self.calls = {}

    def __call__(self, job):
        if self.victim not in job.job_id:
            return
        attempt = self.calls.get(job.job_id, 0)
        self.calls[job.job_id] = attempt + 1
        if attempt < len(self.sequence):
            raise self.sequence[attempt]


class TestCampaignSupervision:
    def test_no_policy_is_the_stock_path(self):
        hook = _FlakyHook("s00of02", [ValueError("always")] * 99)
        campaign = _campaign(hook=hook)
        with pytest.raises(CampaignError):
            campaign.run()

    def test_flaky_shard_recovers_within_retries(self):
        baseline = _campaign().run()
        hook = _FlakyHook("s00of02", [ValueError("once")])
        policy = SupervisorPolicy()
        result = _campaign(hook=hook, supervisor=policy).run()
        assert result.degraded == []
        assert not result.drained
        assert len(result.outcomes) == 2
        assert result.stats.validated == baseline.stats.validated

    def test_breaker_parks_a_shard_failing_distinct_ways(self):
        hook = _FlakyHook(
            "s00of02",
            [ValueError("a"), KeyError("b"), RuntimeError("c"),
             ValueError("d")],
        )
        policy = SupervisorPolicy(breaker_distinct=3)
        result = _campaign(hook=hook, supervisor=policy,
                           max_retries=99).run()
        assert len(result.degraded) == 1
        parked = result.degraded[0]
        assert parked["reason"] == BREAKER_OPEN
        assert parked["signatures"] == ["ValueError", "KeyError",
                                        "RuntimeError"]
        assert len(result.outcomes) == 1
        assert result.metadata()["degraded"] == 1

    def test_budget_exhaustion_emits_and_parks(self):
        hook = _FlakyHook("s00of02", [ValueError("x")] * 99)
        policy = SupervisorPolicy(retry_budget=0)
        result = _campaign(hook=hook, supervisor=policy).run()
        assert result.degraded[0]["reason"] == BUDGET_EXHAUSTED
        assert result.events.of_type("retry_budget_exhausted")

    def test_sigterm_drains_gracefully(self):
        drained_campaign = {}

        def hook(job):
            # The second shard's hook fires after the first completed:
            # SIGTERM lands, the drain flag flips, this shard still runs
            # to completion, and the third never dispatches.
            if "s01of03" in job.job_id:
                os.kill(os.getpid(), signal.SIGTERM)

        policy = SupervisorPolicy()
        campaign = _campaign(shards=3, hook=hook, supervisor=policy)
        result = campaign.run()
        assert result.drained
        assert len(result.outcomes) == 2
        assert [d["reason"] for d in result.degraded] == [DRAINED]
        assert result.events.of_type("campaign_drain_requested")
        assert result.events.of_type("campaign_drained")
        assert result.metadata()["drained"] is True

    def test_supervised_clean_run_matches_stock_results(self):
        stock = _campaign().run()
        policy = SupervisorPolicy(retry_budget=5)
        supervised = _campaign(supervisor=policy).run()
        stock_rows = {
            (r.target.value, r.responder.value, r.kind)
            for r in stock.results["sup"].results
        }
        supervised_rows = {
            (r.target.value, r.responder.value, r.kind)
            for r in supervised.results["sup"].results
        }
        assert supervised_rows == stock_rows
        assert supervised.stats.sent == stock.stats.sent
        assert supervised.degraded == [] and not supervised.drained


class TestSignalScopes:
    """A campaign installs SIGTERM handlers only on the main thread: a
    daemon's lease threads must never touch the process signal table."""

    def _observed_run(self, tmp_path):
        """Run a supervised, flight-recorded campaign in this thread;
        returns the SIGTERM handlers its shards saw."""
        seen = []
        campaign = _campaign(
            hook=lambda job: seen.append(signal.getsignal(signal.SIGTERM)),
            supervisor=SupervisorPolicy(),
            flight_dir=str(tmp_path / "flight"),
        )
        campaign.run()
        return seen

    def test_main_thread_installs_then_restores(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        seen = self._observed_run(tmp_path)
        assert len(seen) == 2 and all(h is not before for h in seen)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_lease_thread_leaves_the_handler_alone(self, tmp_path):
        import threading

        before = signal.getsignal(signal.SIGTERM)
        seen = []
        lease = threading.Thread(
            target=lambda: seen.extend(self._observed_run(tmp_path))
        )
        lease.start()
        lease.join()
        assert seen == [before, before]
        assert signal.getsignal(signal.SIGTERM) is before


class TestCliSupervision:
    """`repro-xmap scan --supervise/--retry-budget/--fault-schedule`:
    supervised partial results exit 0 with the parked shards named on
    stderr."""

    def _host_schedule(self, tmp_path, path_filter="shard-"):
        import json

        schedule = tmp_path / "host-faults.json"
        schedule.write_text(json.dumps({
            "seed": 3,
            "events": [{"kind": "fs-error", "op": "fsync", "err": "EIO",
                        "path": path_filter, "start": 0.0, "end": 999.0}],
        }))
        return str(schedule)

    def test_flag_validation(self, capsys):
        from repro.cli import main

        assert main(["scan", "--retry-budget", "-1"]) == 2
        assert "--retry-budget" in capsys.readouterr().err
        assert main(["scan", "--fault-schedule", "/nonexistent.json"]) == 2
        assert "--fault-schedule" in capsys.readouterr().err

    def test_host_faults_park_shards_but_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "scan", "--range", SPEC, "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--fault-schedule", self._host_schedule(tmp_path),
            "--supervise",
        ]) == 0
        err = capsys.readouterr().err
        assert "fault schedule armed: 1 event(s) (1 host, 0 network)" in err
        assert "shard degraded" in err
        assert "OSError:EIO" in err

    def test_unsupervised_host_faults_fail_the_campaign(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        assert main([
            "scan", "--range", SPEC, "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--fault-schedule", self._host_schedule(tmp_path),
        ]) == 1
        assert "campaign failed" in capsys.readouterr().err

    def test_retry_budget_implies_supervision(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "scan", "--range", SPEC, "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--fault-schedule", self._host_schedule(tmp_path),
            "--retry-budget", "0",
        ]) == 0
        err = capsys.readouterr().err
        assert "retry-budget-exhausted" in err

    def test_overlapping_domains_merge_cleanly(self, tmp_path, capsys):
        import json

        from repro.cli import main

        network = tmp_path / "net-faults.json"
        network.write_text(json.dumps({
            "seed": 3,
            "events": [{"kind": "loss-burst", "rate": 0.5,
                        "start": 0.0, "end": 0.001}],
        }))
        assert main([
            "scan", "--range", SPEC, "--shards", "2",
            "--fault-schedule", str(network),
            "--fault-schedule", self._host_schedule(
                tmp_path, path_filter="no-such-file"),
            "--supervise",
        ]) == 0
        err = capsys.readouterr().err
        assert "2 event(s) (1 host, 1 network)" in err

    def test_overlapping_windows_across_files_exit_two(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        schedule = self._host_schedule(tmp_path)
        assert main([
            "scan", "--range", SPEC,
            "--fault-schedule", schedule, "--fault-schedule", schedule,
        ]) == 2
        err = capsys.readouterr().err
        assert "--fault-schedule files conflict" in err
        assert "overlapping" in err
