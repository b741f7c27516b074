"""The scan service: admission, WDRR fairness, drain, crash recovery, API.

The three satellite properties from the issue get dedicated classes:

* **Determinism** — the same submission trace replays to the identical
  lease order (fresh queue, and across a mid-trace save/load).
* **Fairness** — a low-priority tenant under sustained interactive
  pressure from another tenant provably keeps making progress.
* **Kill-anywhere** — a daemon SIGKILLed between lease transitions (real
  ``kill -9`` via ``python -m repro.faults.killtest daemon`` subprocesses)
  restarts with no lost and no duplicated campaigns, converging to
  stores digest-identical to an uninterrupted run.

Plus the acceptance demo: three tenants × four campaigns through the
daemon concurrently, per-tenant stores bit-identical to running the same
specs standalone, and a mid-run drain that requeues leases a restarted
daemon finishes.
"""

import http.client
import json
import os
import random
import socket
import threading
import time

import pytest

from repro.engine.campaign import Campaign, CampaignAborted
from repro.service import (
    AdmissionError,
    CampaignQueue,
    CampaignSpec,
    QueueError,
    ScanService,
    ServiceClient,
    ServiceServer,
    SpecError,
    TenantPolicy,
)
from repro.service import api as api_module
from repro.service.api import ApiError
from repro.store import ResultStore
from repro.telemetry.events import CampaignIdAllocator, EventLog

from tests import crashkit

#: SIGKILL points for the daemon kill-anywhere class: a seeded sample of
#: this many, or ``all`` to walk every durability op of the workload.
SERVICE_KILL_POINTS = os.environ.get("REPRO_SERVICE_KILL_POINTS", "4")

#: Windows the mini topology answers, so stores are non-trivial.
RESPONSIVE = [
    "2001:db8:1:40::/58-64",
    "2001:db8:0::/61-64",
    "2001:db8:1:50::/60-64",
    "2001:db8:1:60::/60-64",
    "2001:db8:2::/61-64",
    "2001:db8:1::/59-64",
]


def spec(tenant, name, rng="2001:db8:0::/61-64", **kw):
    return CampaignSpec(tenant=tenant, name=name, scan_range=rng, **kw)


def store_rows(store_dir):
    store = ResultStore(store_dir)
    return sorted(
        (str(r.target), str(r.responder), r.kind.value)
        for r in store.iter_rows()
    )


# ---------------------------------------------------------------------------


class TestCampaignSpec:
    def test_round_trip(self):
        s = spec("alice", "a0", "2001:db8:1::/56-64", priority="batch",
                 shards=4, seed=9, topology_params=(("seed", 2),))
        assert CampaignSpec.from_dict(s.to_dict()) == s
        assert CampaignSpec.from_dict(
            json.loads(json.dumps(s.to_dict()))
        ) == s

    def test_rejects_bad_submissions(self):
        with pytest.raises(SpecError):
            spec("alice", "x", "not-a-range")
        with pytest.raises(SpecError):
            spec("alice", "x", priority="urgent")
        with pytest.raises(SpecError):
            spec("", "x")
        with pytest.raises(SpecError):
            spec("../escape", "x")
        with pytest.raises(SpecError):
            TenantPolicy(weight=0)

    def test_priority_scales_effective_cost(self):
        interactive = spec("a", "i", "2001:db8::/58-64",
                           priority="interactive")
        batch = spec("a", "b", "2001:db8::/58-64", priority="batch")
        normal = spec("a", "n", "2001:db8::/58-64")
        assert normal.probe_budget == 64
        assert interactive.effective_cost == normal.effective_cost / 4
        assert batch.effective_cost == normal.effective_cost * 4

    def test_max_probes_caps_budget(self):
        assert spec("a", "m", "2001:db8::/56-64",
                    max_probes=10).probe_budget == 10

    def test_range_is_parsed_once_and_stays_out_of_the_spec(self, monkeypatch):
        import copy
        import pickle
        from dataclasses import replace

        from repro.core.target import ScanRange

        parses = []
        parse = ScanRange.parse.__func__
        monkeypatch.setattr(
            ScanRange, "parse",
            classmethod(lambda cls, text: parses.append(text) or parse(cls, text)),
        )
        s = spec("alice", "a0", "2001:db8::/58-64", priority="batch")
        for _ in range(5):
            assert s.probe_budget == 64 and s.effective_cost == 256
            assert s.scan_config().scan_range is s.parsed_range()
        assert parses == ["2001:db8::/58-64"]
        # The spec's value, hash, repr and wire form are its fields alone.
        twin = CampaignSpec.from_dict(json.loads(json.dumps(s.to_dict())))
        assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
        assert "parsed" not in repr(s) and "parsed" not in json.dumps(s.to_dict())
        assert set(s.to_dict()) == {
            "tenant", "name", "scan_range", "topology", "topology_params",
            "seed", "shards", "executor", "priority", "rate_pps",
            "max_probes", "checkpoint_every",
        }
        # Every way a spec is copied carries (or rebuilds) the parsed range.
        wider = replace(s, scan_range="2001:db8::/56-64")
        assert wider.probe_budget == 256 and s.probe_budget == 64
        for clone in (copy.copy(s), copy.deepcopy(s),
                      pickle.loads(pickle.dumps(s))):
            assert clone == s and clone.probe_budget == 64
        with pytest.raises(SpecError, match="bad scan range 'nope': "):
            replace(s, scan_range="nope")


class TestAdmission:
    def test_backlog_cap(self, tmp_path):
        q = CampaignQueue(
            str(tmp_path / "q.json"),
            default_policy=TenantPolicy(max_queued=2),
        )
        q.submit(spec("alice", "a0"))
        q.submit(spec("alice", "a1"))
        with pytest.raises(AdmissionError):
            q.submit(spec("alice", "a2"))
        # Other tenants are unaffected.
        q.submit(spec("bob", "b0"))

    def test_probe_budget_quota(self, tmp_path):
        q = CampaignQueue(
            str(tmp_path / "q.json"),
            default_policy=TenantPolicy(probe_budget=20),
        )
        q.submit(spec("alice", "a0"))  # 8 probes outstanding
        q.submit(spec("alice", "a1"))  # 16 outstanding
        with pytest.raises(AdmissionError):
            q.submit(spec("alice", "a2"))  # would be 24 > 20
        record = q.next_lease()
        q.complete(record.campaign_id, {})
        # Completion releases the budget.
        q.submit(spec("alice", "a2"))

    def test_cancel_states(self, tmp_path):
        q = CampaignQueue(str(tmp_path / "q.json"))
        a = q.submit(spec("alice", "a0"))
        assert q.cancel(a.campaign_id).state == "cancelled"
        b = q.submit(spec("alice", "b0"))
        leased = q.next_lease()
        assert leased.campaign_id == b.campaign_id
        assert q.cancel(b.campaign_id).cancel_requested
        # An aborted lease whose cancel landed mid-run ends terminal.
        assert q.requeue(b.campaign_id).state == "cancelled"
        with pytest.raises(QueueError):
            q.cancel(a.campaign_id)


class TestSchedulerDeterminism:
    def submit_trace(self, q):
        for i in range(3):
            q.submit(spec("alice", f"a{i}", RESPONSIVE[0],
                          priority="interactive"))
            q.submit(spec("bob", f"b{i}", RESPONSIVE[1]))
            q.submit(spec("carol", f"c{i}", RESPONSIVE[2],
                          priority="batch"))

    def drain_order(self, q):
        order = []
        while True:
            record = q.next_lease()
            if record is None:
                break
            order.append(f"{record.tenant}/{record.spec.name}")
            q.complete(record.campaign_id, {})
        return order

    def drive(self, path, seed=3):
        """One fixed submission trace; returns the full lease order."""
        q = CampaignQueue(str(path), seed=seed, scope="det")
        self.submit_trace(q)
        return self.drain_order(q)

    def test_same_trace_same_lease_order(self, tmp_path):
        first = self.drive(tmp_path / "q1.json")
        second = self.drive(tmp_path / "q2.json")
        assert first == second
        assert len(first) == 9

    def test_seed_changes_the_tiebreaks(self, tmp_path):
        assert self.drive(tmp_path / "q1.json", seed=3) != self.drive(
            tmp_path / "q2.json", seed=4
        )

    def test_replay_survives_save_load(self, tmp_path):
        """Restarting the queue mid-trace continues the same order."""
        full = self.drive(tmp_path / "ref.json")
        path = tmp_path / "q.json"
        q = CampaignQueue(str(path), seed=3, scope="det")
        self.submit_trace(q)
        order = []
        for _ in range(4):
            record = q.next_lease()
            order.append(f"{record.tenant}/{record.spec.name}")
            q.complete(record.campaign_id, {})
        # Reload from disk: records, deficits, and the round come back.
        q2 = CampaignQueue(str(path))
        order.extend(self.drain_order(q2))
        assert order == full


class TestFairness:
    def test_starved_batch_tenant_progresses(self, tmp_path):
        """A batch tenant keeps leasing under sustained interactive load.

        ``big`` floods interactive campaigns (re-submitting after every
        lease so its backlog never empties); ``small`` queues batch work
        at 16x the effective cost.  WDRR accrues deficit to both every
        round, so small must keep appearing in the lease order.
        """
        q = CampaignQueue(
            str(tmp_path / "q.json"), seed=11, scope="fair", quantum=64.0,
            default_policy=TenantPolicy(max_in_flight=4, max_queued=64),
        )
        for i in range(8):
            q.submit(spec("small", f"s{i}", "2001:db8::/60-64",
                          priority="batch"))  # cost 16 / 0.25 = 64
        flood = 0
        for _ in range(4):
            q.submit(spec("big", f"f{flood}", "2001:db8::/60-64",
                          priority="interactive"))  # cost 16 / 4 = 4
            flood += 1
        leases = []
        for _ in range(60):
            record = q.next_lease()
            assert record is not None
            leases.append(record.tenant)
            q.complete(record.campaign_id, {})
            if record.tenant == "big":
                q.submit(spec("big", f"f{flood}", "2001:db8::/60-64",
                              priority="interactive"))
                flood += 1
        small = leases.count("small")
        assert small >= 3, f"batch tenant starved: {leases}"
        # The interactive flood still dominates, as priced: big pays 4
        # deficit per lease against small's 64.
        assert leases.count("big") > small

    def test_weights_shift_the_share(self, tmp_path):
        q = CampaignQueue(
            str(tmp_path / "q.json"), seed=2, scope="w", quantum=16.0,
            policies={"heavy": TenantPolicy(weight=4.0, max_queued=128),
                      "light": TenantPolicy(weight=1.0, max_queued=128)},
        )
        for i in range(40):
            q.submit(spec("heavy", f"h{i}", "2001:db8::/60-64"))
            q.submit(spec("light", f"l{i}", "2001:db8::/60-64"))
        leases = []
        for _ in range(30):
            record = q.next_lease()
            leases.append(record.tenant)
            q.complete(record.campaign_id, {})
        assert leases.count("heavy") >= 2 * leases.count("light")


class TestQueuePersistence:
    def test_leased_records_requeue_on_load(self, tmp_path):
        path = tmp_path / "q.json"
        q = CampaignQueue(str(path), scope="p")
        q.submit(spec("alice", "a0"))
        q.submit(spec("alice", "a1"))
        leased = q.next_lease()
        q2 = CampaignQueue(str(path))
        record = q2.get(leased.campaign_id)
        assert record.state == "queued"
        assert record.resume is True
        assert record.attempts == 1
        assert q2.recovered_leases == [leased.campaign_id]
        # Nothing lost, nothing duplicated, ids stay aligned.
        assert len(q2.records) == 2
        assert q2.allocator.allocated == 2
        assert q2.allocator.scope == "p"

    def test_cancel_requested_lease_cancels_on_load(self, tmp_path):
        path = tmp_path / "q.json"
        q = CampaignQueue(str(path), scope="p")
        a = q.submit(spec("alice", "a0"))
        q.next_lease()
        q.cancel(a.campaign_id)
        q2 = CampaignQueue(str(path))
        assert q2.get(a.campaign_id).state == "cancelled"
        assert q2.recovered_leases == []

    def test_corrupt_state_refuses_loudly(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("{not json")
        with pytest.raises(QueueError):
            CampaignQueue(str(path))


class TestCampaignIdAllocator:
    def test_monotonic_and_scoped(self):
        alloc = CampaignIdAllocator(scope="svc")
        ids = [alloc.next() for _ in range(3)]
        assert ids == ["svc-0000", "svc-0001", "svc-0002"]
        assert alloc.allocated == 3
        alloc.reserve(10)
        assert alloc.next() == "svc-0010"

    def test_distinct_scopes_never_collide(self):
        a, b = CampaignIdAllocator(), CampaignIdAllocator()
        assert a.scope != b.scope
        assert {a.next() for _ in range(4)}.isdisjoint(
            {b.next() for _ in range(4)}
        )


class TestEventLogTenantLabels:
    def test_labels_stamp_every_record(self):
        log = EventLog(campaign_id="c0", labels={"tenant": "alice"})
        log.emit("x")
        log.ingest([{"type": "worker_event", "t": 0.1, "seq": 0}])
        assert all(e["tenant"] == "alice" for e in log.events)

    def test_ingest_preserves_existing_tenant(self):
        log = EventLog(campaign_id="c0", labels={"tenant": "alice"})
        log.ingest([{"type": "worker_event", "tenant": "bob"}])
        assert log.events[-1]["tenant"] == "bob"

    def test_explicit_field_wins(self):
        log = EventLog(labels={"tenant": "alice"})
        record = log.emit("x", tenant="carol")
        assert record["tenant"] == "carol"


class TestCampaignAbort:
    def test_request_abort_before_run_commits_nothing(self, tmp_path):
        s = spec("t", "x", RESPONSIVE[2])
        campaign = Campaign(
            s.topology_spec(), {"x": s.scan_config()}, shards=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            store_dir=str(tmp_path / "store"), snapshot="r0",
            backoff_base=0.0,
        )
        campaign.request_abort()
        with pytest.raises(CampaignAborted):
            campaign.run()
        assert ResultStore(str(tmp_path / "store")).snapshots == {}

    def test_abort_at_boundary_then_resume_bitidentical(self, tmp_path):
        s = spec("t", "x", RESPONSIVE[0])

        def build(resume, abort_check=None):
            return Campaign(
                s.topology_spec(), {"x": s.scan_config()}, shards=4,
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_every=8,
                store_dir=str(tmp_path / "store"), snapshot="r0",
                resume=resume, backoff_base=0.0,
                abort_check=abort_check,
            )

        # The check runs at the top of the wave and before each serial
        # batch: tripping on the third call aborts after exactly one of
        # the four shards ran.
        calls = []

        def abort_after_one_shard():
            calls.append(1)
            return len(calls) > 2

        aborted = build(False, abort_check=abort_after_one_shard)
        with pytest.raises(CampaignAborted):
            aborted.run()
        # Nothing committed, but checkpoints persist for the resume.
        assert ResultStore(str(tmp_path / "store")).snapshots == {}
        result = build(True).run()
        assert result.shards_from_checkpoint >= 1
        assert result.snapshot == "r0"
        # Baseline: the same spec uninterrupted in a fresh directory.
        Campaign(
            s.topology_spec(), {"x": s.scan_config()}, shards=4,
            store_dir=str(tmp_path / "base"), snapshot="r0",
            backoff_base=0.0,
        ).run()
        assert store_rows(str(tmp_path / "store")) == store_rows(
            str(tmp_path / "base")
        )


WORK = [
    ("alice", "a0", RESPONSIVE[0], 3, "interactive"),
    ("alice", "a1", RESPONSIVE[3], 4, "normal"),
    ("alice", "a2", RESPONSIVE[1], 5, "normal"),
    ("alice", "a3", RESPONSIVE[4], 6, "batch"),
    ("bob", "b0", RESPONSIVE[1], 7, "normal"),
    ("bob", "b1", RESPONSIVE[2], 8, "interactive"),
    ("bob", "b2", RESPONSIVE[4], 9, "batch"),
    ("bob", "b3", RESPONSIVE[3], 10, "normal"),
    ("carol", "c0", RESPONSIVE[2], 11, "batch"),
    ("carol", "c1", RESPONSIVE[4], 12, "normal"),
    ("carol", "c2", RESPONSIVE[1], 13, "interactive"),
    ("carol", "c3", RESPONSIVE[5], 14, "normal"),
]


def submit_work(service):
    for tenant, name, rng, seed, priority in WORK:
        service.submit(CampaignSpec(
            tenant=tenant, name=name, scan_range=rng, seed=seed,
            priority=priority, shards=2,
        ))


def standalone_rows(tmp_path, service):
    """Each done campaign re-run standalone (same snapshot name) into a
    fresh per-tenant store; returns tenant -> sorted rows."""
    for record in service.queue.in_state("done"):
        s = record.spec
        Campaign(
            s.topology_spec(), {s.name: s.scan_config()}, shards=s.shards,
            checkpoint_dir=str(
                tmp_path / "solo" / s.tenant / "ckpt" / record.campaign_id
            ),
            store_dir=str(tmp_path / "solo" / s.tenant / "store"),
            snapshot=record.snapshot, backoff_base=0.0,
        ).run()
    return {
        tenant: store_rows(str(tmp_path / "solo" / tenant / "store"))
        for tenant in {w[0] for w in WORK}
    }


class TestServiceEndToEnd:
    def test_three_tenants_twelve_campaigns_bitidentical(self, tmp_path):
        """The acceptance demo: ≥3 tenants × ≥4 campaigns concurrently;
        per-tenant stores bit-identical to standalone runs."""
        service = ScanService(
            str(tmp_path / "svc"), max_workers=3, seed=1, scope="e2e",
            default_policy=TenantPolicy(max_in_flight=2),
        )
        submit_work(service)
        service.run_until_idle()
        records = service.queue.in_state("done")
        assert len(records) == len(WORK)
        solo = standalone_rows(tmp_path, service)
        for tenant, expected in solo.items():
            got = store_rows(service.stores.store_dir(tenant))
            assert got == expected, f"tenant {tenant} diverged"
            assert len(got) == len(set(got))  # no duplicated rows
        # Snapshot membership matches the campaign set per tenant.
        for tenant in solo:
            store = ResultStore(service.stores.store_dir(tenant))
            assert set(store.snapshots) == {
                r.snapshot for r in records if r.tenant == tenant
            }
        # Service metrics saw every lease and first result.
        status = service.service_status()
        assert status["states"] == {"done": len(WORK)}
        assert set(status["ttfr_seconds"]) == set(solo)
        for summary in status["ttfr_seconds"].values():
            assert summary["count"] >= 4
            assert summary["p99"] >= summary["p50"] > 0

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_max_probes_caps_the_campaign_not_each_shard(
        self, tmp_path, shards
    ):
        """Admission charges ``min(count, max_probes)``; the shards together
        must send exactly that, however many of them there are."""
        service = ScanService(str(tmp_path / "svc"), max_workers=1,
                              scope="cap")
        campaign = spec("alice", "capped", "2001:db8:1::/56-64",
                        max_probes=100, shards=shards)
        record = service.submit(campaign)
        assert campaign.probe_budget == 100
        service.run_until_idle()
        done = service.queue.get(record["campaign_id"])
        assert done.state == "done"
        assert done.result["sent"] == campaign.probe_budget

    def test_retention_drops_old_rounds(self, tmp_path):
        service = ScanService(
            str(tmp_path / "svc"), max_workers=1, scope="ret",
            default_policy=TenantPolicy(
                max_in_flight=1, retain_snapshots=2
            ),
        )
        for i, rng in enumerate(RESPONSIVE[:4]):
            service.submit(spec("alice", f"a{i}", rng, seed=i))
        service.run_until_idle()
        store = ResultStore(service.stores.store_dir("alice"))
        # Only the newest two rounds survive retention.
        assert sorted(store.snapshots) == [
            "round-ret-0002", "round-ret-0003"
        ]


class TestServiceDrain:
    def test_drain_requeues_and_restart_finishes(self, tmp_path):
        root = str(tmp_path / "svc")
        service = ScanService(
            root, max_workers=2, seed=5, scope="dr",
            default_policy=TenantPolicy(max_in_flight=2),
        )
        submit_work(service)
        drained = threading.Event()

        def drain_soon(event):
            # After the first lease completes, ask for a drain: remaining
            # leases abort at their next shard boundary and requeue.
            if event.get("type") == "service_lease_done" and (
                not drained.is_set()
            ):
                drained.set()
                service.request_drain()

        service.events.subscribe(drain_soon)
        service.run_until_idle()
        assert service.draining
        states = {r.state for r in service.queue.records.values()}
        assert "leased" not in states  # every lease settled or requeued
        assert "failed" not in states
        remaining = service.queue.in_state("queued")
        assert service.queue.in_state("done"), "drain beat every lease"
        assert remaining, "drain left nothing to requeue"
        assert all(r.resume for r in remaining if r.attempts)

        # A successor daemon on the same root finishes the backlog.
        successor = ScanService(
            root, max_workers=2, seed=5,
            default_policy=TenantPolicy(max_in_flight=2),
        )
        successor.run_until_idle()
        assert len(successor.queue.in_state("done")) == len(WORK)
        solo = standalone_rows(tmp_path, successor)
        for tenant, expected in solo.items():
            assert store_rows(
                successor.stores.store_dir(tenant)
            ) == expected


class TestHttpApi:
    def test_api_round_trip(self, tmp_path):
        service = ScanService(str(tmp_path / "svc"), max_workers=1,
                              scope="api")
        server = ServiceServer(service).start()
        try:
            client = ServiceClient(server.address)
            record = client.submit(
                spec("alice", "a0", RESPONSIVE[2], seed=3).to_dict()
            )
            assert record["state"] == "queued"
            assert record["campaign_id"] == "api-0000"
            assert client.status("api-0000")["state"] == "queued"
            with pytest.raises(ApiError) as bad:
                client.submit({"tenant": "alice"})
            assert bad.value.status == 400
            with pytest.raises(ApiError) as missing:
                client.status("nope-0000")
            assert missing.value.status == 404
            with pytest.raises(ApiError) as early:
                client.results("api-0000")
            assert early.value.status == 404
            service.run_until_idle()
            assert client.status("api-0000")["state"] == "done"
            rows = client.results("api-0000", limit=5)
            assert rows and len(rows) <= 5
            assert {"target", "responder", "kind"} <= set(rows[0])
            summary = client.service_status()
            assert summary["states"] == {"done": 1}
            listing = client.list_campaigns(tenant="alice")
            assert [c["campaign_id"] for c in listing] == ["api-0000"]
        finally:
            server.stop()

    def test_admission_maps_to_429_and_drain_to_503(self, tmp_path):
        service = ScanService(
            str(tmp_path / "svc"), scope="api2",
            default_policy=TenantPolicy(max_queued=1),
        )
        server = ServiceServer(service).start()
        try:
            client = ServiceClient(server.address)
            client.submit(spec("alice", "a0").to_dict())
            with pytest.raises(ApiError) as full:
                client.submit(spec("alice", "a1").to_dict())
            assert full.value.status == 429
            service.request_drain()
            with pytest.raises(ApiError) as draining:
                client.submit(spec("bob", "b0").to_dict())
            assert draining.value.status == 503
        finally:
            server.stop()

    @pytest.mark.parametrize("field,value", [
        ("seed", None), ("seed", "7"), ("seed", 1.5), ("seed", True),
        ("shards", [2]), ("shards", 0), ("shards", "2"),
        ("max_probes", -5), ("max_probes", 0), ("max_probes", "9"),
        ("rate_pps", 0), ("rate_pps", -1.0), ("rate_pps", "fast"),
        ("rate_pps", None), ("rate_pps", float("nan")),
        ("checkpoint_every", -1), ("checkpoint_every", {}),
        ("checkpoint_every", None),
    ])
    def test_hostile_numbers_are_a_400_and_queue_nothing(
        self, tmp_path, field, value
    ):
        service = ScanService(str(tmp_path / "svc"), scope="num")
        server = ServiceServer(service).start()
        try:
            client = ServiceClient(server.address)
            body = spec("alice", "a0").to_dict()
            body[field] = value
            with pytest.raises(ApiError) as bad:
                client.submit(body)
            assert bad.value.status == 400
            assert field in str(bad.value)
            assert client.list_campaigns() == []
            assert client.service_status()["states"] == {}
            assert service.queue.outstanding_probes("alice") == 0
            # The handler thread survived: the next request is served.
            assert client.submit(spec("alice", "a1").to_dict())["state"] == (
                "queued"
            )
        finally:
            server.stop()

    def test_results_limit_zero_is_empty_and_bad_limits_are_400(
        self, tmp_path, monkeypatch
    ):
        service = ScanService(str(tmp_path / "svc"), max_workers=1,
                              scope="lim")
        service.submit(spec("alice", "a0", RESPONSIVE[2], seed=3))
        service.run_until_idle()
        server = ServiceServer(service).start()
        try:
            client = ServiceClient(server.address)
            full = client.results("lim-0000")
            assert len(full) > 2
            assert client.results("lim-0000", limit=0) == []
            assert client.results("lim-0000", limit=2) == full[:2]
            opened = []
            monkeypatch.setattr(
                service.stores, "open",
                lambda tenant: opened.append(tenant),
            )
            for bad_limit in (-1, -5, "abc", "1.5"):
                with pytest.raises(ApiError) as bad:
                    client.results("lim-0000", limit=bad_limit)
                assert bad.value.status == 400
            assert opened == []  # refused before anything was read
            monkeypatch.undo()
            assert client.results("lim-0000") == full
        finally:
            server.stop()

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        """A server holding one finished campaign, ``fin-0000``."""
        service = ScanService(str(tmp_path_factory.mktemp("svc")),
                              max_workers=1, scope="fin")
        service.submit(spec("alice", "a0", RESPONSIVE[2], seed=3))
        service.run_until_idle()
        server = ServiceServer(service).start()
        yield server
        server.stop()

    @pytest.mark.parametrize("query", [
        "limit=5_0",        # int() reads 50
        "limit=+3",         # parse_qs reads " 3"
        "limit=%2B3",       # a literal sign
        "limit=%207%20",    # surrounding spaces
        "limit=%EF%BC%91",  # a fullwidth 1
        "limit=",           # empty
    ])
    def test_a_limit_that_is_not_plain_ascii_digits_is_400(
        self, finished, query
    ):
        client = ServiceClient(finished.address)
        status, _, body = client._exchange(
            "GET", f"/v1/campaigns/fin-0000/results?{query}", None
        )
        assert status == 400
        assert "limit" in json.loads(body)["error"]
        assert client.results("fin-0000", limit=0) == []
        assert len(client.results("fin-0000", limit=1)) == 1

    def test_dropped_round_is_410_and_the_daemon_keeps_serving(
        self, tmp_path
    ):
        service = ScanService(
            str(tmp_path / "svc"), max_workers=1, scope="gone",
            default_policy=TenantPolicy(max_in_flight=1, retain_snapshots=1),
        )
        server = ServiceServer(service).start()
        try:
            client = ServiceClient(server.address)
            client.submit(spec("alice", "a0", RESPONSIVE[2], seed=3).to_dict())
            service.run_until_idle()
            first = client.results("gone-0000")  # the handle is now cached
            assert first
            client.submit(spec("alice", "a1", RESPONSIVE[0], seed=4).to_dict())
            service.run_until_idle()  # retention drops round gone-0000
            with pytest.raises(ApiError) as gone:
                client.results("gone-0000")
            assert gone.value.status == 410
            assert "retain_snapshots=1" in str(gone.value)
            assert client.results("gone-0001")
            assert client.status("gone-0000")["state"] == "done"
        finally:
            server.stop()

    def test_corrupt_segment_is_a_500_then_the_survivors_are_served(
        self, tmp_path
    ):
        service = ScanService(str(tmp_path / "svc"), max_workers=1,
                              scope="bad")
        service.submit(spec("alice", "a0", RESPONSIVE[2], seed=3, shards=2))
        service.run_until_idle()
        server = ServiceServer(service).start()
        try:
            client = ServiceClient(server.address)
            full = client.results("bad-0000")  # the handle is now cached
            store = service.stores.open("alice")
            victim, survivor = store.snapshot("round-bad-0000").segments
            assert store.reader(victim).rows and store.reader(survivor).rows
            path = store.segment_path(victim)
            data = bytearray(path.read_bytes())
            data[20] ^= 0x01  # same size: only the block CRC can tell
            path.write_bytes(bytes(data))
            with pytest.raises(ApiError) as corrupt:
                client.results("bad-0000")
            assert corrupt.value.status == 500
            assert "quarantined" in str(corrupt.value)
            assert victim in str(corrupt.value)
            # The stamp moved with the quarantine: the next request reloads
            # and serves what survived, the one after that is warm again.
            rest = client.results("bad-0000")
            assert rest == full[store.reader(victim).rows:]
            assert client.results("bad-0000", limit=1) == rest[:1]
            assert ResultStore(
                service.stores.store_dir("alice")
            ).quarantined == [victim]
        finally:
            server.stop()

    def test_stop_does_not_wait_out_a_long_poll(self, tmp_path):
        service = ScanService(str(tmp_path / "svc"), scope="stop")
        for _ in range(3):
            server = ServiceServer(service).start()
            started = time.perf_counter()
            server.stop()
            # serve_forever's stdlib default poll is 0.5 s; ours is 50 ms.
            assert time.perf_counter() - started < 0.25
            server = None


    # -- keep-alive and hostile bodies ---------------------------------------

    @staticmethod
    def _raw(server):
        """A raw socket to the server, for requests the client won't send."""
        host, port = server.httpd.server_address[:2]
        return socket.create_connection((host, port), timeout=10)

    @staticmethod
    def _response(sock):
        """(status, headers, body) of one response read off ``sock``."""
        reader = sock.makefile("rb")
        status = int(reader.readline().split()[1])
        headers = {}
        while (line := reader.readline().strip()):
            name, _, value = line.decode().partition(":")
            headers[name.lower()] = value.strip()
        body = reader.read(int(headers["content-length"]))
        reader.close()
        return status, headers, body

    def test_stop_cuts_idle_keepalive_connections_promptly(self, tmp_path):
        service = ScanService(str(tmp_path / "svc"), scope="idle")
        server = ServiceServer(service).start()
        client = ServiceClient(server.address)
        assert client.service_status()["states"] == {}  # a connection held
        stopper = threading.Thread(target=server.stop)
        started = time.perf_counter()
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert time.perf_counter() - started < 2
        # A stopped server answers nothing: the kept connection is seen to
        # be closed, and a fresh one is refused.
        with pytest.raises(OSError):
            client.service_status()

    def test_a_body_is_consumed_before_routing(self, tmp_path):
        service = ScanService(str(tmp_path / "svc"), scope="sync")
        cid = service.submit(spec("alice", "a0"))["campaign_id"]
        server = ServiceServer(service).start()
        try:
            connection = http.client.HTTPConnection(
                *server.httpd.server_address[:2], timeout=10
            )
            body = json.dumps({"padding": "x" * 5000}).encode()
            for method, path, status in (
                ("POST", "/v1/nowhere", 404),
                ("POST", f"/v1/campaigns/{cid}/cancel", 200),
                ("POST", "/v1/campaigns", 400),
            ):
                connection.request(method, path, body=body)
                response = connection.getresponse()
                assert response.status == status
                response.read()
                sock = connection.sock
                connection.request("GET", f"/v1/campaigns/{cid}")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["campaign_id"] == cid
                assert connection.sock is sock  # one connection throughout
            connection.close()
        finally:
            server.stop()

    def test_client_reconnects_when_the_server_closed_its_connection(
        self, tmp_path, monkeypatch
    ):
        service = ScanService(str(tmp_path / "svc"), scope="poll")
        server = ServiceServer(service).start()
        server.httpd.RequestHandlerClass.timeout = 0.2
        accepted = []
        process = server.httpd.process_request
        monkeypatch.setattr(
            server.httpd, "process_request",
            lambda request, address: (accepted.append(address),
                                      process(request, address)),
        )
        try:
            client = ServiceClient(server.address)
            assert client.service_status()["states"] == {}
            time.sleep(0.6)  # the server times the idle connection out
            # The poll sees it closed: both verbs go out on a fresh one.
            assert client.service_status()["states"] == {}
            time.sleep(0.6)
            assert client.submit(spec("alice", "a0").to_dict())["state"] == (
                "queued"
            )
            assert len(accepted) == 3
            # Blind the poll: a GET on the dead connection is retried once
            # on a fresh one ...
            monkeypatch.setattr(api_module, "_dropped", lambda sock: False)
            time.sleep(0.6)
            assert client.status("poll-0000")["state"] == "queued"
            assert len(accepted) == 4
            # ... a POST whose bytes went out is not sent again.
            time.sleep(0.6)
            with pytest.raises(ConnectionError):
                client.submit(spec("alice", "a1").to_dict())
            assert len(accepted) == 4
            assert service.queue.depth == 1
        finally:
            server.stop()

    def test_threads_share_a_client_with_a_connection_each(self, tmp_path):
        service = ScanService(str(tmp_path / "svc"), scope="par")
        server = ServiceServer(service).start()
        accepted = []
        process = server.httpd.process_request
        server.httpd.process_request = (
            lambda request, address: (accepted.append(address),
                                      process(request, address))
        )
        try:
            client = ServiceClient(server.address)
            ids = []

            def submit(k):
                for i in range(3):
                    ids.append(client.submit(
                        spec(f"t{k}", f"c{i}").to_dict()
                    )["campaign_id"])

            threads = [threading.Thread(target=submit, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(ids) == len(set(ids)) == 12
            assert len(accepted) == 4
        finally:
            server.stop()

    def test_an_oversized_body_is_a_413_and_the_connection_closes(
        self, tmp_path
    ):
        service = ScanService(str(tmp_path / "svc"), scope="big")
        server = ServiceServer(service).start()
        try:
            with self._raw(server) as sock:
                sock.sendall(
                    b"POST /v1/campaigns HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n{" % (2 << 20)
                )
                status, headers, body = self._response(sock)
                assert status == 413
                assert headers["connection"] == "close"
                assert "limit" in json.loads(body)["error"]
                assert sock.recv(1) == b""
            client = ServiceClient(server.address)
            assert client.submit(spec("alice", "a0").to_dict())["state"] == (
                "queued"
            )
            assert service.queue.depth == 1
        finally:
            server.stop()

    @staticmethod
    def _refused_once(server, request):
        """Send ``request`` with a submit pipelined behind it; the server
        must answer exactly once, with a JSON error, then close — and the
        pipelined submit must never run."""
        submit = json.dumps(spec("alice", "late").to_dict()).encode()
        pipelined = (
            b"POST /v1/campaigns HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(submit), submit)
        )
        with TestHttpApi._raw(server) as sock:
            sock.sendall(request + pipelined)
            reader = sock.makefile("rb")
            status = int(reader.readline().split()[1])
            headers = {}
            while (line := reader.readline().strip()):
                name, _, value = line.decode().partition(":")
                headers[name.lower()] = value.strip()
            body = reader.read(int(headers["content-length"]))
            rest = reader.read()  # to EOF: the server closed
            reader.close()
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert rest == b""  # one response, nothing after it
        return status, json.loads(body)["error"]

    @pytest.mark.parametrize("declared", [b"1_0", b"+10", b" 10 ", b"0x10"])
    def test_a_content_length_of_anything_but_digits_is_400(
        self, tmp_path, declared
    ):
        service = ScanService(str(tmp_path / "svc"), scope="clen")
        server = ServiceServer(service).start()
        try:
            status, error = self._refused_once(server, (
                b"POST /v1/campaigns HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length:%s\r\n\r\n{\"tenant\": 1}" % declared
            ))
            assert status == 400
            assert "Content-Length" in error
            assert service.queue.depth == 0
        finally:
            server.stop()

    def test_a_chunked_body_is_501_before_routing(self, tmp_path):
        service = ScanService(str(tmp_path / "svc"), scope="chunk")
        server = ServiceServer(service).start()
        try:
            body = json.dumps(spec("alice", "a0").to_dict()).encode()
            status, error = self._refused_once(server, (
                b"POST /v1/campaigns HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
            ))
            assert status == 501
            assert "Transfer-Encoding" in error
            assert service.queue.depth == 0
        finally:
            server.stop()

    @pytest.mark.parametrize("path", [b"/v1/status", b"/v1/nowhere"])
    def test_an_http09_request_is_a_505_with_a_status_line(
        self, tmp_path, path
    ):
        service = ScanService(str(tmp_path / "svc"), scope="h09")
        server = ServiceServer(service).start()
        try:
            status, error = self._refused_once(
                server, b"GET " + path + b"\r\n\r\n"
            )
            assert status == 505
            assert "HTTP/0.9" in error
            assert service.queue.depth == 0
        finally:
            server.stop()

    @pytest.mark.parametrize("request_line,status", [
        (b"PUT /v1/campaigns HTTP/1.1", 501),
        (b"DELETE /v1/campaigns/x-0000 HTTP/1.1", 501),
        (b"garbage", 400),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1", 414),
    ])
    def test_errors_the_stdlib_raises_are_json_too(
        self, tmp_path, request_line, status
    ):
        service = ScanService(str(tmp_path / "svc"), scope="std")
        server = ServiceServer(service).start()
        try:
            got, error = self._refused_once(
                server,
                request_line + b"\r\nHost: x\r\nContent-Length: 2\r\n"
                b"\r\n{}",
            )
            assert got == status
            assert error
            assert service.queue.depth == 0
        finally:
            server.stop()

    def test_stalled_and_idle_connections_time_out_without_blocking(
        self, tmp_path
    ):
        service = ScanService(str(tmp_path / "svc"), scope="slow")
        server = ServiceServer(service).start()
        handler = server.httpd.RequestHandlerClass
        assert handler.timeout == api_module.HANDLER_TIMEOUT_S
        handler.timeout = 0.5  # the constant's behaviour, without the wait
        try:
            with self._raw(server) as stalled, self._raw(server) as idle:
                stalled.sendall(
                    b"POST /v1/campaigns HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 100\r\n\r\n{\"tenant\""
                )
                # Both pin a handler thread; other clients are served.
                client = ServiceClient(server.address)
                assert client.submit(spec("alice", "a0").to_dict())[
                    "state"] == "queued"
                assert client.service_status()["states"] == {"queued": 1}
                started = time.perf_counter()
                assert stalled.recv(1) == b""  # closed, nothing answered
                assert idle.recv(1) == b""
                assert time.perf_counter() - started < 5
            assert service.queue.depth == 1  # the stalled submit never ran
        finally:
            server.stop()


class TestServiceKillAnywhere:
    """Real SIGKILLs between lease transitions; queue state must recover
    with no lost or duplicated campaigns and digest-identical stores."""

    def test_op_census_is_unchanged(self, tmp_path):
        """The fixed workload's durability-op count: a queue snapshot, a
        journal append, a checkpoint or a commit more or fewer moves it.

        184 = 214 (every one of the 18 transitions and the exit a
        four-op rewrite of ``queue.json``) - 19 x 4 + 2 snapshots x 4
        (the fresh root's and the exit's) + the generation's first
        append x 4 + 17 appends x 2."""
        assert crashkit.baseline("daemon", tmp_path)["ops"] == 184

    def test_sigkill_at_seeded_ops_recovers_identical_state(self, tmp_path):
        want = crashkit.baseline("daemon", tmp_path / "base")
        total_ops = want["ops"]
        assert total_ops > 50
        assert set(want["states"].values()) == {"done"}
        if SERVICE_KILL_POINTS == "all":
            points = list(range(1, total_ops + 1))
        else:
            points = sorted(random.Random(20260807).sample(
                range(2, total_ops), int(SERVICE_KILL_POINTS)
            ))
        for point in points:
            statuses, report = crashkit.kill_and_recover(
                "daemon", tmp_path / f"kill-{point}", point
            )
            assert statuses[0] != 0, f"op {point}: expected a SIGKILL death"
            assert report["states"] == want["states"], f"op {point}"
            crashkit.assert_same_stores(report, want, f"op {point}")
