"""The campaign queue as a write-ahead journal over a snapshot: the
properties the journal must not cost, and the two bugs it fixes.

* a generated **state machine** over ``CampaignQueue`` — every transition,
  compaction, crash-and-reload and torn-tail reload — against a plain
  model: no lost or duplicated campaign, reloaded state equals the model
  after the last acknowledged transition, no id is ever issued twice,
  admission bounds hold, and the derived indexes equal a recount;
* **write-ahead**: a durability op failing at any point of any transition
  leaves memory, and what a fresh queue loads from the same directory,
  exactly as before it; over HTTP the client gets a JSON 503;
* **WDRR in closed form**: the accrual loop the queue used to run, inlined
  as the oracle, gives the identical lease order, rounds and deficits; a
  lease over three /36-64 heads no longer holds the lock for seconds;
* **work bound**: with thousands of terminal records loaded, a transition
  serialises one record and appends a few hundred bytes.

The journal's load rules and the framing's own properties are in
``tests/test_crash_kit.py``; the every-op SIGKILL walk is
``tests/test_service.py::TestServiceKillAnywhere``.
"""

import copy
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.faults import (
    FS_ERROR,
    FS_TORN_WRITE,
    FaultEvent,
    FaultSchedule,
    HostFaultInjector,
)
from repro.service import (
    AdmissionError,
    CampaignQueue,
    CampaignSpec,
    QueueError,
    ScanService,
    ServiceClient,
    ServiceServer,
    TenantPolicy,
)
from repro.service import queue as queue_module
from repro.service.api import ApiError
from repro.service.queue import CampaignRecord, _visit_key
from repro.store.oslayer import set_default_os, write_document
from repro.telemetry.metrics import MetricsRegistry

TENANTS = ("alice", "bob", "carol")
#: (window, probes): what admission charges.
WINDOWS = (("2001:db8:0::/61-64", 8), ("2001:db8:1:50::/60-64", 16))
PRIORITIES = ("interactive", "normal", "batch")


def view(queue):
    """A queue's whole durable state, in comparable form (the snapshot's
    generation aside, which ``save`` adds: every load starts a new one)."""
    payload = queue._payload()
    payload["records"] = {r["campaign_id"]: r for r in payload["records"]}
    return payload


def recovered(state):
    """``view`` of the queue a restart finds: leases held by the dead
    daemon requeue for a resume (or cancel, if that was asked for)."""
    state = copy.deepcopy(state)
    for record in state["records"].values():
        if record["state"] == "leased":
            record["lease_seq"] = None
            if record["cancel_requested"]:
                record["state"] = "cancelled"
            else:
                record["state"], record["resume"] = "queued", True
    return state


def reload_copy(queue, tmp_path):
    """A fresh queue over a *copy* of the directory (loading compacts, and
    two queues must never share one journal)."""
    copy = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copytree(queue.state_path.parent, copy / "q")
    return CampaignQueue(str(copy / "q" / queue.state_path.name))


# -- (a) the state machine -------------------------------------------------------


class QueueMachine(RuleBasedStateMachine):
    """``self.model``: id -> {tenant, seq, budget, state, attempts, resume,
    cancel}.  ``self.before``: the model as it stood before the last
    journal append, with that record's extent in the file."""

    POLICY = TenantPolicy(max_queued=3, max_in_flight=2, probe_budget=40)

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="queue-machine-"))
        self.path = self.dir / "queue.json"
        # Compaction in the middle of short traces, not only at 64 KiB.
        self.compact_min = queue_module.COMPACT_MIN_BYTES
        queue_module.COMPACT_MIN_BYTES = 1000
        self.queue = self.open()
        self.model = {}
        self.issued = 0
        self.before = None

    def teardown(self):
        queue_module.COMPACT_MIN_BYTES = self.compact_min
        self.queue.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def open(self):
        return CampaignQueue(str(self.path), default_policy=self.POLICY,
                             scope="m", seed=5, quantum=16.0)

    # -- model helpers -----------------------------------------------------

    def in_model(self, tenant, *states):
        return [m for m in self.model.values()
                if m["tenant"] == tenant and m["state"] in states]

    def transition(self, call):
        """Run one transition, noting the model before it and the journal
        record it appended (if it appended to a published journal)."""
        journal = self.queue._journal
        start = (journal.length if journal is not None
                 and journal.handle is not None else None)
        snapshot = {cid: dict(m) for cid, m in self.model.items()}
        generation = self.queue._generation
        result = call()
        if start is None or self.queue._generation != generation:
            self.before = None  # a snapshot or a new file: nothing to tear
        elif self.queue._journal.length > start:
            # (A lease with nothing eligible appends nothing.)
            self.before = (snapshot, self.issued, start,
                           self.queue._journal.length)
        return result

    def some(self, data, *states):
        ids = sorted(cid for cid, m in self.model.items()
                     if m["state"] in states)
        return data.draw(st.sampled_from(ids)) if ids else None

    # -- rules -------------------------------------------------------------

    @rule(tenant=st.sampled_from(TENANTS), window=st.sampled_from(WINDOWS),
          priority=st.sampled_from(PRIORITIES))
    def submit(self, tenant, window, priority):
        scan_range, budget = window
        spec = CampaignSpec(tenant=tenant, name=f"c{self.issued}",
                            scan_range=scan_range, priority=priority)
        outstanding = sum(
            m["budget"] for m in self.in_model(tenant, "queued", "leased")
        )
        if (len(self.in_model(tenant, "queued")) >= self.POLICY.max_queued
                or outstanding + budget > self.POLICY.probe_budget):
            snapshot = view(self.queue)
            with pytest.raises(AdmissionError):
                self.queue.submit(spec)
            assert view(self.queue) == snapshot
            return
        record = self.transition(lambda: self.queue.submit(spec))
        # The allocator never re-issues an id, whatever happened before.
        assert record.campaign_id == f"m-{self.issued:04d}"
        assert record.campaign_id not in self.model
        self.model[record.campaign_id] = {
            "tenant": tenant, "seq": record.submit_seq, "budget": budget,
            "state": "queued", "attempts": 0, "resume": False,
            "cancel": False,
        }
        self.issued += 1

    @rule()
    def next_lease(self):
        in_flight = {t: len(self.in_model(t, "leased")) for t in TENANTS}
        eligible = [
            t for t in TENANTS
            if self.in_model(t, "queued")
            and in_flight[t] < self.POLICY.max_in_flight
        ]
        record = self.transition(lambda: self.queue.next_lease(in_flight))
        if not eligible:
            assert record is None
            return
        # Someone is always leased, and always their tenant's head of line.
        assert record is not None and record.tenant in eligible
        entry = self.model[record.campaign_id]
        assert entry["seq"] == min(
            m["seq"] for m in self.in_model(record.tenant, "queued")
        )
        entry["state"] = "leased"
        entry["attempts"] += 1

    @rule(data=st.data(), how=st.sampled_from(("complete", "fail")))
    def finish(self, data, how):
        cid = self.some(data, "leased")
        if cid is None:
            return
        if how == "complete":
            self.transition(lambda: self.queue.complete(cid, {"sent": 8}))
            self.model[cid]["state"] = "done"
        else:
            self.transition(lambda: self.queue.fail(cid, "boom"))
            self.model[cid]["state"] = "failed"

    @rule(data=st.data())
    def requeue(self, data):
        cid = self.some(data, "leased")
        if cid is None:
            return
        self.transition(lambda: self.queue.requeue(cid))
        entry = self.model[cid]
        if entry["cancel"]:
            entry["state"] = "cancelled"
        else:
            entry["state"], entry["resume"] = "queued", True

    @rule(data=st.data())
    def cancel(self, data):
        cid = self.some(data, *queue_module.STATES)
        if cid is None:
            return
        entry = self.model[cid]
        if entry["state"] == "queued":
            self.transition(lambda: self.queue.cancel(cid))
            entry["state"] = "cancelled"
        elif entry["state"] == "leased":
            self.transition(lambda: self.queue.cancel(cid))
            entry["cancel"] = True
        else:
            with pytest.raises(QueueError):
                self.queue.cancel(cid)


    def restart(self):
        self.queue.close()  # (a dead process holds no descriptors)
        self.queue = self.open()
        self.before = None
        requeued = []
        for cid, entry in sorted(self.model.items()):
            if entry["state"] == "leased":
                if entry["cancel"]:
                    entry["state"] = "cancelled"
                else:
                    entry["state"], entry["resume"] = "queued", True
                    requeued.append(cid)
        assert self.queue.recovered_leases == requeued

    @rule(crash=st.booleans())
    def save_or_crash_and_reload(self, crash):
        """An explicit compaction; or the process dies between transitions
        and everything acknowledged is found again.  (One rule, so that
        runs of transitions get long enough for the journal to outgrow
        the snapshot on its own.)"""
        if crash:
            self.restart()
        else:
            self.queue.save()
            self.before = None

    @precondition(lambda self: self.before is not None)
    @rule(data=st.data())
    def crash_inside_the_last_append(self, data):
        """The process dies inside a journal append: the file ends in a
        torn record, its caller was never answered, and the state is the
        one before that transition."""
        self.model, self.issued, start, end = self.before
        cut = data.draw(st.integers(start, end - 1), label="cut")
        with open(self.queue.journal_path, "r+b") as handle:
            handle.truncate(cut)
        self.restart()

    # -- invariants --------------------------------------------------------

    @invariant()
    def the_queue_is_the_model(self):
        queue = self.queue
        assert {
            cid: (r.tenant, r.submit_seq, r.state, r.attempts, r.resume,
                  r.cancel_requested)
            for cid, r in queue.records.items()
        } == {
            cid: (m["tenant"], m["seq"], m["state"], m["attempts"],
                  m["resume"], m["cancel"])
            for cid, m in self.model.items()
        }
        assert queue.allocator.allocated == self.issued
        assert queue._submit_seq == self.issued

    @invariant()
    def bounds_and_indexes_hold(self):
        queue = self.queue
        for tenant in TENANTS:
            queued = self.in_model(tenant, "queued")
            live = self.in_model(tenant, "queued", "leased")
            # The cap is on admission: leases coming back (requeue, crash
            # recovery) were admitted already and are never refused.
            assert len(queued) <= (
                self.POLICY.max_queued + self.POLICY.max_in_flight
            )
            assert queue.outstanding_probes(tenant) == sum(
                m["budget"] for m in live
            ) <= self.POLICY.probe_budget
            # The per-tenant FIFO is what a recount of the history says.
            assert queue._queued.get(tenant, []) == [
                r for r in queue.in_state("queued") if r.tenant == tenant
            ]
        assert queue.depth == len(queue.in_state("queued"))
        assert all(d >= 0 for d in queue._deficit.values())


QueueMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=50, deadline=None
)
TestQueueMachine = QueueMachine.TestCase


def test_the_backlog_cap_is_on_admission_not_on_returning_leases(tmp_path):
    """The trace the machine found while its bound still read
    ``queued <= max_queued``: a lease coming back is work the tenant was
    admitted for, so ``requeue`` never refuses it and the backlog may
    stand ``max_in_flight`` above the cap — which then refuses the next
    *submission* (``AdmissionError``, HTTP 429 at the API)."""
    queue = CampaignQueue(
        str(tmp_path / "queue.json"), default_policy=QueueMachine.POLICY,
        scope="m", seed=5, quantum=16.0,
    )
    try:
        queue.submit(_spec("alice", "c0"))
        assert queue.next_lease().campaign_id == "m-0000"
        for name in ("c1", "c2", "c3"):
            queue.submit(_spec("alice", name))  # 3 queued: at the cap
        assert queue.requeue("m-0000").state == "queued"
        assert len(queue.in_state("queued")) == 4
        with pytest.raises(AdmissionError, match="backlog full"):
            queue.submit(_spec("alice", "c4"))
    finally:
        queue.close()


# -- write-ahead: a failed durable write changes nothing ---------------------------


def _spec(tenant, name, scan_range=WINDOWS[0][0], **kw):
    return CampaignSpec(tenant=tenant, name=name, scan_range=scan_range, **kw)


class _Faulty:
    """Builds its subject over an ``OsLayer`` on which ``event`` strikes the
    queue's files (``path``) while ``failing`` is on."""

    def __init__(self, build, event, path="queue."):
        self.clock = 0.0
        self.injector = HostFaultInjector(
            FaultSchedule(events=tuple(
                FaultEvent(start=start, end=start + 1.0, path=path, **event)
                for start in (1.0, 3.0, 5.0)
            )),
            clock=lambda: self.clock,
        )
        previous = set_default_os(self.layer())
        try:
            self.subject = build()
        finally:
            set_default_os(previous)

    def layer(self):
        return self.injector.os_layer()

    def failing(self, on):
        # The virtual clock only runs forward: into the next window, or
        # out of this one.
        self.clock = int(self.clock) + (1.5 if on else 1.0)


def _faulty_queue(tmp_path, event):
    faulty = _Faulty(
        lambda: CampaignQueue(str(tmp_path / "q" / "queue.json"), scope="x"),
        event,
    )
    return faulty, faulty.subject


#: name -> (set-up leaving the queue ready for it, the transition).
TRANSITIONS = {
    "submit": (lambda q: None, lambda q: q.submit(_spec("bob", "b0"))),
    "lease": (lambda q: None, lambda q: q.next_lease()),
    "complete": (lambda q: q.next_lease(),
                 lambda q: q.complete("x-0000", {"sent": 8})),
    "fail": (lambda q: q.next_lease(), lambda q: q.fail("x-0000", "boom")),
    "requeue": (lambda q: q.next_lease(), lambda q: q.requeue("x-0000")),
    "cancel-queued": (lambda q: None, lambda q: q.cancel("x-0001")),
    "cancel-leased": (lambda q: q.next_lease(),
                      lambda q: q.cancel("x-0000")),
}
WRITE = dict(kind=FS_ERROR, op="write", err="ENOSPC")
TORN = dict(kind=FS_TORN_WRITE, offset=7)
FSYNC = dict(kind=FS_ERROR, op="fsync", err="EIO")
RENAME = dict(kind=FS_ERROR, op="rename", err="EIO")


class TestWriteAhead:
    @pytest.mark.parametrize("transition", sorted(TRANSITIONS))
    @pytest.mark.parametrize("event,first_of_generation", [
        (WRITE, False), (TORN, False), (FSYNC, False),
        (WRITE, True), (TORN, True), (FSYNC, True), (RENAME, True),
    ], ids=["write", "torn-write", "fsync", "first-write",
            "first-torn-write", "first-fsync", "first-rename"])
    def test_a_failed_op_leaves_memory_and_disk_as_they_were(
        self, tmp_path, transition, event, first_of_generation
    ):
        prepare, act = TRANSITIONS[transition]
        faulty, queue = _faulty_queue(tmp_path, event)
        queue.submit(_spec("alice", "a0"))
        queue.submit(_spec("alice", "a1"))
        prepare(queue)
        if first_of_generation:
            queue.save()  # the next append must create the journal file
        before = view(queue)
        generation = queue._generation
        faulty.failing(True)
        with pytest.raises(OSError):
            act(queue)
        # Memory: untouched — nothing to lease that was refused, no burnt
        # id, no moved deficit.  Disk: a restart loads that same state.
        assert view(queue) == before
        assert view(reload_copy(queue, tmp_path)) == recovered(before)

        # The failure poisoned the journal handle, not the queue: the same
        # transition now succeeds, durably, under a new generation.
        faulty.failing(False)
        act(queue)
        assert view(queue) != before
        assert queue._generation == generation + 1
        assert view(reload_copy(queue, tmp_path)) == recovered(view(queue))

    @pytest.mark.parametrize("event", [WRITE, FSYNC, RENAME],
                             ids=["write", "fsync", "rename"])
    def test_a_failed_submit_on_a_fresh_root_leaves_no_phantom(
        self, tmp_path, event
    ):
        # On the parent: submit raised, yet depth was 1 and the next
        # next_lease() leased x-0000 — a campaign whose submitter was told
        # it failed, and which a retrying client then got twice.
        faulty, queue = _faulty_queue(tmp_path, event)
        faulty.failing(True)
        with pytest.raises(OSError):
            queue.submit(_spec("alice", "a0"))
        assert queue.depth == 0 and queue.records == {}
        assert queue.next_lease() is None
        assert queue.outstanding_probes("alice") == 0
        faulty.failing(False)
        assert queue.submit(_spec("alice", "a0")).campaign_id == "x-0000"
        assert queue.next_lease().campaign_id == "x-0000"
        assert queue.next_lease() is None

    def test_a_lost_directory_fsync_is_counted_not_fatal(self, tmp_path):
        class DirectoryOnly(_Faulty):
            def layer(self):
                layer = super().layer()
                layer.fsync = layer.base.fsync  # file fsyncs succeed
                return layer

        metrics = MetricsRegistry()
        faulty = DirectoryOnly(
            lambda: CampaignQueue(str(tmp_path / "q" / "queue.json"),
                                  scope="x", metrics=metrics),
            FSYNC, path=str(tmp_path / "q"),
        )
        queue = faulty.subject
        faulty.failing(True)
        queue.submit(_spec("alice", "a0"))  # snapshot + first append
        assert metrics.counter("service_queue_fsync_failures").value == 2
        assert view(reload_copy(queue, tmp_path))["records"].keys() == \
            {"x-0000"}

    def test_over_http_a_failed_write_is_a_json_503(self, tmp_path):
        # On the parent do_POST had no OSError arm: the handler thread
        # died and the client saw a dropped connection.
        faulty = _Faulty(
            lambda: ScanService(str(tmp_path / "svc"), max_workers=1,
                                scope="api"),
            dict(kind=FS_ERROR, op="fsync", err="ENOSPC"),
        )
        service = faulty.subject
        server = ServiceServer(service).start()
        try:
            client = ServiceClient(server.address)
            body = _spec("alice", "a0", WINDOWS[1][0], seed=3).to_dict()
            faulty.failing(True)
            with pytest.raises(ApiError) as refused:
                client.submit(body)
            assert refused.value.status == 503
            assert "ENOSPC" in str(refused.value)
            assert service.queue.depth == 0
            assert service.queue.next_lease() is None
            assert client.list_campaigns() == []
            faulty.failing(False)
            assert client.submit(body)["campaign_id"] == "api-0000"
            faulty.failing(True)
            with pytest.raises(ApiError) as refused:
                client.cancel("api-0000")
            assert refused.value.status == 503
            assert client.status("api-0000")["state"] == "queued"
            faulty.failing(False)
            service.run_until_idle()
            assert client.status("api-0000")["state"] == "done"
        finally:
            server.stop()

    def test_a_lease_sees_a_cancel_through_the_object_it_holds(
        self, tmp_path
    ):
        # ``_apply`` updates the live record in place: the daemon's worker
        # polls ``record.cancel_requested`` on the object next_lease() gave
        # it, and the scheduler's ActiveLease holds the same one.
        queue = CampaignQueue(str(tmp_path / "queue.json"), scope="x")
        submitted = queue.submit(_spec("alice", "a0"))
        leased = queue.next_lease()
        assert leased is submitted is queue.get("x-0000")
        assert leased.state == "leased" and not leased.cancel_requested
        queue.cancel("x-0000")
        assert leased.cancel_requested
        assert queue.requeue("x-0000") is leased
        assert leased.state == "cancelled"


def test_concurrent_transitions_lose_nothing(tmp_path, monkeypatch):
    """Handler threads submit and cancel while the scheduler thread leases
    and completes — more threads than cores, a short switch interval, and
    compactions in the middle: every acknowledged transition is in memory
    and on disk, once."""
    monkeypatch.setattr(queue_module, "COMPACT_MIN_BYTES", 4096)
    queue = CampaignQueue(
        str(tmp_path / "q" / "queue.json"), scope="s",
        default_policy=TenantPolicy(max_queued=1000, max_in_flight=1000),
    )
    per_thread, acknowledged, errors = 30, {}, []
    stop = threading.Event()

    def client(tenant):
        try:
            for i in range(per_thread):
                record = queue.submit(_spec(tenant, f"{tenant}-{i}"))
                acknowledged[record.campaign_id] = (tenant, f"{tenant}-{i}")
                if i % 5 == 4:
                    try:
                        queue.cancel(record.campaign_id)
                    except QueueError:  # already done: the scheduler won
                        pass
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    def scheduler():
        try:
            while not stop.is_set() or queue.depth:
                record = queue.next_lease()
                if record is None:
                    time.sleep(0.001)
                else:
                    queue.complete(record.campaign_id, {"sent": 8})
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=client, args=(t,))
                   for t in TENANTS + ("dave",)]
        worker = threading.Thread(target=scheduler)
        for thread in threads + [worker]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not worker.is_alive()
    assert not any(thread.is_alive() for thread in threads)

    assert len(acknowledged) == 4 * per_thread == len(queue.records)
    assert {cid: (r.tenant, r.spec.name)
            for cid, r in queue.records.items()} == acknowledged
    assert queue._generation > 1  # it compacted along the way
    states = [r.state for r in queue.records.values()]
    assert set(states) <= {"done", "cancelled"}
    # A cancel that found its campaign leased only flags it; the complete
    # that follows wins.  Every fifth was at least asked to stop.
    assert states.count("cancelled") <= 4 * per_thread // 5
    assert queue.depth == 0
    assert all(queue.outstanding_probes(t) == 0
               for t in TENANTS + ("dave",))
    assert view(reload_copy(queue, tmp_path)) == view(queue)


# -- WDRR accrual in closed form ---------------------------------------------------


def _old_lease_order(seed, quantum, weights, submissions):
    """The accrual loop ``next_lease`` ran before this change, one round
    at a time, over plain per-tenant FIFOs: the lease order, and the round
    and deficits after each lease."""
    fifos = {}
    for tenant, name, cost in submissions:
        fifos.setdefault(tenant, []).append((name, cost))
    round_no, deficit, trace = 0, {}, []
    while any(fifos.values()):
        eligible = {t: fifo for t, fifo in fifos.items() if fifo}
        for tenant in list(deficit):
            if tenant not in eligible:
                del deficit[tenant]
        leased = None
        while leased is None:
            order = sorted(
                eligible, key=lambda t: (_visit_key(seed, round_no, t), t)
            )
            for tenant in order:
                name, cost = eligible[tenant][0]
                if deficit.get(tenant, 0.0) >= cost:
                    deficit[tenant] -= cost
                    leased = eligible[tenant].pop(0)[0]
                    break
            else:
                round_no += 1
                for tenant in eligible:
                    deficit[tenant] = (
                        deficit.get(tenant, 0.0) + quantum * weights[tenant]
                    )
        trace.append((leased, round_no, dict(deficit)))
    return trace


#: Windows from 8 probes to 65,536: up to thousands of accrual rounds.
ORACLE_WINDOWS = ("2001:db8:0::/61-64", "2001:db8:1::/56-64",
                  "2001:db8::/52-64", "2001:db8::/48-64")


class TestAccrualInClosedForm:
    @given(
        seed=st.integers(0, 2**16),
        quantum=st.sampled_from((1.0, 16.0, 100.0, 4096.0)),
        weights=st.fixed_dictionaries(
            {t: st.sampled_from((1.0, 2.0, 3.0, 8.0)) for t in TENANTS}
        ),
        trace=st.lists(
            st.tuples(st.sampled_from(TENANTS),
                      st.sampled_from(ORACLE_WINDOWS),
                      st.sampled_from(PRIORITIES)),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_lease_order_rounds_and_deficits_match_the_old_loop(
        self, tmp_path_factory, seed, quantum, weights, trace
    ):
        queue = CampaignQueue(
            str(tmp_path_factory.mktemp("wdrr") / "queue.json"),
            policies={t: TenantPolicy(weight=w, max_queued=64)
                      for t, w in weights.items()},
            seed=seed, scope="o", quantum=quantum,
        )
        submissions = []
        for i, (tenant, window, priority) in enumerate(trace):
            record = queue.submit(_spec(tenant, f"c{i}", window,
                                        priority=priority))
            submissions.append(
                (tenant, record.spec.name, record.spec.effective_cost)
            )
        got = []
        while True:
            record = queue.next_lease()
            if record is None:
                break
            got.append((record.spec.name, queue._round,
                        dict(queue._deficit)))
            queue.complete(record.campaign_id, {})
        assert got == _old_lease_order(seed, quantum, weights, submissions)

    def test_three_slash_36_heads_lease_in_milliseconds(self, tmp_path):
        # 2**28 probes each at the default quantum: 65,536 accrual rounds,
        # which the old loop walked one sort at a time — 2 s under the
        # queue lock, with every submit, status and cancel waiting.
        queue = CampaignQueue(str(tmp_path / "queue.json"), scope="big")
        for tenant in TENANTS:
            queue.submit(_spec(tenant, "sweep", "2001:db8::/36-64"))
        started = time.perf_counter()
        record = queue.next_lease()
        elapsed = time.perf_counter() - started
        assert elapsed < 0.05, f"one lease took {elapsed:.3f}s"
        assert queue._round == 2**28 // 4096
        assert record.tenant == sorted(
            TENANTS, key=lambda t: (_visit_key(0, queue._round, t), t)
        )[0]
        assert queue._deficit == {
            t: 0.0 if t == record.tenant else float(2**28) for t in TENANTS
        }


# -- work bound: O(live), not O(history) -------------------------------------------


def test_a_transition_costs_what_it_changes_not_what_the_queue_holds(
    tmp_path, monkeypatch
):
    history = 2000
    seedling = CampaignQueue(str(tmp_path / "seed" / "queue.json"),
                             scope="h")
    seedling.submit(_spec("alice", "old"))
    seedling.complete(seedling.next_lease().campaign_id,
                      {"sent": 8, "validated": 3, "snapshot": "round-x"})
    payload = seedling._payload()
    done = payload["records"][0]
    payload.update(
        records=[{**done, "campaign_id": f"h-{i:04d}", "submit_seq": i}
                 for i in range(history)],
        allocated=history, submit_seq=history, lease_seq=history,
        generation=1,
    )
    path = tmp_path / "q" / "queue.json"
    path.parent.mkdir()
    write_document(seedling.os, path, payload)
    queue = CampaignQueue(str(path))
    assert len(queue.records) == history and queue.depth == 0
    queue.submit(_spec("alice", "warm"))  # creates this generation's journal
    journal = queue.journal_path.stat().st_size

    counts = {"to_dict": 0, "in_state": 0}

    def counting(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(CampaignRecord, "to_dict")
    counting(CampaignQueue, "in_state")
    snapshot = path.read_bytes()
    queue.submit(_spec("bob", "b0"))
    leased = queue.next_lease()
    assert leased.campaign_id == f"h-{history:04d}"  # alice's, submitted first
    queue.complete(leased.campaign_id, done["result"])
    assert counts == {"to_dict": 3, "in_state": 0}
    assert queue.journal_path.stat().st_size - journal < 4096
    assert path.read_bytes() == snapshot  # no rewrite of the history
    assert queue.depth == 1 and queue.outstanding_probes("bob") == 8
