"""The crash-safety kit's two on-disk protocols — the durable document
(:func:`repro.store.oslayer.write_document` / ``read_document``) and the
chained record log (:mod:`repro.store.framing`) — and what their owners —
the store manifest, the checkpoint head and campaign manifest, the daemon's
queue snapshot and journal — do with a damaged file.

* a property test of the document protocol itself: round trip, any single
  flipped byte, any truncation, a writer dying at each of its three
  operations;
* property tests of the framing: round trip of generated payload lists,
  every cut a torn tail, every flipped byte classified tail-or-interior,
  and the writer's op sequence;
* the owners' declared reactions, generated over every truncation length of
  a small fixture and a few hand-picked flips (``QueueError``;
  ``StoreCorruption`` + ``manifest.json.corrupt``; one ``checkpoint_corrupt``
  event) — never another exception type, never a partly loaded object;
* the queue journal's load rules (torn tail dropped; interior damage, bad
  header, newer generation, no snapshot refused; older generation ignored
  and removed);
* state written by the previous commit's writers (inlined below) still
  opens, resumes and verifies.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange
from repro.engine import Campaign, CheckpointStore, WorkerInterrupted
from repro.engine.checkpoint import DONE, PARTIAL
from repro.faults import (
    FS_CRASH,
    FS_ERROR,
    FS_TORN_WRITE,
    FaultEvent,
    FaultSchedule,
    HostFaultInjector,
    SimulatedCrash,
)
from repro.net.spec import TopologySpec
from repro.service import CampaignQueue, CampaignSpec, QueueError
from repro.service import queue as queue_module
from repro.store import ResultStore, StoreCorruption
from repro.store.framing import (
    ChainedLog,
    FrameCorrupt,
    chain_start,
    frame,
    replay,
)
from repro.store.oslayer import (
    DocumentCorrupt,
    RealOs,
    parse_document,
    read_document,
    write_document,
)

from tests import crashkit

SPEC = "2001:db8:1::/56-64"

_scalars = (
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12)
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
#: Documents: string-keyed JSON objects, non-ASCII and floats included.
PAYLOADS = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key != "checksum"),
    _values, max_size=5,
)


def _canonical(document):
    return json.dumps(document, sort_keys=True)


class _Recording(RealOs):
    """The real layer, noting each op and the file name it touched."""

    def __init__(self):
        self.ops = []

    def write(self, handle, data):
        self.ops.append(("write", len(data)))
        super().write(handle, data)

    def fsync(self, handle):
        self.ops.append(("fsync",))
        super().fsync(handle)

    def replace(self, src, dst):
        self.ops.append(("replace", dst.name))
        super().replace(src, dst)

    def fsync_dir(self, path):
        self.ops.append(("fsync_dir",))
        super().fsync_dir(path)


class TestDocumentProtocol:
    @given(payload=PAYLOADS)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        write_document(RealOs(), path, payload)
        document = read_document(path)
        assert document.pop("checksum")
        assert _canonical(document) == _canonical(payload)
        assert os.listdir(path.parent) == ["doc.json"]  # the tmp is gone

    @given(payload=PAYLOADS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_flipped_byte_or_a_truncation_never_loads_differently(
        self, tmp_path_factory, payload, data
    ):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        write_document(RealOs(), path, payload)
        raw = path.read_bytes()
        want = _canonical(parse_document(raw))
        position = data.draw(st.integers(0, len(raw) - 1))
        flipped = bytearray(raw)
        flipped[position] ^= data.draw(st.integers(1, 255))
        try:
            got = parse_document(bytes(flipped))
        except DocumentCorrupt as exc:
            assert exc.reason in ("truncated-or-invalid-json",
                                  "not-a-json-object", "checksum-mismatch")
        else:
            # The flip landed where JSON does not care (whitespace, the case
            # of an escape's hex digit): the document is the one written.
            assert _canonical(got) == want
        with pytest.raises(DocumentCorrupt):
            parse_document(raw[:position])

    def test_the_three_reasons(self):
        for raw, reason in (
            (b'{"a": 1', "truncated-or-invalid-json"),
            (b'{"a": "\xff"}', "truncated-or-invalid-json"),
            (b'[1, 2]', "not-a-json-object"),
            (b'{"a": 1}', "checksum-mismatch"),  # lost its checksum
            (b'{"a": 1, "checksum": "00"}', "checksum-mismatch"),
        ):
            with pytest.raises(DocumentCorrupt) as caught:
                parse_document(raw)
            assert caught.value.reason == reason

    @pytest.mark.parametrize("event,dies_with,survivor", [
        (dict(kind=FS_ERROR, op="write", err="ENOSPC"), OSError, "old"),
        (dict(kind=FS_TORN_WRITE, offset=9), OSError, "old"),
        (dict(kind=FS_ERROR, op="fsync", err="EIO"), OSError, "old"),
        (dict(kind=FS_ERROR, op="rename", err="EIO"), OSError, "old"),
        (dict(kind=FS_CRASH, op="before-rename"), SimulatedCrash, "old"),
        (dict(kind=FS_CRASH, op="after-rename"), SimulatedCrash, "new"),
    ])
    def test_a_writer_that_dies_leaves_a_whole_document(
        self, tmp_path, event, dies_with, survivor
    ):
        path = tmp_path / "doc.json"
        write_document(RealOs(), path, {"generation": "old"})
        injector = HostFaultInjector(
            FaultSchedule(events=(FaultEvent(start=0.0, end=1.0, **event),)),
            clock=lambda: 0.5,
        )
        with pytest.raises(dies_with):
            write_document(injector.os_layer(), path, {"generation": "new"})
        assert read_document(path)["generation"] == survivor
        # At most the dead writer's tmp is left beside the document.
        litter = [n for n in os.listdir(tmp_path) if n != "doc.json"]
        assert all(n.startswith("doc.json.") and n.endswith(".tmp")
                   for n in litter)
        assert len(litter) <= 1

    def test_exactly_write_fsync_replace(self, tmp_path):
        layer = _Recording()
        path = tmp_path / "doc.json"
        write_document(layer, path, {"rows": list(range(500))})
        assert layer.ops == [("write", path.stat().st_size), ("fsync",),
                             ("replace", "doc.json")]


HEADER = b"TEST\x01\x00\x00\x00"
PAYLOAD_LISTS = st.lists(st.binary(max_size=24), min_size=1, max_size=5)


def _framed(payloads, header=HEADER):
    """A log of ``payloads`` under ``header``: its bytes, the offset just
    past each record, and the chain digest at the end."""
    data, chain, ends = header, chain_start(header), []
    for payload in payloads:
        record, chain = frame(chain, payload)
        data += record
        ends.append(len(data))
    return data, ends, chain


class TestFramingProtocol:
    @given(payloads=st.lists(st.binary(max_size=40), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, payloads):
        data, ends, chain = _framed(payloads)
        assert replay(data, HEADER) == (payloads, len(data), chain)
        # Record sizes: two u32 lengths, the payload, a SHA-256.
        assert [hi - lo for lo, hi in zip([len(HEADER)] + ends, ends)] == \
            [8 + len(p) + 32 for p in payloads]

    @given(payloads=PAYLOAD_LISTS)
    @settings(max_examples=60, deadline=None)
    def test_every_cut_is_a_torn_tail(self, payloads):
        data, ends, _ = _framed(payloads)
        for cut in range(len(HEADER), len(data)):
            whole = sum(end <= cut for end in ends)
            got, good, chain = replay(data[:cut], HEADER)
            assert got == payloads[:whole]
            assert good == ([len(HEADER)] + ends)[whole]
            # The chain returned continues the surviving prefix.
            assert chain == _framed(payloads[:whole])[2]

    @given(payloads=PAYLOAD_LISTS, flip=st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_every_flip_is_classified_tail_or_interior(self, payloads, flip):
        data, ends, _ = _framed(payloads)
        last = ([len(HEADER)] + ends)[-2]  # where the last record starts
        for position in range(len(HEADER), len(data)):
            damaged = bytearray(data)
            damaged[position] ^= flip
            if position >= last + 8:
                # Payload or digest of the last record: indistinguishable
                # from a write torn inside it — dropped, nothing else lost.
                got, good, _ = replay(bytes(damaged), HEADER)
                assert (got, good) == (payloads[:-1], last)
            else:
                # Any earlier record, or a length that disagrees with its
                # complement (no torn write leaves that): corruption.
                with pytest.raises(FrameCorrupt, match="checksum-mismatch"):
                    replay(bytes(damaged), HEADER)

    def test_the_header_seeds_the_chain(self):
        data, _, _ = _framed([b"one", b"two"])
        other = b"TEST\x02\x00\x00\x00"
        with pytest.raises(FrameCorrupt):
            replay(other + data[len(HEADER):], other)

    def test_first_append_publishes_later_ones_write_and_fsync(
        self, tmp_path
    ):
        layer = _Recording()
        path = tmp_path / "x.log"
        log = ChainedLog(layer, path, HEADER, chain_start(HEADER))
        assert not path.exists()  # nothing on disk before the first record
        log.append(b"one")
        first = len(HEADER) + 8 + 3 + 32
        assert layer.ops == [("write", first), ("fsync",),
                             ("replace", "x.log")]
        assert os.listdir(tmp_path) == ["x.log"]
        assert "x.log" in log.handle.name  # what the OsLayer shims match on
        del layer.ops[:]
        log.append(b"three")
        assert layer.ops == [("write", 8 + 5 + 32), ("fsync",)]
        assert replay(path.read_bytes(), HEADER) == (
            [b"one", b"three"], log.length, log.chain
        )
        log.close()

    @pytest.mark.parametrize("event", [
        dict(kind=FS_ERROR, op="write", err="ENOSPC"),
        dict(kind=FS_TORN_WRITE, offset=5),
        dict(kind=FS_ERROR, op="fsync", err="EIO"),
    ])
    def test_a_failed_append_is_at_most_a_torn_tail(self, tmp_path, event):
        clock = [0.0]
        injector = HostFaultInjector(
            FaultSchedule(events=(FaultEvent(start=1.0, end=2.0, **event),)),
            clock=lambda: clock[0],
        )
        path = tmp_path / "x.log"
        log = ChainedLog(injector.os_layer(), path, HEADER,
                         chain_start(HEADER))
        log.append(b"kept")
        acknowledged = (log.length, log.chain)
        clock[0] = 1.5
        with pytest.raises(OSError):
            log.append(b"lost-or-unacknowledged")
        assert (log.length, log.chain) == acknowledged
        log.close()
        payloads, good, chain = replay(path.read_bytes(), HEADER)
        # An fsync that failed after a whole write leaves a whole record:
        # unacknowledged, and the owner's to deal with.
        assert payloads[0] == b"kept" and len(payloads) <= 2
        if len(payloads) == 1:
            assert (good, chain) == acknowledged


# -- the owners -----------------------------------------------------------------


def _spec(name):
    return CampaignSpec(tenant="alice", name=name,
                        scan_range="2001:db8:0::/61-64")


def _journaled_queue(tmp_path):
    """Two submissions on a fresh root: an empty snapshot and a journal of
    two records."""
    path = tmp_path / "queue.json"
    queue = CampaignQueue(str(path), scope="x")
    queue.submit(_spec("a0"))
    queue.submit(_spec("a1"))
    return queue


def _saved_queue(tmp_path):
    """The same two submissions, compacted: everything in ``queue.json``."""
    queue = _journaled_queue(tmp_path)
    queue.save()
    assert not queue.journal_path.exists()
    return queue.state_path


class TestQueueState:
    def test_damage_that_stays_valid_json_is_refused(self, tmp_path):
        # On the parent this loaded silently, and the third campaign was
        # issued id x-0000 again — replacing the first one's record.
        path = _saved_queue(tmp_path)
        text = path.read_text()
        assert '"allocated": 2' in text
        path.write_text(text.replace('"allocated": 2', '"allocated": 0'))
        with pytest.raises(QueueError, match="checksum"):
            CampaignQueue(str(path))

    def test_a_flip_inside_a_state_string_is_refused(self, tmp_path):
        path = _saved_queue(tmp_path)
        text = path.read_text()
        path.write_text(text.replace('"state": "queued"',
                                     '"state": "queuee"', 1))
        with pytest.raises(QueueError, match="checksum"):
            CampaignQueue(str(path))

    def test_every_truncation_is_a_queue_error(self, tmp_path):
        path = _saved_queue(tmp_path)
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(QueueError):
                CampaignQueue(str(path))
        path.write_bytes(raw)
        assert sorted(CampaignQueue(str(path)).records) == \
            ["x-0000", "x-0001"]

    def test_a_version_1_state_file_is_refused(self, tmp_path):
        # The parent's writer: sort_keys JSON, no checksum, version 1.
        path = _saved_queue(tmp_path)
        document = read_document(path)
        del document["checksum"]
        document["version"] = 1
        path.write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(QueueError):
            CampaignQueue(str(path))


def _states(queue):
    return {cid: record.state for cid, record in queue.records.items()}


def _journal(generation, payloads):
    """A journal file's bytes, as the queue writes one."""
    header = queue_module._JOURNAL_HEADER.pack(
        queue_module._JOURNAL_MAGIC, queue_module.QUEUE_STATE_VERSION,
        generation,
    )
    return _framed(payloads, header)[0]


class TestQueueJournal:
    """The four load rules, over a journal of real transitions: submit,
    submit, lease, complete (the first creates the file)."""

    def _fixture(self, tmp_path):
        queue = _journaled_queue(tmp_path)
        lengths = [queue._journal.length]  # after the two submissions
        leased = queue.next_lease()
        lengths.append(queue._journal.length)
        queue.complete(leased.campaign_id, {"sent": 8})
        lengths.append(queue._journal.length)
        snapshot = read_document(queue.state_path)
        assert snapshot["records"] == [] and snapshot["generation"] == 1
        return queue, lengths

    def test_the_journal_carries_what_the_snapshot_does_not(self, tmp_path):
        queue, lengths = self._fixture(tmp_path)
        assert queue.journal_path.stat().st_size == lengths[-1]
        reloaded = CampaignQueue(str(queue.state_path))
        assert _states(reloaded) == {"x-0000": "done", "x-0001": "queued"}
        assert reloaded.get("x-0000").result == {"sent": 8}
        assert reloaded.allocator.allocated == 2
        assert reloaded.recovered_leases == []
        # The load compacted: a new generation, no journal left behind.
        snapshot = read_document(queue.state_path)
        assert snapshot["generation"] == 2
        assert [r["campaign_id"] for r in snapshot["records"]] == \
            ["x-0000", "x-0001"]
        assert not queue.journal_path.exists()

    def test_every_cut_inside_the_last_record_loads_the_state_before_it(
        self, tmp_path
    ):
        queue, lengths = self._fixture(tmp_path)
        raw = queue.journal_path.read_bytes()
        snapshot = queue.state_path.read_bytes()
        for cut in range(lengths[1], lengths[2]):
            queue.state_path.write_bytes(snapshot)
            queue.journal_path.write_bytes(raw[:cut])
            reloaded = CampaignQueue(str(queue.state_path))
            # The complete() was never acknowledged: the lease is found
            # held by a dead daemon, and requeued.
            assert _states(reloaded) == {"x-0000": "queued",
                                         "x-0001": "queued"}
            assert reloaded.recovered_leases == ["x-0000"]
            assert reloaded.get("x-0000").resume is True

    def test_a_flipped_byte_before_the_tail_is_refused(self, tmp_path):
        queue, lengths = self._fixture(tmp_path)
        raw = queue.journal_path.read_bytes()
        # Header (magic, version, padding, generation) and every record
        # before the last; plus the last record's length fields.
        for position in range(lengths[1] + 8):
            damaged = bytearray(raw)
            damaged[position] ^= 0x01
            queue.journal_path.write_bytes(bytes(damaged))
            with pytest.raises(QueueError, match="journal"):
                CampaignQueue(str(queue.state_path))
        queue.journal_path.write_bytes(raw)
        assert _states(CampaignQueue(str(queue.state_path)))["x-0000"] == \
            "done"

    def test_the_first_record_is_never_a_torn_tail(self, tmp_path):
        # The file is renamed into place whole, so a journal cut anywhere
        # inside its first record (or its header) is damage, not a tear.
        queue = CampaignQueue(str(tmp_path / "queue.json"), scope="x")
        queue.submit(_spec("a0"))
        raw = queue.journal_path.read_bytes()
        assert len(raw) == queue._journal.length
        for cut in range(len(raw)):
            queue.journal_path.write_bytes(raw[:cut])
            with pytest.raises(QueueError, match="journal"):
                CampaignQueue(str(queue.state_path))

    def test_a_newer_generation_journal_is_refused(self, tmp_path):
        path = _saved_queue(tmp_path)  # generation 2
        assert read_document(path)["generation"] == 2
        path.with_suffix(".log").write_bytes(_journal(3, [b"{}"]))
        with pytest.raises(QueueError, match="generation 3"):
            CampaignQueue(str(path))

    def test_a_journal_without_a_snapshot_is_refused(self, tmp_path):
        queue, _ = self._fixture(tmp_path)
        queue.state_path.unlink()
        with pytest.raises(QueueError, match="no snapshot"):
            CampaignQueue(str(queue.state_path))

    def test_an_older_generation_journal_is_ignored_and_removed(
        self, tmp_path
    ):
        # A crash between a compaction's rename and its unlink.
        queue, _ = self._fixture(tmp_path)
        stale = queue.journal_path.read_bytes()
        queue.save()
        queue.journal_path.write_bytes(stale)
        reloaded = CampaignQueue(str(queue.state_path))
        assert _states(reloaded) == {"x-0000": "done", "x-0001": "queued"}
        assert reloaded.allocator.allocated == 2
        assert not queue.journal_path.exists()

    def test_a_verified_record_that_is_not_a_delta_is_refused(self, tmp_path):
        path = _saved_queue(tmp_path)
        for payload in (b"not json", b"[1]", b'{"records": [{}]}',
                        b'{"records": [{"campaign_id": "x-0009"}]}'):
            path.with_suffix(".log").write_bytes(_journal(2, [payload]))
            with pytest.raises(QueueError, match="malformed"):
                CampaignQueue(str(path))

    def test_ops_per_transition(self, tmp_path, monkeypatch):
        layer = _Recording()
        monkeypatch.setattr(queue_module, "get_default_os", lambda: layer)
        queue = CampaignQueue(str(tmp_path / "queue.json"), scope="x")
        assert layer.ops == []

        def ops():
            names = [op[0] for op in layer.ops]
            del layer.ops[:]
            return names

        snapshot = ["write", "fsync", "replace", "fsync_dir"]
        queue.submit(_spec("a0"))  # fresh root: a snapshot to extend first
        assert ops() == snapshot + ["write", "fsync", "replace", "fsync_dir"]
        queue.submit(_spec("a1"))
        assert ops() == ["write", "fsync"]
        leased = queue.next_lease()
        assert ops() == ["write", "fsync"]
        queue.cancel("x-0001")
        assert ops() == ["write", "fsync"]
        queue.save()
        assert ops() == snapshot
        queue.complete(leased.campaign_id, {})  # first of a generation
        assert ops() == ["write", "fsync", "replace", "fsync_dir"]
        assert queue.next_lease() is None and ops() == []
        queue.close()  # no descriptor left; the queue stays usable
        queue.submit(_spec("a2"))
        assert ops() == snapshot + ["write", "fsync", "replace", "fsync_dir"]
        queue.close()

    def test_compaction_when_the_journal_outgrows_the_snapshot(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(queue_module, "COMPACT_MIN_BYTES", 2048)
        queue = CampaignQueue(str(tmp_path / "queue.json"), scope="x")
        generations = []
        for i in range(40):
            queue.submit(_spec(f"a{i}"))
            record = queue.next_lease()
            queue.complete(record.campaign_id, {"sent": 8})
            generations.append(queue._generation)
            # A journal is never more than one record past the threshold.
            assert queue._journal.length < max(
                2048, queue._snapshot_bytes
            ) + 1024
        # Compactions happened, and ever further apart: the threshold
        # follows the snapshot, so rewriting stays O(1) amortised.
        bumps = [i for i in range(1, 40)
                 if generations[i] != generations[i - 1]]
        assert len(bumps) >= 3
        gaps = [hi - lo for lo, hi in zip(bumps, bumps[1:])]
        assert gaps == sorted(gaps) and gaps[-1] > gaps[0]
        reloaded = CampaignQueue(str(queue.state_path))
        assert set(_states(reloaded).values()) == {"done"}
        assert len(reloaded.records) == 40


def _interrupted_campaign(directory, resume=False):
    config = ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5)
    return Campaign(
        TopologySpec.mini(), {"fixture": config}, shards=2,
        checkpoint_dir=str(directory / "ckpt"), checkpoint_every=32,
        resume=resume, store_dir=str(directory / "store"),
        snapshot=crashkit.SNAPSHOT, backoff_base=0.0,
    )


class TestStoreManifest:
    def _committed(self, tmp_path):
        _interrupted_campaign(tmp_path).run()
        return tmp_path / "store" / "manifest.json"

    def test_a_non_utf8_byte_quarantines(self, tmp_path):
        # On the parent: a bare UnicodeDecodeError, on this and every
        # later open, and nothing set aside.
        manifest = self._committed(tmp_path)
        raw = bytearray(manifest.read_bytes())
        raw[10] = 0xFF
        manifest.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruption, match="invalid-json"):
            ResultStore(tmp_path / "store")
        assert manifest.with_name("manifest.json.corrupt").exists()
        assert ResultStore(tmp_path / "store").total_rows == 0

    def test_every_truncation_quarantines(self, tmp_path):
        manifest = self._committed(tmp_path)
        raw = manifest.read_bytes()
        aside = manifest.with_name("manifest.json.corrupt")
        for length in range(len(raw)):
            manifest.write_bytes(raw[:length])
            with pytest.raises(StoreCorruption):
                ResultStore(tmp_path / "store")
            assert aside.read_bytes() == raw[:length]
            assert not manifest.exists()
        manifest.write_bytes(raw)
        assert ResultStore(tmp_path / "store").total_rows > 0


class TestCheckpointDocuments:
    def _finished(self, tmp_path):
        _interrupted_campaign(tmp_path).run()
        events = []
        store = CheckpointStore(tmp_path / "ckpt", on_event=events.append)
        job_id = sorted(s.job_id for s in store.iter_states())[0]
        return store, events, job_id

    def test_every_truncation_of_a_head_quarantines_head_and_log(
        self, tmp_path
    ):
        store, events, job_id = self._finished(tmp_path)
        head, log = store.shard_path(job_id), store.log_path(job_id)
        raw, log_raw = head.read_bytes(), log.read_bytes()
        for length in range(len(raw)):
            head.write_bytes(raw[:length])
            log.write_bytes(log_raw)
            del events[:]
            assert store.load_shard(job_id) is None
            assert [e["type"] for e in events] == ["checkpoint_corrupt"]
            assert events[0]["reason"] == "truncated-or-invalid-json"
            assert not head.exists() and not log.exists()
        head.write_bytes(raw)
        log.write_bytes(log_raw)
        assert store.load_shard(job_id).status == DONE

    def test_every_truncation_of_the_campaign_manifest_quarantines(
        self, tmp_path
    ):
        store, events, _job_id = self._finished(tmp_path)
        path = tmp_path / "ckpt" / CheckpointStore.MANIFEST
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            del events[:]
            assert store.load_manifest() is None
            assert [e["type"] for e in events] == ["checkpoint_corrupt"]
            assert not path.exists()
        path.write_bytes(raw)
        assert store.load_manifest() is not None


# -- state the previous commit's writers produced -----------------------------------
#
# Inlined from the parent of this change (``store/store.py`` and
# ``engine/checkpoint.py`` each had their own): the checksum, the store's
# manifest encoding (hashed sorted, written in insertion order), and the
# checkpoint store's spliced encoding.


def _parent_checksum(payload):
    canonical = json.dumps(
        {k: v for k, v in payload.items() if k != "checksum"}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parent_write_manifest(path, payload):
    ordered = {
        key: payload[key]
        for key in ("version", "commits", "segments", "snapshots",
                    "quarantined")
    }
    ordered["checksum"] = _parent_checksum(ordered)
    path.write_text(json.dumps(ordered))


def _parent_atomic_write(path, payload):
    payload = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True)
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    path.write_text(f'{canonical[:-1]}, "checksum": "{checksum}"}}')


def _round_rows(store):
    """The kill-round snapshot's rows, whatever else the store holds."""
    return sorted(
        (r.target.value, r.responder.value, r.kind.value, r.icmp_type,
         r.icmp_code)
        for r in store.iter_rows(store.snapshot(crashkit.SNAPSHOT).segments)
    )


def _parent_queue_save(path, payload):
    """``CampaignQueue.save`` of the parent: a version-2 document — the
    whole queue, checksummed, no ``generation`` and never a journal."""
    body = {k: v for k, v in payload.items()
            if k not in ("checksum", "generation")}
    body["version"] = 2
    _parent_atomic_write(path, body)


class TestParentFormats:
    def test_a_version_2_queue_loads_and_the_next_transition_upgrades(
        self, tmp_path
    ):
        queue = _journaled_queue(tmp_path)
        queue.next_lease()
        queue.save()
        path = queue.state_path
        _parent_queue_save(path, read_document(path))
        parent = read_document(path)
        assert parent["version"] == 2 and "generation" not in parent
        assert parent["allocated"] == 2 and len(parent["records"]) == 2

        reloaded = CampaignQueue(str(path))
        assert _states(reloaded) == {"x-0000": "queued", "x-0001": "queued"}
        assert reloaded.recovered_leases == ["x-0000"]
        assert reloaded.allocator.allocated == 2
        # Loading wrote it back in today's format ...
        upgraded = read_document(path)
        assert (upgraded["version"], upgraded["generation"]) == (3, 1)
        # ... so the first transition after it is a journal append.
        third = reloaded.submit(_spec("a2"))
        assert third.campaign_id == "x-0002"
        assert path.with_suffix(".log").exists()
        assert read_document(path) == upgraded
        assert sorted(CampaignQueue(str(path)).records) == \
            ["x-0000", "x-0001", "x-0002"]

    def test_a_parent_store_and_checkpoint_directory_resume_identically(
        self, tmp_path
    ):
        _interrupted_campaign(tmp_path / "base").run()
        want = _round_rows(ResultStore(tmp_path / "base" / "store"))
        assert want

        # A campaign that died in its second shard: one DONE head, one
        # PARTIAL log, the campaign manifest; plus, in the same store, an
        # earlier round the parent committed.
        work = tmp_path / "work"
        campaign = _interrupted_campaign(work)
        jobs = campaign.plan()
        jobs[1].interrupt_after = 70
        with pytest.raises(WorkerInterrupted):
            campaign.run(jobs=jobs)
        earlier = ResultStore(work / "store")
        writer = earlier.writer("earlier")
        writer.append_many(
            list(ResultStore(tmp_path / "base" / "store").iter_rows())[:5]
        )
        earlier.commit([writer.seal()], snapshot="earlier-round")

        ckpt = work / "ckpt"
        states = {s.job_id: s.status
                  for s in CheckpointStore(ckpt).iter_states()}
        assert sorted(states.values()) == [DONE, PARTIAL]
        rewritten = 0
        for path in [*ckpt.glob("shard-*.json"),
                     ckpt / CheckpointStore.MANIFEST]:
            before = path.read_bytes()
            _parent_atomic_write(path, json.loads(before))
            assert path.read_bytes() == before  # that format did not move
            rewritten += 1
        assert rewritten == 2
        manifest = work / "store" / "manifest.json"
        before = manifest.read_bytes()
        _parent_write_manifest(manifest, json.loads(before))
        assert manifest.read_bytes() != before  # key order did; same keys
        assert len(manifest.read_bytes()) == len(before)

        opened = ResultStore(work / "store")
        assert sorted(opened.snapshots) == ["earlier-round"]
        opened.verify()
        resumed = _interrupted_campaign(work, resume=True).run()
        assert resumed.shards_from_checkpoint == 1
        assert 0 < resumed.sent_this_run < 128
        store = ResultStore(work / "store")
        store.verify()
        assert sorted(store.snapshots) == ["earlier-round",
                                           crashkit.SNAPSHOT]
        assert _round_rows(store) == want
