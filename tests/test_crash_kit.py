"""The crash-safety kit's one durable-document protocol
(:func:`repro.store.oslayer.write_document` / ``read_document``), and what
its three owners — the store manifest, the checkpoint head and campaign
manifest, the daemon's queue state — do with a damaged document.

* a property test of the protocol itself: round trip, any single flipped
  byte, any truncation, a writer dying at each of its three operations;
* the owners' declared reactions, generated over every truncation length of
  a small fixture and a few hand-picked flips (``QueueError``;
  ``StoreCorruption`` + ``manifest.json.corrupt``; one ``checkpoint_corrupt``
  event) — never another exception type, never a partly loaded object;
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
from repro.store import ResultStore, StoreCorruption
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
        ops = []

        class Recording(RealOs):
            def write(self, handle, data):
                ops.append(("write", len(data)))
                super().write(handle, data)

            def fsync(self, handle):
                ops.append(("fsync",))
                super().fsync(handle)

            def replace(self, src, dst):
                ops.append(("replace", dst.name))
                super().replace(src, dst)

            def fsync_dir(self, path):
                ops.append(("fsync_dir",))

        path = tmp_path / "doc.json"
        write_document(Recording(), path, {"rows": list(range(500))})
        assert ops == [("write", path.stat().st_size), ("fsync",),
                       ("replace", "doc.json")]


# -- the owners -----------------------------------------------------------------


def _spec(name):
    return CampaignSpec(tenant="alice", name=name,
                        scan_range="2001:db8:0::/61-64")


def _saved_queue(tmp_path):
    path = tmp_path / "queue.json"
    queue = CampaignQueue(str(path), scope="x")
    queue.submit(_spec("a0"))
    queue.submit(_spec("a1"))
    return path


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


class TestParentFormats:
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
