"""The repro.store subsystem: segments, manifest, queries, diff, sinks."""

import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.output import (
    render_csv,
    write_scan_csv,
    write_scan_jsonl,
    write_services_csv,
)
from repro.core.probes.base import ReplyKind
from repro.core.probes.icmp import IcmpEchoProbe
from repro.core.rows import pack_row
from repro.core.scanner import ProbeResult, ScanConfig, Scanner, ScanResult
from repro.core.target import ScanRange
from repro.core.validate import Validator
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.store import (
    CsvSink,
    JsonlSink,
    ListSink,
    ResultStore,
    SegmentCorrupt,
    SegmentReader,
    SegmentSink,
    SegmentWriter,
    StoreCorruption,
    StoreError,
    diff,
    query,
)
from repro.store import index as index_module
from repro.telemetry.metrics import MetricsRegistry

from tests.topo import build_mini

LAN_OK = "2001:db8:1:50::/60-64"


def _scan(topo, spec=LAN_OK, sink=None):
    probe = IcmpEchoProbe(Validator(bytes(range(16))), hop_limit=255)
    config = ScanConfig(scan_range=ScanRange.parse(spec), seed=5)
    return Scanner(topo.network, topo.vantage, probe, config, sink=sink).run()


def _row(target: int, responder: int, kind=ReplyKind.DEST_UNREACHABLE):
    return ProbeResult(
        target=IPv6Addr(target),
        responder=IPv6Addr(responder),
        kind=kind,
        icmp_type=1,
        icmp_code=3,
    )


def _rows(n, base=0x2001_0DB8 << 96, kind=ReplyKind.DEST_UNREACHABLE):
    return [
        _row(base + (i << 64) + 0xBAD, base + (i << 64) + 1, kind)
        for i in range(n)
    ]


class TestSegment:
    def test_round_trip_mmap_and_scalar(self, tmp_path):
        rows = _rows(1000)
        writer = SegmentWriter(tmp_path / "a.seg", block_rows=64)
        writer.append_many(rows)
        meta = writer.seal()
        assert meta["rows"] == 1000
        assert meta["blocks"] == (1000 + 63) // 64
        for use_mmap in (True, False):
            reader = SegmentReader(tmp_path / "a.seg", meta,
                                   use_mmap=use_mmap)
            assert list(reader.iter_rows()) == rows
            reader.verify()

    def test_block_restriction(self, tmp_path):
        rows = _rows(100)
        writer = SegmentWriter(tmp_path / "a.seg", block_rows=10)
        writer.append_many(rows)
        meta = writer.seal()
        reader = SegmentReader(tmp_path / "a.seg", meta)
        assert list(reader.iter_rows(blocks=[3])) == rows[30:40]

    def test_unsealed_leaves_only_tmp(self, tmp_path):
        writer = SegmentWriter(tmp_path / "a.seg")
        writer.append_many(_rows(5))
        assert not (tmp_path / "a.seg").exists()
        writer.abort()
        assert list(tmp_path.glob("*")) == []

    def test_truncation_detected(self, tmp_path):
        writer = SegmentWriter(tmp_path / "a.seg", block_rows=16)
        writer.append_many(_rows(64))
        meta = writer.seal()
        data = (tmp_path / "a.seg").read_bytes()
        (tmp_path / "a.seg").write_bytes(data[:-10])
        reader = SegmentReader(tmp_path / "a.seg", meta)
        with pytest.raises(SegmentCorrupt, match="truncated"):
            list(reader.iter_rows())

    def test_bitflip_detected_by_block_crc(self, tmp_path):
        writer = SegmentWriter(tmp_path / "a.seg", block_rows=16)
        writer.append_many(_rows(64))
        meta = writer.seal()
        data = bytearray((tmp_path / "a.seg").read_bytes())
        data[100] ^= 0xFF  # a row byte inside block 0
        (tmp_path / "a.seg").write_bytes(bytes(data))
        reader = SegmentReader(tmp_path / "a.seg", meta)
        with pytest.raises(SegmentCorrupt, match="CRC"):
            list(reader.iter_rows())

    def test_kind_codes_round_trip_every_kind(self, tmp_path):
        rows = [_row(i << 64, (i << 64) + 1, kind)
                for i, kind in enumerate(ReplyKind)]
        writer = SegmentWriter(tmp_path / "a.seg")
        writer.append_many(rows)
        meta = writer.seal()
        back = list(SegmentReader(tmp_path / "a.seg", meta).iter_rows())
        assert [r.kind for r in back] == [r.kind for r in rows]


#: Each side of ``SMALL_SEGMENT`` for a 64-row segment (2,312 bytes).
SIDES = {"mapped": 0, "read": 1 << 20}


@pytest.fixture(params=sorted(SIDES))
def side(request, monkeypatch):
    """Force every segment of the test onto one side of the size limit."""
    from repro.store import segment

    monkeypatch.setattr(segment, "SMALL_SEGMENT", SIDES[request.param])
    return request.param


class TestSmallSegmentsRead:
    """A segment at most ``SMALL_SEGMENT`` long is read, a longer one
    mapped; either way the same rows, the same corruption verdicts."""

    def _segment(self, tmp_path, rows=64):
        writer = SegmentWriter(tmp_path / "a.seg", block_rows=16)
        writer.append_many(_rows(rows))
        return tmp_path / "a.seg", writer.seal()

    def test_the_side_is_taken(self, tmp_path, side):
        import mmap

        path, meta = self._segment(tmp_path)
        buffer, close = SegmentReader(path, meta)._buffer()
        try:
            assert isinstance(buffer, mmap.mmap) == (side == "mapped")
        finally:
            close()

    def test_both_sides_decode_the_same_rows(self, tmp_path, side):
        path, meta = self._segment(tmp_path)
        reader = SegmentReader(path, meta)
        assert list(reader.iter_rows()) == _rows(64)
        assert [(crc, count) for crc, count, _ in
                reader.iter_blocks(project=None)] == [
            (crc, count) for crc, count, _ in
            SegmentReader(path, meta, use_mmap=False).iter_blocks()
        ]
        reader.verify()

    def test_truncation_is_corrupt_on_both_sides(self, tmp_path, side):
        path, meta = self._segment(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SegmentCorrupt, match="truncated"):
            list(SegmentReader(path, meta).iter_rows())

    def test_a_flipped_byte_is_corrupt_on_both_sides(self, tmp_path, side):
        path, meta = self._segment(tmp_path)
        data = bytearray(path.read_bytes())
        data[100] ^= 0xFF  # a row byte inside block 0
        path.write_bytes(bytes(data))
        reader = SegmentReader(path, meta)
        with pytest.raises(SegmentCorrupt, match="CRC"):
            list(reader.iter_blocks(project=None))
        with pytest.raises(SegmentCorrupt, match="CRC"):
            reader.verify()

    def test_the_store_quarantines_on_both_sides(self, tmp_path, side):
        store = ResultStore(tmp_path / "store")
        writer = store.writer("a", block_rows=16)
        writer.append_many(_rows(64))
        store.commit([writer.seal()])
        path = store.segment_path("a.seg")
        data = bytearray(path.read_bytes())
        data[50] ^= 0x01  # a row bit; the size check passes
        path.write_bytes(bytes(data))
        with pytest.raises(StoreCorruption, match="quarantined"):
            list(ResultStore(tmp_path / "store").iter_rows())
        store = ResultStore(tmp_path / "store")
        assert store.total_rows == 0 and store.quarantined == ["a.seg"]


class TestSinks:
    def test_csv_sink_matches_one_shot_writer(self):
        topo = build_mini()
        result = _scan(topo)
        buffer = io.StringIO()
        sink = CsvSink(buffer)
        sink.emit_many(result.results)
        sink.close()
        assert buffer.getvalue() == render_csv(write_scan_csv, result)

    def test_jsonl_sink_matches_one_shot_writer(self):
        topo = build_mini()
        result = _scan(topo)
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit_many(result.results)
        sink.close()
        assert buffer.getvalue() == render_csv(write_scan_jsonl, result)

    def test_empty_scan_is_a_wellformed_csv(self):
        empty = ScanResult(range=ScanRange.parse(LAN_OK))
        buffer = io.StringIO()
        sink = CsvSink(buffer)
        sink.close()
        assert buffer.getvalue() == render_csv(write_scan_csv, empty)
        assert buffer.getvalue().startswith("target,responder,kind")
        assert render_csv(write_scan_jsonl, empty) == ""

    def test_scanner_streams_to_sink_instead_of_buffering(self):
        topo = build_mini()
        baseline = _scan(build_mini())
        sink = ListSink()
        result = _scan(topo, sink=sink)
        assert result.results == []  # nothing buffered on the result
        assert result.stats.validated == baseline.stats.validated
        assert sink.results == baseline.results

    def test_segment_sink_bounds_resident_rows(self, tmp_path):
        block_rows = 4
        writer = SegmentWriter(tmp_path / "a.seg", block_rows=block_rows)
        sink = SegmentSink(writer)
        peak = 0
        original = SegmentWriter.append

        def tracking(self, row):
            nonlocal peak
            original(self, row)
            peak = max(peak, self.buffered_rows)

        SegmentWriter.append = tracking
        try:
            result = _scan(build_mini(), sink=sink)
        finally:
            SegmentWriter.append = original
        sink.close()
        assert result.results == []
        assert sink.meta["rows"] == result.stats.validated > 0
        assert peak <= block_rows


class TestServicesCsv:
    def _legacy(self, results):
        """The hand-rolled writer `repro-xmap services --csv` used to
        inline; kept here as the parity oracle."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["target", "service", "alive", "software",
                         "banner", "vendor_hint"])
        for result in results:
            for obs in result.observations:
                writer.writerow([
                    str(obs.target), obs.service, obs.alive,
                    obs.software.banner if obs.software else "",
                    obs.banner, obs.vendor_hint,
                ])
        return buffer.getvalue()

    def test_matches_legacy_inline_writer(self):
        from repro.services.zgrab import AppScanner

        topo = build_mini()
        scan = _scan(topo)
        scanner = AppScanner(topo.network, topo.vantage)
        app = scanner.scan(sorted(
            {r.responder for r in scan.results}, key=lambda a: a.value
        ))
        buffer = io.StringIO()
        write_services_csv([app], buffer)
        assert buffer.getvalue() == self._legacy([app])

    def test_unicode_banner_survives(self):
        class Obs:
            target = IPv6Addr(0x2001 << 112)
            service = "telnet"
            alive = True
            software = None
            banner = "中国电信 CPE ∆ログイン\r\n"
            vendor_hint = "中兴通讯"

        class Result:
            observations = [Obs()]

        buffer = io.StringIO()
        write_services_csv([Result()], buffer)
        text = buffer.getvalue()
        assert text == self._legacy([Result()])
        back = list(csv.DictReader(io.StringIO(text)))
        assert back[0]["banner"] == Obs.banner
        assert back[0]["vendor_hint"] == Obs.vendor_hint

    def test_empty_results_still_write_header(self):
        buffer = io.StringIO()
        assert write_services_csv([], buffer) == 0
        assert buffer.getvalue() == self._legacy([])


class TestResultStore:
    def _store_with(self, tmp_path, groups, snapshot=None):
        store = ResultStore(tmp_path / "store")
        metas = []
        for name, rows in groups.items():
            writer = store.writer(name, block_rows=8)
            writer.append_many(rows)
            metas.append(writer.seal())
        store.commit(metas, snapshot=snapshot)
        return store

    def test_commit_reopen_round_trip(self, tmp_path):
        rows = _rows(100)
        self._store_with(tmp_path, {"a": rows[:60], "b": rows[60:]},
                         snapshot="round-1")
        store = ResultStore(tmp_path / "store")
        assert store.total_rows == 100
        assert list(store.iter_rows()) == rows
        assert store.snapshot("round-1").rows == 100

    def test_store_query_csv_matches_scan_csv(self, tmp_path):
        """Format parity: rows exported from the store are row-for-row what
        the one-shot writer produces from the live result."""
        topo = build_mini()
        result = _scan(topo)
        store = ResultStore(tmp_path / "store")
        writer = store.writer("scan")
        writer.append_many(result.results)
        store.commit([writer.seal()])
        for sink_cls, oracle in ((CsvSink, write_scan_csv),
                                 (JsonlSink, write_scan_jsonl)):
            buffer = io.StringIO()
            sink = sink_cls(buffer)
            sink.emit_many(query(store))
            sink.close()
            assert buffer.getvalue() == render_csv(oracle, result)

    def test_duplicate_and_unsealed_commits_rejected(self, tmp_path):
        store = self._store_with(tmp_path, {"a": _rows(4)})
        writer = store.writer("a")
        writer.append_many(_rows(4))
        meta = writer.seal()
        with pytest.raises(StoreError, match="already committed"):
            store.commit([meta])
        with pytest.raises(StoreError, match="never sealed"):
            store.commit([{"name": "ghost.seg", "rows": 0}])

    def test_unknown_snapshot_lists_available(self, tmp_path):
        store = self._store_with(tmp_path, {"a": _rows(4)}, snapshot="r1")
        with pytest.raises(StoreError, match="r1"):
            store.snapshot("r9")

    def test_torn_manifest_quarantined_never_guessed(self, tmp_path):
        self._store_with(tmp_path, {"a": _rows(10)})
        manifest = tmp_path / "store" / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])  # torn mid-write
        with pytest.raises(StoreCorruption, match="quarantined"):
            ResultStore(tmp_path / "store")
        assert (tmp_path / "store" / "manifest.json.corrupt").exists()
        # Re-open proceeds (empty — the corrupt manifest was set aside).
        store = ResultStore(tmp_path / "store")
        assert store.total_rows == 0

    def test_tampered_manifest_fails_checksum(self, tmp_path):
        self._store_with(tmp_path, {"a": _rows(10)})
        manifest = tmp_path / "store" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["segments"][0]["rows"] = 9_999  # hand-edit
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreCorruption, match="checksum"):
            ResultStore(tmp_path / "store")

    def test_resized_segment_quarantined_on_open(self, tmp_path):
        store = self._store_with(
            tmp_path, {"a": _rows(10), "b": _rows(10, base=0xDEAD << 112)},
            snapshot="r1",
        )
        path = store.segment_path("a.seg")
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(StoreCorruption, match="a.seg"):
            ResultStore(tmp_path / "store")
        # Re-open continues with the survivors; the snapshot is flagged.
        store = ResultStore(tmp_path / "store")
        assert list(store.segments) == ["b.seg"]
        assert store.quarantined == ["a.seg"]
        snap = store.snapshot("r1")
        assert snap.segments == ("b.seg",)
        assert snap.meta["incomplete"]
        assert store.segment_path("a.seg.corrupt").exists()

    def test_midread_corruption_quarantines_and_raises(self, tmp_path):
        """A CRC failure discovered while iterating costs an exception and
        a quarantine — never a silently wrong row set."""
        store = self._store_with(tmp_path, {"a": _rows(64)})
        path = store.segment_path("a.seg")
        data = bytearray(path.read_bytes())
        data[50] ^= 0x01  # flip a row bit without changing the size
        path.write_bytes(bytes(data))
        store = ResultStore(tmp_path / "store")  # size check passes
        with pytest.raises(StoreCorruption, match="quarantined"):
            list(store.iter_rows())
        store = ResultStore(tmp_path / "store")
        assert store.total_rows == 0
        assert store.quarantined == ["a.seg"]

    def test_orphans_reported_and_swept_by_compaction(self, tmp_path):
        store = self._store_with(tmp_path, {"a": _rows(8)})
        writer = store.writer("orphan")
        writer.append_many(_rows(3))
        writer.seal()  # sealed but never committed (crash window)
        assert store.orphans() == ["orphan.seg"]
        store.compact()
        assert store.orphans() == []
        assert store.total_rows == 8

    def test_stale_tmp_swept_on_open(self, tmp_path):
        import os as _os
        import time as _time

        store = self._store_with(tmp_path, {"a": _rows(8)})
        junk = store.segment_dir / "dead.seg.123-456.tmp"
        junk.write_bytes(b"partial")
        # A *fresh* tmp belongs to a live writer (multi-writer store) and
        # must survive an open; only stale ones are dead-writer litter.
        store = ResultStore(tmp_path / "store")
        assert junk.exists()
        stale = _time.time() - ResultStore.TMP_SWEEP_GRACE - 60
        _os.utime(junk, (stale, stale))
        store = ResultStore(tmp_path / "store")
        assert not junk.exists()
        assert store.total_rows == 8

    def test_metrics_counters(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=registry)
        writer = store.writer("a")
        writer.append_many(_rows(12))
        store.commit([writer.seal()], snapshot="r1")
        exported = {
            m["name"]: m["value"] for m in registry.metric_dicts()
        }
        assert exported["store_segments_committed"] == 1
        assert exported["store_rows_ingested"] == 12
        assert exported["store_total_rows"] == 12


class TestCompaction:
    def test_dedup_within_snapshot_preserves_logical_rows(self, tmp_path):
        rows = _rows(50)
        store = ResultStore(tmp_path / "store")
        metas = []
        for name, chunk in (("s0", rows[:30]), ("s1", rows[20:])):
            writer = store.writer(name, block_rows=8)
            writer.append_many(chunk)
            metas.append(writer.seal())
        store.commit(metas, snapshot="r1")
        report = store.compact()
        assert report["duplicates_dropped"] == 10
        assert report["segments_after"] == 1
        store = ResultStore(tmp_path / "store")
        assert sorted(r.target.value for r in store.iter_rows()) == sorted(
            r.target.value for r in rows
        )
        assert store.snapshot("r1").rows == 50

    def test_distinct_snapshots_never_merge_together(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for snap, base in (("r1", 0x2001 << 112), ("r2", 0x2002 << 112)):
            metas = []
            for shard in range(2):
                writer = store.writer(f"{snap}-{shard}")
                writer.append_many(_rows(10, base=base + (shard << 80)))
                metas.append(writer.seal())
            store.commit(metas, snapshot=snap)
        before = {
            snap: sorted(r.target.value for r in query(store, snapshot=snap))
            for snap in ("r1", "r2")
        }
        report = store.compact()
        assert report["segments_after"] == 2  # one per snapshot, not one
        store = ResultStore(tmp_path / "store")
        after = {
            snap: sorted(r.target.value for r in query(store, snapshot=snap))
            for snap in ("r1", "r2")
        }
        assert after == before


class TestQuery:
    BASE_A = 0x2001_0DB8 << 96  # 2001:db8::/32
    BASE_B = 0x2001_0DEA << 96  # 2001:dea::/32

    def _two_block_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        metas = []
        for name, base in (("a", self.BASE_A), ("b", self.BASE_B)):
            writer = store.writer(name, block_rows=4)
            writer.append_many(_rows(32, base=base))
            metas.append(writer.seal())
        store.commit(metas)
        return store

    def test_filters_match_brute_force(self, tmp_path):
        store = self._two_block_store(tmp_path)
        everything = list(store.iter_rows())
        prefix = IPv6Prefix.from_string("2001:db8::/32")
        got = list(query(store, prefix=prefix))
        assert got == [r for r in everything if prefix.contains(r.target)]
        kind = ReplyKind.DEST_UNREACHABLE
        assert list(query(store, kind=kind)) == [
            r for r in everything if r.kind == kind
        ]
        target64 = everything[3].responder.slash64
        assert list(query(store, responder64=target64)) == [
            r for r in everything if r.responder.slash64 == target64
        ]

    def test_prefix_query_skips_unrelated_segments(self, tmp_path):
        """The per-segment index proves segment b holds nothing under
        2001:db8::/32, so its rows are never decoded."""
        store = self._two_block_store(tmp_path)
        read: list = []
        original = SegmentReader.iter_rows

        def tracking(self, *args):
            read.append(self.path.name)
            return original(self, *args)

        SegmentReader.iter_rows = tracking
        try:
            rows = list(query(store, prefix="2001:db8::/32"))
        finally:
            SegmentReader.iter_rows = original
        assert len(rows) == 32
        assert read == ["a.seg"]

    def test_prefix_query_prunes_blocks_within_a_segment(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        writer = store.writer("mixed", block_rows=4)
        writer.append_many(_rows(16, base=self.BASE_A))  # blocks 0-3
        writer.append_many(_rows(16, base=self.BASE_B))  # blocks 4-7
        store.commit([writer.seal()])
        reader = store.reader("mixed.seg")
        blocks = reader.index.blocks_for_prefix(
            IPv6Prefix.from_string("2001:dea::/32")
        )
        assert blocks == [4, 5, 6, 7]
        rows = list(query(store, prefix="2001:dea::/32"))
        assert len(rows) == 16

    def test_responder64_requires_a_slash64(self, tmp_path):
        store = self._two_block_store(tmp_path)
        with pytest.raises(ValueError, match="/64"):
            list(query(store, responder64="2001:db8::/32"))


#: Row addresses drawn close together, so buckets at every level hold rows
#: of several blocks: a few /32s, /48s, /64s, then a random interface id.
_ADDRESS = st.builds(
    lambda a, b, c, iid: ((0x2001_0DB0 + a) << 96) + (b << 80) + (c << 64)
    + iid,
    st.integers(0, 2), st.integers(0, 3), st.integers(0, 3),
    st.integers(0, (1 << 64) - 1),
)


def _legacy_index(rows, block_rows):
    """A segment's index as segments sealed before the packed form carry
    it: nested dicts of hex buckets and sorted block lists."""
    target = {level: {} for level in (32, 48, 64)}
    responders = {}
    for i, row in enumerate(rows):
        block = i // block_rows
        for level, buckets in target.items():
            buckets.setdefault(row.target.value >> (128 - level),
                               set()).add(block)
        responders.setdefault(row.responder.value >> 64, set()).add(block)
    return {
        "target": {str(level): {f"{key:x}": sorted(blocks)
                                for key, blocks in sorted(buckets.items())}
                   for level, buckets in target.items()},
        "responder64": {f"{key:x}": sorted(blocks)
                        for key, blocks in sorted(responders.items())},
    }


class TestPackedIndex:
    """A segment's index is one packed string per level, built at seal."""

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(_ADDRESS, _ADDRESS), max_size=120),
           block_rows=st.integers(1, 9))
    def test_packed_levels_hold_the_bucket_block_sets(
        self, tmp_path_factory, pairs, block_rows
    ):
        rows = [_row(target, responder) for target, responder in pairs]
        path = tmp_path_factory.mktemp("idx") / "s.seg"
        writer = SegmentWriter(path, block_rows=block_rows)
        writer.append_many(rows)
        packed = writer.seal()["index"]
        assert set(packed) == {"target32", "target48", "target64",
                               "responder64"}
        assert all(isinstance(text, str) for text in packed.values())
        got = index_module.SegmentIndex.from_dict(packed)
        want = index_module.SegmentIndex.from_dict(
            _legacy_index(rows, block_rows))
        assert got.target == want.target
        assert got.responder64 == want.responder64
        # Every builder packs the same string: the column path, the loop
        # (below the crossover), and the loop without numpy.
        saved = index_module._VECTOR_ROWS, index_module._np
        try:
            for vector_rows, np in ((1, saved[1]), (1 << 60, saved[1]),
                                    (1, None)):
                index_module._VECTOR_ROWS, index_module._np = vector_rows, np
                builder = index_module.SegmentIndexBuilder()
                for start in range(0, len(rows), block_rows):
                    builder.add_block(b"".join(
                        pack_row(row)
                        for row in rows[start:start + block_rows]))
                assert builder.to_dict() == packed
        finally:
            index_module._VECTOR_ROWS, index_module._np = saved

    @pytest.mark.parametrize("form", ["packed", "legacy"])
    def test_queries_equal_brute_force_on_stores_of_both_forms(
        self, tmp_path, monkeypatch, form
    ):
        import random

        rng = random.Random(11)
        rows = [_row(rng.choice([0x2001_0DB8, 0x2001_0DB9]) << 96
                     | rng.getrandbits(18) << 64 | rng.getrandbits(64),
                     rng.choice([0x2001_0DB8, 0x2400_CB00]) << 96
                     | rng.getrandbits(3) << 64 | 1)
                for _ in range(300)]
        if form == "legacy":
            built = {}
            original = SegmentWriter.seal

            def legacy_seal(writer):
                meta = original(writer)
                meta["index"] = _legacy_index(built[writer], 16)
                return meta

            monkeypatch.setattr(SegmentWriter, "seal", legacy_seal)
        store = ResultStore(tmp_path / "store")
        metas = []
        for name, part in (("a", rows[:180]), ("b", rows[180:])):
            writer = store.writer(name, block_rows=16)
            if form == "legacy":
                built[writer] = part
            writer.append_many(part)
            metas.append(writer.seal())
        store.commit(metas)
        assert all(isinstance(meta["index"].get("responder64"), str)
                   == (form == "packed") for meta in metas)
        reopened = ResultStore(tmp_path / "store")
        everything = list(reopened.iter_rows())
        for text in ("2001::/16", "2001:db8::/31", "2001:db8::/32",
                     "2001:db9::/40", "2001:db8:2::/47", "2001:db8:1::/48",
                     "2001:db8:3:4000::/50", "2001:db9:0:12::/64",
                     "2001:db8:0:12:8000::/65", "2001:db0::/32"):
            prefix = IPv6Prefix.from_string(text)
            assert list(query(reopened, prefix=prefix)) == [
                r for r in everything if prefix.contains(r.target)
            ], text
        for responder in {r.responder.slash64 for r in everything}:
            assert list(query(reopened, responder64=responder)) == [
                r for r in everything if r.responder.slash64 == responder
            ]


class TestDiff:
    def test_churn_report_exact(self, tmp_path):
        eui = (0x2001_0DB8 << 96) + (7 << 64) + 0x0221_86FF_FE00_0001
        round1 = _rows(4) + [_row((5 << 64), eui)]
        round2 = _rows(4)[1:] + [_row((6 << 64), (9 << 64) + 2)]
        store = ResultStore(tmp_path / "store")
        for snap, rows in (("r1", round1), ("r2", round2)):
            writer = store.writer(snap)
            writer.append_many(rows)
            store.commit([writer.seal()], snapshot=snap)
        report = diff(store, "r1", "r2")
        r1 = {r.responder.value for r in round1}
        r2 = {r.responder.value for r in round2}
        assert report.stable == r1 & r2
        assert report.lost == r1 - r2
        assert report.new == r2 - r1
        assert report.rows_a == 5 and report.rows_b == 4
        assert report.eui64_share_a == pytest.approx(1 / 5)
        assert report.eui64_share_b == 0.0
        assert report.eui64_drift == pytest.approx(-1 / 5)
        assert 0.0 < report.churn_rate < 1.0
        assert "churn" in report.render()
        assert report.to_dict()["stable"] == len(r1 & r2)

    def test_identical_rounds_zero_churn(self, tmp_path):
        rows = _rows(10)
        store = ResultStore(tmp_path / "store")
        for snap in ("r1", "r2"):
            writer = store.writer(snap)
            writer.append_many(rows)
            store.commit([writer.seal()], snapshot=snap)
        report = diff(store, "r1", "r2")
        assert report.churn_rate == 0.0
        assert not report.new and not report.lost


class TestMergeSinglePass:
    def test_merge_is_linear_not_quadratic(self):
        counter = {"n": 0}
        original = ProbeResult.dedup_key.fget

        def counting(self):
            counter["n"] += 1
            return original(self)

        shards = 40
        per_shard = 10
        merged = ScanResult(range=ScanRange.parse(LAN_OK))
        parts = [
            ScanResult(
                range=ScanRange.parse(LAN_OK),
                results=_rows(per_shard, base=(0x2001 << 112) + (i << 80)),
            )
            for i in range(shards)
        ]
        ProbeResult.dedup_key = property(counting)
        try:
            for part in parts:
                merged.merge(part)
        finally:
            ProbeResult.dedup_key = property(original)
        total = shards * per_shard
        assert len(merged.results) == total
        # Single-pass: ~2 accesses per incoming row (check + add).  The old
        # behaviour rebuilt the seen-set per call — Σ len(results) ≈ 7800
        # extra accesses at this shape.
        assert counter["n"] <= 2 * total + per_shard

    def test_out_of_band_append_still_dedups(self):
        rows = _rows(5)
        merged = ScanResult(range=ScanRange.parse(LAN_OK))
        merged.merge(ScanResult(range=ScanRange.parse(LAN_OK),
                                results=rows[:3]))
        merged.results.append(rows[3])  # behind the cache's back
        merged.merge(ScanResult(range=ScanRange.parse(LAN_OK),
                                results=rows[2:]))
        assert len(merged.results) == 5  # rows[2] and rows[3] not doubled


class TestEngineIntegration:
    def _configs(self):
        return {
            "lan": ScanConfig(scan_range=ScanRange.parse(LAN_OK), seed=7)
        }

    def _campaign(self, tmp_path, **kwargs):
        from repro.engine import Campaign
        from repro.net.spec import TopologySpec

        return Campaign(TopologySpec.mini(), self._configs(), shards=2,
                        executor="serial", **kwargs)

    def test_campaign_streams_bounded_and_equivalent(self, tmp_path):
        """Store mode holds zero rows on results/outcomes and lands exactly
        the storeless campaign's deduplicated reply set in the store."""
        peak = {"rows": 0}
        original = SegmentWriter.append

        def tracking(self, row):
            original(self, row)
            peak["rows"] = max(peak["rows"], self.buffered_rows)

        SegmentWriter.append = tracking
        try:
            stored = self._campaign(
                tmp_path, store_dir=str(tmp_path / "store"), snapshot="r1"
            ).run()
        finally:
            SegmentWriter.append = original

        assert stored.snapshot == "r1"
        assert all(o.result.results == [] for o in stored.outcomes)
        assert all(not r.results for r in stored.results.values())
        from repro.store.segment import DEFAULT_BLOCK_ROWS

        assert peak["rows"] <= DEFAULT_BLOCK_ROWS

        baseline = self._campaign(tmp_path).run()
        base_keys = {
            row.dedup_key
            for result in baseline.results.values()
            for row in result.results
        }
        store = ResultStore(tmp_path / "store")
        assert {row.dedup_key for row in store.iter_rows()} == base_keys
        assert stored.stats.validated == baseline.stats.validated
        assert stored.store_info["rows"] == len(base_keys)

    def test_checkpointed_campaign_still_lands_segments(self, tmp_path):
        run = self._campaign(
            tmp_path,
            store_dir=str(tmp_path / "store"),
            snapshot="r1",
            checkpoint_dir=str(tmp_path / "ck"),
        ).run()
        store = ResultStore(tmp_path / "store")
        assert store.snapshot("r1").rows == run.stats.validated

        # Resume: every shard restores from checkpoint (zero probes sent),
        # yet the new round still commits a complete snapshot.
        resumed = self._campaign(
            tmp_path,
            store_dir=str(tmp_path / "store"),
            snapshot="r2",
            checkpoint_dir=str(tmp_path / "ck"),
            resume=True,
        ).run()
        assert resumed.sent_this_run == 0
        assert resumed.shards_from_checkpoint == 2
        store = ResultStore(tmp_path / "store")
        assert store.snapshot("r2").rows == store.snapshot("r1").rows > 0

    def test_snapshot_collision_fails_before_scanning(self, tmp_path):
        from repro.engine import CampaignError

        self._campaign(tmp_path, store_dir=str(tmp_path / "store"),
                       snapshot="r1").run()
        with pytest.raises(CampaignError, match="already exists"):
            self._campaign(tmp_path, store_dir=str(tmp_path / "store"),
                           snapshot="r1").run()

    def test_snapshot_meta_maps_labels_to_segments(self, tmp_path):
        self._campaign(tmp_path, store_dir=str(tmp_path / "store"),
                       snapshot="r1").run()
        store = ResultStore(tmp_path / "store")
        snap = store.snapshot("r1")
        assert set(snap.meta["labels"]) == {"lan"}
        assert sorted(snap.meta["labels"]["lan"]) == sorted(snap.segments)
        assert len(snap.segments) == 2  # one per shard


class TestCli:
    def _seed_store(self, tmp_path):
        rows = _rows(20)
        store = ResultStore(tmp_path / "store")
        for snap, chunk in (("r1", rows), ("r2", rows[5:])):
            writer = store.writer(snap)
            writer.append_many(chunk)
            store.commit([writer.seal()], snapshot=snap)
        return str(tmp_path / "store"), rows

    def test_store_info_query_diff_compact(self, tmp_path, capsys):
        from repro.cli import main

        directory, rows = self._seed_store(tmp_path)
        assert main(["store", "info", directory]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["rows"] == 35 and info["segments"] == 2

        out = tmp_path / "q.csv"
        assert main(["store", "query", directory, "--snapshot", "r1",
                     "--out", str(out)]) == 0
        assert len(list(csv.DictReader(out.open()))) == 20

        assert main(["store", "diff", directory, "r1", "r2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lost"] == 5 and report["new"] == 0

        assert main(["store", "compact", directory]) == 0
        assert "duplicate(s) dropped" in capsys.readouterr().out

    def test_query_errors_are_graceful(self, tmp_path, capsys):
        from repro.cli import main

        directory, _ = self._seed_store(tmp_path)
        assert main(["store", "query", directory,
                     "--snapshot", "missing"]) == 1
        assert "missing" in capsys.readouterr().err
        assert main(["store", "diff", directory, "r1", "nope"]) == 1
