"""Packed result rows: a ``ScanResult`` keeps its replies as 35-byte rows.

Every reader of a result — ``results``, ``merge``, ``dedup_digest``,
``to_dict``/``from_dict``, the checkpoint log and head — is checked here
against the formula it had over ``ProbeResult`` objects, on generated row
sets with duplicates; a checkpoint directory written before rows were
packed must load unchanged; and a probe module whose build and check keys
disagree must lose every reply whether it came home as a packet or a row.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.probes.base import ReplyKind
from repro.core.probes.icmp import IcmpEchoProbe
from repro.core import rows
from repro.core.rows import KINDS, ROW, ROW_SIZE, Rows, pack_row
from repro.core.scanner import ProbeResult, ScanConfig, Scanner, ScanResult
from repro.core.stats import ScanStats
from repro.core.target import ScanRange
from repro.core.validate import Validator, seed_secret
from repro.engine.checkpoint import DONE, PARTIAL, CheckpointStore, ShardState
from repro.net import columnar
from repro.net.addr import IPv6Addr
from tests.pipeline import SPEC, build_world

RANGE = ScanRange.parse(SPEC)
DATA = pathlib.Path(__file__).parent / "data" / "checkpoint-v2"

#: Few addresses, so generated row sets repeat keys.
_addresses = st.sampled_from(
    [(0x20010DB8 << 96) + (k << 64) + k * 0x1111 for k in range(4)]
    + [0, (1 << 128) - 1]
).map(IPv6Addr)
_results = st.builds(
    ProbeResult,
    target=_addresses,
    responder=_addresses,
    kind=st.sampled_from(list(ReplyKind)),
    icmp_type=st.integers(0, 255),
    icmp_code=st.integers(0, 255),
)
_row_sets = st.lists(_results, max_size=24)


def _digest(results) -> str:
    """``dedup_digest`` as it was computed over objects."""
    lines = sorted(
        f"{r.responder}|{r.target}|{r.kind.value}|{r.icmp_type}|{r.icmp_code}"
        for r in results
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _merged(left, right) -> list:
    """``merge`` as it was computed over objects: the other side's results
    whose ``(responder, target, kind)`` is not yet in, first wins."""
    out = list(left)
    seen = {r.dedup_key for r in out}
    for result in right:
        if result.dedup_key not in seen:
            seen.add(result.dedup_key)
            out.append(result)
    return out


class TestPackedResult:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(left=_row_sets, right=_row_sets)
    def test_every_reader_equals_its_object_formula(self, left, right):
        result = ScanResult(range=RANGE, results=left)
        assert list(result.results) == left and result.results == left
        assert len(result.results) == len(left)
        assert b"".join(result.results.rows) == b"".join(map(pack_row, left))
        assert result.dedup_digest() == _digest(left)
        assert result.to_dict()["results"] == [r.to_dict() for r in left]
        again = ScanResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert again == result and list(again.results) == left
        merged = ScanResult(range=RANGE, results=left).merge(
            ScanResult(range=RANGE, results=right)
        )
        assert list(merged.results) == _merged(left, right)
        assert merged.dedup_digest() == _digest(_merged(left, right))
        # A slice is rows too, and a reader's objects are made once.
        assert list(result.results[1:]) == left[1:]
        if left:
            assert result.results[0] is result.results[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chunks=st.lists(_row_sets, min_size=1, max_size=4))
    def test_partial_done_load_round_trip(self, chunks):
        *partials, tail = chunks
        rows = [r for chunk in chunks for r in chunk]
        whole = ScanResult(range=RANGE, results=rows)
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            for k, chunk in enumerate(partials):
                store.write_shard(_state(PARTIAL, 10 * (k + 1), chunk))
            if partials:
                loaded = CheckpointStore(tmp).load_shard("job/0")
                assert list(loaded.result.results) == rows[:len(rows)
                                                           - len(tail)]
            store.write_shard(_state(DONE, 99, tail, whole))
            store.close()
            loaded = CheckpointStore(tmp).load_shard("job/0")
        assert loaded.status == DONE and loaded.position == 99
        assert list(loaded.result.results) == rows
        assert loaded.digest == _digest(rows) == whole.dedup_digest()

    def test_rows_of_other_lengths_or_kinds_are_refused(self):
        row = pack_row(ProbeResult(IPv6Addr(1), IPv6Addr(2),
                                   ReplyKind.TIME_EXCEEDED, 3, 0))
        assert len(Rows.unpack(row * 3)) == 3
        for bad in (row[:-1], row[:32] + bytes([len(ReplyKind)]) + row[33:]):
            try:
                Rows.unpack(bad)
            except ValueError:
                continue
            raise AssertionError(f"{bad!r} unpacked")
        assert ROW_SIZE == len(row) == 35


#: Addresses whose RFC 5952 text has an edge: all zero, a leading or a
#: trailing run, no zero group, and two equal-length zero runs (the
#: leftmost is the one dropped).
EDGES = [
    0, 1, 1 << 112, (1 << 128) - 1,
    0x0001_0000_0000_0001_0000_0000_0001_0001,
    0x0001_0000_0000_0001_0001_0000_0000_0001,
    0x0000_0001_0000_0000_0001_0000_0000_0001,
    0x20010DB8_00000000_00000000_00000001,
]


def _packed(n: int) -> list:
    """``n`` packed rows over the edge addresses, every kind code and the
    type/code extremes, repeating keys."""
    rows = []
    for k in range(n):
        target = EDGES[k % len(EDGES)] ^ (k // len(EDGES) << 64)
        responder = EDGES[(k * 3 + 1) % len(EDGES)]
        rows.append(ROW.pack(
            target.to_bytes(16, "big"), responder.to_bytes(16, "big"),
            k % len(KINDS), (0, 255, 1, 3)[k % 4], (255, 0, 4, 0)[k // 4 % 4],
        ))
    return rows


class TestDigestGrid:
    """``dedup_digest`` hashes its lines rendered on one grid from
    ``_DIGEST_VECTOR_MIN`` rows up; the f-string formula is the oracle."""

    @pytest.mark.parametrize("n", sorted({
        0, 1, rows._DIGEST_VECTOR_MIN - 1, rows._DIGEST_VECTOR_MIN,
        rows._DIGEST_VECTOR_MIN + 1, 1025,
    }))
    def test_the_grid_is_the_formula(self, monkeypatch, n):
        packed = _packed(n)
        want = rows.digest_formula(packed)
        assert rows.digest_text(packed) == want
        if columnar._np is not None:  # the grid itself, at every size
            monkeypatch.setattr(rows, "_DIGEST_VECTOR_MIN", 1)
            assert rows.digest_text(packed) == want
        result = ScanResult(range=RANGE, results=Rows.of(packed))
        assert result.dedup_digest() == hashlib.sha256(want).hexdigest()

    def test_every_edge_address_kind_and_byte(self, monkeypatch):
        monkeypatch.setattr(rows, "_DIGEST_VECTOR_MIN", 1)
        packed = [
            ROW.pack(a.to_bytes(16, "big"), b.to_bytes(16, "big"),
                     code, icmp_type, icmp_code)
            for a in EDGES for b in EDGES for code in range(len(KINDS))
            for icmp_type, icmp_code in ((0, 0), (255, 255), (0, 255))
        ]
        text = rows.digest_text(packed)
        assert text == rows.digest_formula(packed)
        lines = text.decode().split("\n")
        assert "1::1:0:0:1:1|::|echo-reply|0|0" in lines
        assert "::|ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff" in text.decode()

    def test_a_head_written_with_the_formula_loads(self, tmp_path,
                                                   monkeypatch):
        """A DONE head whose digest the formula wrote (the parent commit,
        or no numpy) loads under the grid: no ``digest-mismatch``."""
        packed = _packed(64)
        whole = ScanResult(range=RANGE, results=Rows.of(packed))
        monkeypatch.setattr(rows, "_DIGEST_VECTOR_MIN", 1 << 30)
        store = CheckpointStore(tmp_path)
        store.write_shard(_state(DONE, 99, list(whole.results), whole))
        store.close()
        monkeypatch.undo()
        loaded = CheckpointStore(tmp_path).load_shard("job/0")
        assert loaded is not None and loaded.status == DONE
        assert loaded.digest == whole.dedup_digest()
        assert not [p for p in tmp_path.iterdir() if "corrupt" in p.name]


def _state(status, position, chunk, whole=None) -> ShardState:
    return ShardState(
        job_id="job/0", status=status, shard=0, shards=1, position=position,
        result=ScanResult(range=RANGE, results=chunk,
                          stats=ScanStats(sent=position)),
        whole=whole,
    )


class TestParentCheckpoint:
    """``tests/data/checkpoint-v2`` was written, and read back into
    ``expected.json``, by the code that kept results as objects: a PARTIAL
    log, a DONE head over a log, and a DONE head holding every row."""

    def test_loads_unchanged(self, tmp_path):
        directory = tmp_path / "ck"
        shutil.copytree(DATA, directory)
        expected = json.loads((DATA / "expected.json").read_text())
        store = CheckpointStore(directory)
        for job, want in expected.items():
            state = store.load_shard(job)
            assert state is not None, job
            assert state.status == want["status"]
            assert state.position == want["position"]
            assert state.digest == want["digest"]
            assert state.result.dedup_digest() == want["dedup_digest"]
            assert state.result.to_dict() == want["result"]
        store.close()
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            p.name for p in DATA.iterdir())  # nothing quarantined


class _SkewedEcho(IcmpEchoProbe):
    """Writes ident and seq under one key and checks them under another."""

    def __init__(self, validator: Validator, build_key: Validator) -> None:
        super().__init__(validator)
        self.build_key = build_key

    def _echo(self, dst):
        tag = self.build_key.tag(dst)
        return tag & 0xFFFF, (tag >> 16) & 0xFFFF, tag


class TestMutantProbe:
    def _scan(self, reference: bool):
        topo = build_world(flow_cache=not reference)
        probe = _SkewedEcho(Validator(seed_secret(5)), Validator(seed_secret(6)))
        rows = []
        inject_block = topo.network.inject_block

        def spy(block, vantage, clocks=None):
            outcomes = inject_block(block, vantage, clocks)
            rows.extend(getattr(outcomes, "rows", ()))
            return outcomes

        topo.network.inject_block = spy
        scanner = Scanner(topo.network, topo.vantage, probe,
                          ScanConfig(scan_range=RANGE, seed=5))
        return scanner.run(), rows

    def test_discards_every_reply_on_both_paths(self):
        walked, no_rows = self._scan(reference=True)
        settled, rows = self._scan(reference=False)
        assert not no_rows
        if columnar._np is not None:
            assert rows  # errors did come home as rows
        for result in (walked, settled):
            assert result.stats.received > 0
            assert result.stats.validated == 0 and not result.results
            assert result.stats.discarded == result.stats.received
        assert settled.stats.discarded == walked.stats.discarded
