"""The read path: stamped shared handles, limit pushdown, dict projection.

The daemon serves ``/results`` from one long-lived
:class:`~repro.store.store.ResultStore` per tenant, revalidated by stamp
(:meth:`~repro.store.store.ResultStore.valid`) instead of re-opened per
request.  The stamp is the whole correctness argument, so its cases are
generated here rather than picked:

* **Invalidation** — after every way the store can move behind a cached
  handle (in-process writers, another process, faults on disk), a read
  through :meth:`TenantStores.open` answers exactly as a cold
  ``ResultStore(dir)`` does.
* **Concurrency** — reader threads against a daemon that commits and
  drops rounds: every answer is one complete round, never a mixture.
* **Projection** — dicts decoded straight from the packed bytes equal
  ``to_dict()`` of the decoded rows, for every ``limit`` and both buffers;
  the ``/results`` body written from packed rows equals ``json.dumps`` of
  those dicts byte for byte, on the numpy grid and on the per-row join,
  and the grid equals the join exhaustively where the space is small
  (every zero-group mask, kind code, ICMPv6 type and code); a query
  filtering raw fields as ints answers as the object filters do; ``diff``
  from fields reports what it did from objects.
* **Work bound** — a ``limit=k`` read materialises at most k rows and
  opens no segment it does not need; a warm request reads no manifest.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.churn import ROUND_A, ROUND_B, run_churn_experiment
from repro.core.probes.base import ReplyKind
from repro.core import rows as rows_module
from repro.core import siphash
from repro.core.rows import (
    JSON_CHUNK,
    KINDS,
    ROW_SIZE,
    Rows,
    as_packed,
    as_results,
    pack_row,
    rows_json,
)
from repro.core.scanner import ProbeResult
from repro.net.addr import (
    MAX_ADDR,
    TEXT_WIDTH,
    IPv6Addr,
    IPv6Prefix,
    format_ipv6,
    format_ipv6_block,
    format_ipv6_packed,
    is_eui64_iid,
)
from repro.service import CampaignSpec, QueueError, ScanService, TenantPolicy
from repro.service.api import _rows_body
from repro.service.daemon import ResultsGone
from repro.service.tenants import TenantStores
from repro.store import (
    ResultStore,
    SegmentCorrupt,
    SegmentReader,
    SegmentWriter,
    StoreCorruption,
    StoreError,
)
from repro.store import oslayer as oslayer_module
from repro.store import store as store_module
from repro.store.query import ChurnReport, diff, query

ENV = {**os.environ, "PYTHONPATH": "src"}
TENANT = "t"


def _row(target, responder, kind=ReplyKind.DEST_UNREACHABLE, t=1, c=3):
    return ProbeResult(IPv6Addr(target), IPv6Addr(responder), kind, t, c)


def _rows(n, base=0x2001_0DB8 << 96):
    return [
        _row(base + (i << 64) + 0xBAD, base + (i << 64) + 1) for i in range(n)
    ]


def _commit(store, name, rows, snapshot, block_rows=8):
    writer = store.writer(name, block_rows=block_rows)
    writer.append_many(rows)
    store.commit([writer.seal()], snapshot=snapshot)


# ---------------------------------------------------------------------------
# (a) invalidation: a cached handle answers as a cold open does
# ---------------------------------------------------------------------------


def _seed(root: Path) -> None:
    """Two rounds in tenant ``t``'s store under ``root``."""
    stores = TenantStores(str(root))
    store = ResultStore(stores.store_dir(TENANT))
    _commit(store, "a", _rows(40), "aa")
    _commit(store, "b", _rows(24, base=0x2001_0DEA << 96), "bb")


def _manifest(root: Path) -> Path:
    return Path(TenantStores(str(root)).store_dir(TENANT)) / "manifest.json"


def _segment(root: Path, name: str) -> Path:
    return Path(TenantStores(str(root)).store_dir(TENANT)) / "segments" / name


def commit_via_other_handle(root):
    """What ``Campaign`` does: its own handle, same process."""
    store = ResultStore(TenantStores(str(root)).store_dir(TENANT))
    _commit(store, "c", _rows(16, base=0x2001_0DEB << 96), "cc")


def retention_through_enforce(root):
    TenantStores(str(root)).enforce(
        TENANT, TenantPolicy(retain_snapshots=1)
    )


def commit_from_subprocess(root):
    """Another process: this one's generation table never hears of it."""
    script = (
        "import sys\n"
        "from tests.test_read_path import commit_via_other_handle\n"
        "from pathlib import Path\n"
        "commit_via_other_handle(Path(sys.argv[1]))\n"
    )
    subprocess.run(
        [sys.executable, "-c", script, str(root)], check=True, env=ENV,
        cwd=Path(__file__).resolve().parent.parent, timeout=60,
    )


def three_rewrites_same_size(root):
    """aa→s1 becomes zz→s1 by way of two intermediate manifests; the first
    and last are the same size, and the rewrites land back to back."""
    store = ResultStore(TenantStores(str(root)).store_dir(TENANT))
    before = _manifest(root).stat().st_size
    store.create_snapshot("zz", ["a.seg"])
    store.drop_snapshot("aa")
    store.create_snapshot("yy", ["b.seg"])
    store.drop_snapshot("yy")
    # commits went 2 -> 4: same width, so only names tell the two apart.
    assert _manifest(root).stat().st_size == before


def delete_segment(root):
    _segment(root, "a.seg").unlink()


def truncate_segment(root):
    path = _segment(root, "a.seg")
    path.write_bytes(path.read_bytes()[:-10])


def flip_segment_byte(root):
    path = _segment(root, "a.seg")
    data = bytearray(path.read_bytes())
    data[50] ^= 0x01  # a row byte in block 0; the size is unchanged
    path.write_bytes(bytes(data))


def tear_manifest(root):
    path = _manifest(root)
    path.write_text(path.read_text()[:-40])


MUTATIONS = [
    commit_via_other_handle,
    retention_through_enforce,
    commit_from_subprocess,
    three_rewrites_same_size,
    delete_segment,
    truncate_segment,
    flip_segment_byte,
    tear_manifest,
]


def _outcome(open_store):
    """What one read returns — rows per round, or the exception it raises."""
    try:
        store = open_store()
        return {
            name: list(store.iter_dicts(snap.segments))
            for name, snap in sorted(store.snapshots.items())
        }
    except StoreError as exc:
        return type(exc)


@pytest.mark.parametrize("blind_stat", [False, True],
                         ids=["stamp", "stat-blinded"])
@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_cached_handle_answers_as_a_cold_open(
    tmp_path, monkeypatch, mutate, blind_stat
):
    """Two copies of one store take the same mutation behind the reader's
    back; one is then read through the cached handle, the other cold.  The
    answers agree read after read (the first may raise and quarantine, the
    second then serves the survivors), and so do the manifests left behind.

    ``stat-blinded`` makes every manifest look identical to ``stat`` — the
    worst an mtime tick and a recycled inode can do — so the in-process
    writers must be caught by the generation half alone.  The cases only
    the stat half can see (another process, a torn manifest) are skipped
    there: that is precisely what the half is for.
    """
    if blind_stat and mutate in (commit_from_subprocess, tear_manifest):
        pytest.skip("out-of-process change: visible to the stat half only")
    warm_root, cold_root = tmp_path / "warm", tmp_path / "cold"
    _seed(warm_root)
    shutil.copytree(warm_root, cold_root)
    if blind_stat:
        monkeypatch.setattr(
            store_module, "_stat_identity", lambda stat: (0, 0, 0, 0)
        )
    stores = TenantStores(str(warm_root))
    cached = stores.open(TENANT)
    assert stores.open(TENANT) is cached  # the stamp holds: same handle
    before = _outcome(lambda: cached)
    assert sorted(before) == ["aa", "bb"]

    mutate(warm_root)
    mutate(cold_root)
    cold_dir = TenantStores(str(cold_root)).store_dir(TENANT)
    for _ in range(3):
        warm = _outcome(lambda: stores.open(TENANT))
        cold = _outcome(lambda: ResultStore(cold_dir))
        assert warm == cold
    assert warm != before  # every mutation is visible in the answer
    assert isinstance(warm, dict)  # ... and the store serves again
    for root in (warm_root, cold_root):
        assert not list(_manifest(root).parent.glob("*.tmp"))
    assert _state(warm_root) == _state(cold_root)


def _state(root):
    """What the manifest says once the dust settles (None: quarantined)."""
    if not _manifest(root).exists():
        return None
    data = json.loads(_manifest(root).read_text())
    return (
        [segment["name"] for segment in data["segments"]],
        data["snapshots"], data["quarantined"], data["commits"],
    )


def test_a_handle_in_use_is_replaced_never_mutated(tmp_path):
    """A reader holding the previous handle keeps one complete manifest —
    including across a quarantine, whose surgery runs on a private copy."""
    _seed(tmp_path)
    stores = TenantStores(str(tmp_path))
    held = stores.open(TENANT)
    segments, snapshots = dict(held.segments), dict(held.snapshots)
    commit_via_other_handle(tmp_path)
    fresh = stores.open(TENANT)
    assert fresh is not held and "cc" in fresh.snapshots
    flip_segment_byte(tmp_path)
    with pytest.raises(StoreCorruption, match="quarantined"):
        list(fresh.iter_dicts())
    for handle in (held, fresh):
        assert "a.seg" in handle.segments  # untouched, merely out of date
        assert not handle.valid()
    assert (held.segments, held.snapshots) == (segments, snapshots)
    assert stores.open(TENANT).quarantined == ["a.seg"]


def test_two_readers_quarantine_one_segment_once(tmp_path):
    """Mid-read quarantine from two threads at once: one manifest rewrite,
    one entry, both readers told the truth."""
    _seed(tmp_path)
    stores = TenantStores(str(tmp_path))
    shared = stores.open(TENANT)
    flip_segment_byte(tmp_path)
    barrier = threading.Barrier(2)
    raised = []

    def read():
        barrier.wait(timeout=10)
        try:
            list(shared.iter_dicts())
        except StoreCorruption as exc:
            raised.append(exc)

    threads = [threading.Thread(target=read) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert len(raised) == 2
    reopened = ResultStore(stores.store_dir(TENANT))
    assert reopened.quarantined == ["a.seg"]
    assert list(reopened.segments) == ["b.seg"]


# ---------------------------------------------------------------------------
# (b) concurrency: every answer is one complete round
# ---------------------------------------------------------------------------

WINDOWS = [
    "2001:db8:1:40::/58-64",
    "2001:db8:0::/61-64",
    "2001:db8:1:50::/60-64",
    "2001:db8:1:60::/60-64",
    "2001:db8:2::/61-64",
    "2001:db8:1::/59-64",
]


def _submit_rounds(service):
    return [
        service.submit(CampaignSpec(
            tenant="alice", name=f"r{i}", scan_range=window, seed=i, shards=2,
        ))["campaign_id"]
        for i, window in enumerate(WINDOWS)
    ]


def test_readers_race_commits_and_retention(tmp_path):
    """Reader threads loop ``service.results`` over every campaign while
    the daemon commits new rounds of the same tenant and retention drops
    (and compacts away) old ones.  Each answer is the campaign's complete
    row set as an undisturbed daemon stores it, "not done yet", or "gone"
    — never a partial round, a corruption report, or a stray exception."""
    calm = ScanService(str(tmp_path / "calm"), max_workers=1, scope="race")
    ids = _submit_rounds(calm)
    calm.run_until_idle()
    expected = {cid: calm.results(cid) for cid in ids}
    assert sum(1 for rows in expected.values() if rows) >= 4

    service = ScanService(
        str(tmp_path / "svc"), max_workers=2, scope="race",
        default_policy=TenantPolicy(max_in_flight=1, retain_snapshots=2),
    )
    assert _submit_rounds(service) == ids
    stop = threading.Event()
    complete = {cid: 0 for cid in ids}
    gone = set()
    wrong = []

    def reader():
        while not stop.is_set():
            for cid in ids:
                try:
                    rows = service.results(cid)
                except QueueError:
                    continue  # not done yet
                except ResultsGone:
                    gone.add(cid)
                    continue
                except Exception as exc:  # noqa: BLE001 - the assertion
                    wrong.append((cid, repr(exc)))
                    continue
                if rows == expected[cid]:
                    complete[cid] += 1
                else:
                    wrong.append((cid, f"{len(rows)} rows"))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        service.run_until_idle()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    # Retention kept the newest two; they still read back whole.
    assert gone <= set(ids[:-2])
    for cid in ids[-2:]:
        assert service.results(cid) == expected[cid]
    for cid in ids[:-2]:
        with pytest.raises(ResultsGone, match="retain_snapshots=2"):
            service.results(cid)
    assert sum(complete.values()) > 0


# ---------------------------------------------------------------------------
# (c) projection: dicts from bytes == to_dict() of the rows
# ---------------------------------------------------------------------------

BLOCK = 4

_GROUP = st.sampled_from([0, 0, 0, 1, 0xFFFF, 0x10, 0xABCD])
#: Addresses whose zero runs exercise every branch of the compressor:
#: ``::``, ``::1``, all-ones, lone zero groups, tied runs, IPv4-mapped.
ADDRESSES = st.one_of(
    st.sampled_from([
        0, 1, MAX_ADDR,
        0xFFFF_0102_0304, 0x0102_0304,  # ::ffff:1.2.3.4, ::1.2.3.4
        0x2001_0DB8_0000_0001_0001_0001_0001_0001,  # one lone zero group
        0x2001_0000_0000_0001_0000_0000_0001_0001,  # tie: leftmost wins
        0x2001_0000_0000_0001_0000_0000_0000_0001,  # longer run on the right
        0x0000_0000_0001_0000_0000_0000_0000_0000,  # runs at both ends
    ]),
    st.lists(_GROUP, min_size=8, max_size=8).map(
        lambda groups: int("".join(f"{g:04x}" for g in groups), 16)
    ),
    st.integers(0, MAX_ADDR),
)
ROWS = st.lists(
    st.builds(
        _row, ADDRESSES, ADDRESSES, st.sampled_from(list(ReplyKind)),
        st.integers(0, 255), st.integers(0, 255),
    ),
    max_size=3 * BLOCK + 1,
)


def _reference_format(value: int) -> str:
    """RFC 5952 by the book: the group loop the fast formatter replaced."""
    groups = [(value >> (112 - 16 * i)) & 0xFFFF for i in range(8)]
    best_start, best_len, run_start, run_len = -1, 0, -1, 0
    for i, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


@given(ADDRESSES)
def test_formatter_matches_the_reference_loop(value):
    assert format_ipv6(value) == _reference_format(value)
    assert str(IPv6Addr(value)) == _reference_format(value)


#: Values of byte 9 (the last byte of ``::/80``'s prefix) and of the 48
#: bits after it: ``::/80`` is where dotted-quad forms (``::ffff:1.2.3.4``,
#: ``::1.2.3.4``) begin, so the cases straddle its edge.
_BYTE9 = st.one_of(st.just(0), st.sampled_from([1 << bit for bit in range(8)]),
                   st.integers(0, 255))
_LOW48 = st.one_of(
    st.sampled_from([0, 1, 0xFFFF_0102_0304, 0x0102_0304, 0xFFFF_0000_0000,
                     0x0000_FFFF_0000, 0xFFFF_FFFF_FFFF]),
    st.integers(0, (1 << 48) - 1),
)


@given(byte9=_BYTE9, low=_LOW48, high=st.sampled_from([0, 0, 1, 0x2001]))
def test_formatter_at_the_edge_of_slash80(byte9, low, high):
    """On both sides of ``::/80``'s edge — a nonzero bit in bytes 0-9, or
    all of them zero — the form is the reference one, never a dotted
    quad."""
    value = (high << 112) | (byte9 << 48) | low
    assert format_ipv6(value) == _reference_format(value)
    assert "." not in format_ipv6(value)


@settings(deadline=None, max_examples=60)
@given(first=ROWS, second=ROWS, use_mmap=st.booleans())
def test_projection_equals_to_dict_for_every_limit(first, second, use_mmap):
    """Across block and segment boundaries, for every limit that falls on,
    before and after one: the projected dicts are ``to_dict()`` of the
    decoded rows, and both stop where the limit says."""
    with tempfile.TemporaryDirectory() as directory:
        store = ResultStore(directory, use_mmap=use_mmap)
        _commit(store, "one", first, "r1", block_rows=BLOCK)
        _commit(store, "two", second, "r2", block_rows=BLOCK)
        rows = first + second
        assert list(store.iter_rows()) == rows
        everything = [row.to_dict() for row in rows]
        limits = {None, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                  len(first), len(first) + 1, len(rows) + 5}
        for limit in limits:
            assert list(store.iter_dicts(limit=limit)) == everything[:limit]
            assert list(store.iter_rows(limit=limit)) == rows[:limit]
        blocks = {"one.seg": [1], "two.seg": [0]}
        picked = first[BLOCK:2 * BLOCK] + second[:BLOCK]
        for limit in (None, 1, BLOCK + 1):
            assert list(
                store.iter_dicts(blocks_for=blocks, limit=limit)
            ) == [row.to_dict() for row in picked][:limit]


def _check_results_body(first, second, use_mmap):
    with tempfile.TemporaryDirectory() as directory:
        store = ResultStore(directory, use_mmap=use_mmap)
        _commit(store, "one", first, "r1", block_rows=BLOCK)
        _commit(store, "two", second, "r2", block_rows=BLOCK)
        rows = first + second
        limits = {None, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                  len(first), len(first) + 1, len(rows) + 5}
        for limit in limits:
            packed = Rows.of(list(store.iter_rows(limit=limit,
                                                  project=as_packed)))
            assert packed == rows[:limit]
            assert _rows_body(packed) == json.dumps(
                {"rows": [r.to_dict() for r in rows[:limit]]}
            ).encode()


@settings(deadline=None, max_examples=60)
@given(first=ROWS, second=ROWS, use_mmap=st.booleans())
def test_results_body_is_json_dumps_of_the_dicts(first, second, use_mmap):
    """For every limit across block and segment boundaries, the body
    ``/results`` writes from packed rows is byte for byte the one
    ``json.dumps`` writes from the rows' dicts."""
    _check_results_body(first, second, use_mmap)


@settings(deadline=None, max_examples=60)
@given(first=ROWS, second=ROWS, use_mmap=st.booleans())
def test_results_body_is_json_dumps_of_the_dicts_on_the_grid(
    first, second, use_mmap
):
    """The same with the crossover at 0, so every body is rendered on the
    grid (without numpy, on the join): the bodies generated here hold at
    most 26 rows, and most of them fewer than the real crossover."""
    with mock.patch.object(rows_module, "_JSON_VECTOR_MIN", 0):
        _check_results_body(first, second, use_mmap)


_needs_numpy = pytest.mark.skipif(siphash._np is None,
                                  reason="the grid runs on numpy")
#: Group values a nonzero group takes in the exhaustive cases: one to four
#: hex digits, each with a leading-zero case.
_FILLS = (1, 0x10, 0xABCD, 0xFFFF)


def _masked(mask: int, fill: int) -> int:
    """The address whose group g is 0 where bit 7 - g of ``mask`` is set,
    ``fill`` elsewhere."""
    return int("".join("0000" if mask >> (7 - g) & 1 else f"{fill:04x}"
                       for g in range(8)), 16)


def _packed_rows(count: int, seed: int) -> bytes:
    """``count`` packed rows of zero-biased addresses, every kind code and
    random ICMPv6 type and code."""
    rng = random.Random(seed)
    groups = [0, 0, 0, 1, 0x10, 0xABCD, 0xFFFF]

    def address() -> bytes:
        return b"".join(
            (rng.choice(groups) if rng.random() < 0.8
             else rng.randrange(1 << 16)).to_bytes(2, "big")
            for _ in range(8)
        )
    return b"".join(
        address() + address()
        + bytes([rng.randrange(len(KINDS)), rng.randrange(256),
                 rng.randrange(256)])
        for _ in range(count)
    )


def _joined(data: bytes) -> bytes:
    """The oracle: ``", ".join`` of :meth:`Rows.json`, encoded."""
    return ", ".join(Rows.unpack(data).json()).encode()


@_needs_numpy
def test_block_formatter_on_every_zero_group_mask():
    """All 256 zero-group masks × four group fills, as one column: each row
    is the scalar formatter's and the reference loop's text."""
    values = [_masked(mask, fill) for mask in range(256) for fill in _FILLS]
    column = siphash._np.frombuffer(
        b"".join(value.to_bytes(16, "big") for value in values),
        dtype=siphash._np.uint8,
    ).reshape(-1, 16)
    grid = format_ipv6_block(column)
    assert grid.shape == (len(values), TEXT_WIDTH)
    for value, row in zip(values, grid):
        text = row.tobytes().replace(b"\0", b"").decode()
        assert text == format_ipv6_packed(value.to_bytes(16, "big"))
        assert text == _reference_format(value)


@_needs_numpy
def test_grid_on_every_kind_type_and_code(monkeypatch):
    """Every kind code, and every ICMPv6 type and code 0-255, rendered on
    the grid: byte for byte the :func:`row_json` join."""
    monkeypatch.setattr(rows_module, "_JSON_VECTOR_MIN", 0)
    target, responder = (_masked(0b00111000, 0xABCD).to_bytes(16, "big"),
                         _masked(0b11000011, 0x10).to_bytes(16, "big"))
    data = b"".join(
        target + responder + bytes([code, value, 255 - value])
        for code in range(len(KINDS)) for value in range(256)
    )
    assert rows_json(data) == _joined(data)


@_needs_numpy
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_grid_across_its_chunk_edge(offset):
    """Bodies of one chunk less, exactly one and one more: the chunks join
    with the separator the scalar join puts between rows."""
    data = _packed_rows(JSON_CHUNK + offset, seed=offset)
    assert rows_json(data) == _joined(data)


@_needs_numpy
def test_a_body_past_the_crossover_calls_no_scalar_formatter(monkeypatch):
    """Census: a body of the crossover's rows is rendered without one
    :func:`format_ipv6_packed` call; one row fewer takes two a row."""
    calls = []

    def counting(packed):
        calls.append(packed)
        return format_ipv6_packed(packed)

    monkeypatch.setattr(rows_module, "format_ipv6_packed", counting)
    data = _packed_rows(rows_module._JSON_VECTOR_MIN, seed=7)
    assert _rows_body(Rows.unpack(data)) == (
        b'{"rows": [' + _joined(data) + b"]}"
    )
    calls.clear()
    _rows_body(Rows.unpack(data))
    assert calls == []
    _rows_body(Rows.unpack(data[:-ROW_SIZE]))
    assert len(calls) == 2 * (rows_module._JSON_VECTOR_MIN - 1)


@given(rows=ROWS, order=st.permutations(list(ReplyKind)))
def test_packed_rows_are_recoded_against_the_current_kind_table(rows, order):
    """Rows stored against another kind table come out packed against
    today's: the same rows the object projection reads."""
    data = b"".join(pack_row(row) for row in rows)
    assert as_packed(data, order) == [
        pack_row(row) for row in as_results(data, order)
    ]


#: Prefixes around the generated addresses: every length a query can ask.
_PREFIX_LENGTHS = st.sampled_from([0, 1, 16, 32, 48, 56, 63, 64, 65, 96, 128])


@settings(deadline=None, max_examples=60)
@given(
    rows=ROWS, anchor=ADDRESSES, length=_PREFIX_LENGTHS,
    responder=st.one_of(st.none(), ADDRESSES),
    kind=st.one_of(st.none(), st.sampled_from(list(ReplyKind))),
    pick=st.integers(0, 3 * BLOCK),
)
def test_query_on_fields_equals_the_object_filters(
    rows, anchor, length, responder, kind, pick
):
    """``query`` tests prefix, responder /64 and kind on raw ints; it
    answers exactly what the filters on :class:`ProbeResult` objects do,
    for prefixes around a stored row's target as well as arbitrary ones."""
    if rows and pick % 2:  # half the time, around a stored target
        anchor = rows[pick % len(rows)].target.value
    prefix = IPv6Prefix(anchor >> (128 - length) << (128 - length), length)
    responder64 = (
        None if responder is None else IPv6Addr(responder).slash64
    )
    with tempfile.TemporaryDirectory() as directory:
        store = ResultStore(directory)
        _commit(store, "one", rows, "r1", block_rows=BLOCK)
        expected = [
            row for row in rows
            if prefix.contains(row.target)
            and (responder64 is None or row.responder.slash64 == responder64)
            and (kind is None or row.kind == kind)
        ]
        assert list(query(store, prefix=prefix, responder64=responder64,
                          kind=kind)) == expected
        assert list(query(store, snapshot="r1", kind=kind)) == [
            row for row in rows if kind is None or row.kind == kind
        ]


def _object_diff(store, snapshot_a, snapshot_b):
    """The churn report as it was computed from ProbeResult objects."""
    profiles = []
    for snapshot in (snapshot_a, snapshot_b):
        rows = list(query(store, snapshot=snapshot))
        responders = {row.responder.value for row in rows}
        eui64 = sum(1 for value in responders
                    if is_eui64_iid(value & ((1 << 64) - 1)))
        profiles.append((
            responders, {value >> 64 for value in responders}, len(rows),
            eui64 / len(responders) if responders else 0.0,
        ))
    (resp_a, s64_a, rows_a, share_a), (resp_b, s64_b, rows_b, share_b) = (
        profiles
    )
    return ChurnReport(
        snapshot_a, snapshot_b, new=resp_b - resp_a, lost=resp_a - resp_b,
        stable=resp_a & resp_b, new_slash64=s64_b - s64_a,
        lost_slash64=s64_a - s64_b, stable_slash64=s64_a & s64_b,
        rows_a=rows_a, rows_b=rows_b, eui64_share_a=share_a,
        eui64_share_b=share_b,
    ).to_dict()


def test_diff_from_fields_on_the_churn_example(tmp_path):
    run_churn_experiment(str(tmp_path / "store"))
    store = ResultStore(tmp_path / "store")
    report = diff(store, ROUND_A, ROUND_B).to_dict()
    assert report == _object_diff(store, ROUND_A, ROUND_B)
    assert report["lost"] > 0 and report["stable"] > 0


@settings(deadline=None, max_examples=40)
@given(first=ROWS, second=ROWS)
def test_diff_from_fields_on_generated_rounds(first, second):
    with tempfile.TemporaryDirectory() as directory:
        store = ResultStore(directory)
        _commit(store, "one", first, "r1", block_rows=BLOCK)
        _commit(store, "two", second, "r2", block_rows=BLOCK)
        assert diff(store, "r1", "r2").to_dict() == _object_diff(
            store, "r1", "r2"
        )


@pytest.mark.parametrize("use_mmap", [True, False])
@pytest.mark.parametrize("project", ["iter_rows", "iter_dicts"])
def test_short_kind_table_is_corruption_in_both_projections(
    tmp_path, use_mmap, project
):
    """A stored code past the recorded table raises — and only when a row
    carrying it is materialised (the limit stops short of it cleanly)."""
    rows = [_row(i, i + 1, kind) for i, kind in enumerate(ReplyKind)]
    writer = SegmentWriter(tmp_path / "k.seg", block_rows=BLOCK)
    writer.append_many(rows)
    meta = writer.seal()
    meta["kinds"] = meta["kinds"][:2]
    reader = SegmentReader(tmp_path / "k.seg", meta, use_mmap=use_mmap)
    assert len(list(getattr(reader, project)(limit=2))) == 2
    with pytest.raises(SegmentCorrupt, match="kind code 3 outside"):
        list(getattr(reader, project)())
    with pytest.raises(SegmentCorrupt, match="kind code"):
        list(getattr(reader, project)(limit=3))


def test_limit_still_checks_the_whole_blocks_crc(tmp_path):
    """The damaged byte is in the block's last row; a read that wants only
    its first must still refuse the block."""
    writer = SegmentWriter(tmp_path / "a.seg", block_rows=16)
    writer.append_many(_rows(16))
    meta = writer.seal()
    data = bytearray((tmp_path / "a.seg").read_bytes())
    data[-10] ^= 0x01
    (tmp_path / "a.seg").write_bytes(bytes(data))
    reader = SegmentReader(tmp_path / "a.seg", meta)
    with pytest.raises(SegmentCorrupt, match="CRC"):
        list(reader.iter_dicts(limit=1))


# ---------------------------------------------------------------------------
# (d) work bound: cost follows the rows returned
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Counts of what a read materialises, opens and validates."""
    counts = {"rows": 0, "segments": 0, "opens": 0, "loads": 0, "sha": 0}

    def counting(owner, attr, key, amount=lambda args: 1):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += amount(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(SegmentReader, "_decode_rows", "rows", lambda args: args[2])
    counting(SegmentReader, "_buffer", "segments")
    counting(ResultStore, "__init__", "opens")
    counting(ResultStore, "_load_manifest", "loads")
    counting(oslayer_module, "document_checksum", "sha")
    return counts


def test_limited_read_costs_what_it_returns(tmp_path, counted):
    service = ScanService(str(tmp_path / "svc"), max_workers=1, scope="wb")
    cid = service.submit(CampaignSpec(
        tenant="alice", name="a", scan_range=WINDOWS[0], seed=1, shards=4,
    ))["campaign_id"]
    service.run_until_idle()
    full = service.results(cid)  # also warms the tenant's handle
    snapshot = service.stores.open("alice").snapshot(f"round-{cid}")
    per_segment = [
        service.stores.open("alice").reader(name).rows
        for name in snapshot.segments
    ]
    assert len(per_segment) == 4 and min(per_segment) > 2
    for k in (0, 1, per_segment[0], per_segment[0] + 1, len(full) + 9):
        for key in counted:
            counted[key] = 0
        assert service.results(cid, limit=k) == full[:k]
        assert counted["rows"] == min(k, len(full))
        needed, covered = 0, 0
        while covered < min(k, len(full)):
            covered += per_segment[needed]
            needed += 1
        assert counted["segments"] == needed
        # Warm: no store open, no manifest read or parse, no SHA-256.
        assert (counted["opens"], counted["loads"], counted["sha"]) == (0, 0, 0)
