"""Rendered rounds: ``/results`` served as a slice of a body rendered once.

A full ``/results`` read keeps the round's text beside the tenant's shared
read handle (:meth:`TenantStores.render`); later full and ``?limit=`` reads
are served from it after the checks an uncached read would run.  Every
case here holds the served bytes to the oracle,
``_rows_body(service.results(cid, limit))``:

* **Byte identity** — cold and warm, full and limited, across the grid
  crossover, chunk edges and segment edges, on the grid and on the join.
* **Integrity parity** — a flipped byte a warm read covers is a 500 and a
  quarantine; one past a warm ``?limit=``'s blocks is not, as uncached; a
  same-size, self-consistent rewrite is rendered again, never served stale.
* **Invalidation** — a commit, a retention drop and a compaction each
  retire the rendered rounds with the handle.
* **Concurrency** — readers against retention: whole bodies or 410s.
* **Budget** — a round over it is served and not kept; eviction is LRU.
"""

import http.client
import json
import socket
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import rows as rows_module
from repro.core import siphash
from repro.core.probes.base import ReplyKind
from repro.core.rows import JSON_CHUNK, ProbeResult
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.service import (
    CampaignSpec,
    ScanService,
    ServiceClient,
    ServiceServer,
    TenantPolicy,
)
from repro.service import api as api_module
from repro.service import tenants as tenants_module
from repro.service.api import _rows_body
from repro.store import ResultStore, SegmentWriter
from repro.store.query import query

TENANT = "alice"


def _rows(n, seed=0):
    """``n`` rows with varied addresses, kinds, types and codes."""
    kinds = list(ReplyKind)
    return [
        ProbeResult(
            IPv6Addr((0x2001_0DB8 << 96) + (seed << 80) + (i << 64) + i),
            IPv6Addr((0x2001_0DB8 << 96) + (i % 7 << 64) + (i * 977 % 65536)),
            kinds[(i + seed) % len(kinds)], (i * 7) % 256, (i + seed) % 256,
        )
        for i in range(n)
    ]


class Round:
    """One finished campaign whose stored round a test may replace."""

    def __init__(self, root, policy=None):
        self.service = ScanService(
            str(root), max_workers=1, scope="rr", default_policy=policy,
        )
        self.cid = self.submit("2001:db8:1:40::/58-64", seed=3)
        self.service.run_until_idle()
        self.server = ServiceServer(self.service).start()
        self.client = ServiceClient(self.server.address)
        self.layouts = 0

    def submit(self, window, seed):
        return self.service.submit(CampaignSpec(
            tenant=TENANT, name=f"c{seed}", scan_range=window, seed=seed,
            shards=2,
        ))["campaign_id"]

    @property
    def stores(self):
        return self.service.stores

    def snapshot(self, cid=None):
        return self.service.queue.get(cid or self.cid).snapshot

    def private(self):
        """A handle of the tenant's store of its own, as writers use."""
        return ResultStore(self.stores.store_dir(TENANT))

    def replace(self, segments, block_rows=4):
        """Make the round ``segments`` (a list of row lists), committed
        as a campaign commits."""
        store = self.private()
        store.drop_snapshot(self.snapshot())
        metas = []
        for rows in segments:
            self.layouts += 1
            writer = store.writer(f"gen-{self.layouts}", block_rows=block_rows)
            writer.append_many(rows)
            metas.append(writer.seal())
        store.commit(metas, snapshot=self.snapshot())

    def body(self, limit=None, cid=None):
        """(status, body) of one ``/results`` request over HTTP."""
        path = f"/v1/campaigns/{cid or self.cid}/results"
        if limit is not None:
            path += f"?limit={limit}"
        status, _, body = self.client._exchange("GET", path, None)
        return status, body

    def oracle(self, limit=None, cid=None):
        return _rows_body(self.service.results(cid or self.cid, limit))

    def kept(self):
        """Snapshots with a rendered round kept."""
        return [name for _, name in self.stores._rendered]

    def close(self):
        self.server.stop()


@pytest.fixture
def round_(tmp_path):
    made = Round(tmp_path / "svc")
    yield made
    made.close()


def _assert_every_read_is_the_oracle(round_, n):
    limits = sorted({0, 1, 2, n // 2, max(n - 1, 0), n, n + 1,
                     JSON_CHUNK - 1, JSON_CHUNK, JSON_CHUNK + 1})
    for limit in limits:  # cold: served as decoded, nothing kept
        assert round_.body(limit) == (200, round_.oracle(limit)), limit
    assert round_.kept() == []
    full = round_.oracle()
    assert full == json.dumps({"rows": [
        row.to_dict() for row in round_.service.results(round_.cid)
    ]}).encode()
    assert round_.body() == (200, full)  # cold full read: rendered, kept
    assert round_.kept() == [round_.snapshot()]
    assert round_.body() == (200, full)  # warm
    for limit in limits:
        assert round_.body(limit) == (200, round_.oracle(limit)), limit


#: Round layouts (rows per segment): both sides of the grid crossover, of
#: a chunk's edge, and of a segment's, and empty segments.
LAYOUTS = [
    [0], [1], [15], [16], [17], [7, 9], [0, 16, 0], [1023], [1024],
    [1025], [600, 600], [1, JSON_CHUNK, 2],
]


@pytest.mark.parametrize("vector_min", ["crossover", 0])
def test_every_read_is_the_oracle_body(round_, monkeypatch, vector_min):
    """Cold full, warm full, and cold and warm ``?limit=`` at 0, 1, k,
    n-1, n and n+1 — byte for byte the oracle, for every layout."""
    if vector_min == 0:
        monkeypatch.setattr(rows_module, "_JSON_VECTOR_MIN", 0)
    for seed, sizes in enumerate(LAYOUTS):
        round_.replace([_rows(n, seed + k) for k, n in enumerate(sizes)],
                       block_rows=1 + seed % 5 * 100)
        _assert_every_read_is_the_oracle(round_, sum(sizes))


def test_the_round_as_the_campaign_stored_it(round_):
    """The campaign's own round, before any replacement."""
    assert len(round_.service.results(round_.cid)) > 2
    _assert_every_read_is_the_oracle(
        round_, len(round_.service.results(round_.cid))
    )


def test_a_full_read_parses_no_prefix_index(round_):
    """Only a query reads a segment's prefix index: cold and warm full
    reads and a ``?limit=`` leave every reader's index unparsed, and a
    query that then parses it answers as brute force does."""
    full = round_.oracle()
    assert round_.body() == (200, full)
    assert round_.body() == (200, full)
    assert round_.body(1) == (200, round_.oracle(1))
    store = round_.stores.open(TENANT)
    readers = [store.reader(name) for name in store.segments]
    assert readers
    assert not any("index" in vars(reader) for reader in readers)
    everything = list(store.iter_rows())
    prefix = IPv6Prefix.from_string("2001:db8:1:60::/60")
    slash64 = everything[0].responder.slash64
    under = [r for r in everything if prefix.contains(r.target)]
    assert 0 < len(under) < len(everything)
    assert list(query(store, prefix=prefix)) == under
    assert list(query(store, responder64=slash64)) == [
        r for r in everything if r.responder.slash64 == slash64
    ]
    assert all("index" in vars(reader) for reader in readers)


_ROW = st.builds(
    ProbeResult,
    st.integers(0, (1 << 128) - 1).map(IPv6Addr),
    st.sampled_from([0, 1, 0xFFFF_0102_0304, (1 << 128) - 1,
                     0x2001_0DB8 << 96]).map(IPv6Addr),
    st.sampled_from(list(ReplyKind)), st.integers(0, 255),
    st.integers(0, 255),
)


@pytest.fixture(scope="module")
def shared_round(tmp_path_factory):
    made = Round(tmp_path_factory.mktemp("svc"))
    yield made
    made.close()


@settings(deadline=None, max_examples=25)
@given(segments=st.lists(st.lists(_ROW, max_size=40), min_size=1,
                         max_size=3),
       block_rows=st.integers(1, 16), on_grid=st.booleans())
def test_generated_rounds_read_as_the_oracle(
    shared_round, segments, block_rows, on_grid
):
    shared_round.replace(segments, block_rows)
    vector_min = 0 if on_grid else rows_module._JSON_VECTOR_MIN
    saved = rows_module._JSON_VECTOR_MIN
    rows_module._JSON_VECTOR_MIN = vector_min
    try:
        _assert_every_read_is_the_oracle(shared_round, sum(map(len, segments)))
    finally:
        rows_module._JSON_VECTOR_MIN = saved


# ---------------------------------------------------------------------------
# integrity parity: a hit checks what an uncached read would decode
# ---------------------------------------------------------------------------


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01  # same size: only a block CRC can tell
    path.write_bytes(bytes(data))


def test_a_flip_a_warm_read_covers_is_a_500_then_survivors(round_):
    round_.replace([_rows(40, 1), _rows(30, 2)], block_rows=8)
    assert round_.body()[0] == 200  # rendered
    store = round_.stores.open(TENANT)
    victim, survivor = store.snapshot(round_.snapshot()).segments
    _flip(store.segment_path(victim), 8 + 4 + 3 * 35)  # block 0, row 3
    status, body = round_.body()
    assert status == 500
    assert "quarantined" in json.loads(body)["error"]
    assert victim in json.loads(body)["error"]
    assert round_.private().quarantined == [victim]
    rest = round_.body()
    assert rest == (200, round_.oracle())
    assert len(json.loads(rest[1])["rows"]) == 30
    assert round_.body(1) == (200, round_.oracle(1))


def test_a_flip_past_a_warm_limit_is_served_as_uncached(round_):
    round_.replace([_rows(40, 1), _rows(30, 2)], block_rows=8)
    assert round_.body()[0] == 200  # rendered
    store = round_.stores.open(TENANT)
    _, second = store.snapshot(round_.snapshot()).segments
    _flip(store.segment_path(second), 8 + 4 + 35)  # its first block
    # ?limit=1 decodes only the first segment's first block: 200, as an
    # uncached read answers.
    assert round_.body(1) == (200, round_.oracle(1))
    assert round_.body(40) == (200, round_.oracle(40))
    assert round_.private().quarantined == []
    assert round_.body(41)[0] == 500
    assert round_.private().quarantined == [second]


def test_a_same_size_rewrite_is_rendered_again_never_stale(round_):
    """A self-consistent segment of the same size replaces one behind the
    handle: the manifest does not move, every CRC holds — only the trailers
    differ from the ones the text was rendered from."""
    round_.replace([_rows(20, 1)], block_rows=8)
    before = round_.body()
    assert before == (200, round_.oracle())
    store = round_.stores.open(TENANT)
    (name,) = store.snapshot(round_.snapshot()).segments
    path = store.segment_path(name)
    size = path.stat().st_size
    writer = SegmentWriter(path, block_rows=8)
    writer.append_many(_rows(20, 9))
    writer.seal()
    assert path.stat().st_size == size
    assert round_.stores.open(TENANT) is store  # the stamp did not move
    for limit in (1, None, 5):
        assert round_.body(limit) == (200, round_.oracle(limit))
    assert round_.body()[1] != before[1]
    assert json.loads(round_.body()[1])["rows"] == [
        row.to_dict() for row in _rows(20, 9)
    ]


# ---------------------------------------------------------------------------
# invalidation: the stamp is the one rule
# ---------------------------------------------------------------------------


def test_a_commit_of_another_campaign_retires_the_rendered_rounds(round_):
    first = round_.body()
    assert round_.kept() == [round_.snapshot()]
    other = round_.submit("2001:db8:0::/61-64", seed=4)
    round_.service.run_until_idle()
    round_.stores.open(TENANT)  # the stamp moved: a new handle
    assert round_.kept() == []  # ... with nothing rendered
    assert round_.body() == first == (200, round_.oracle())
    assert round_.body(cid=other) == (200, round_.oracle(cid=other))
    assert sorted(round_.kept()) == sorted(
        [round_.snapshot(), round_.snapshot(other)]
    )


def test_compaction_retires_the_rendered_rounds(round_):
    round_.replace([_rows(9, 1), _rows(9, 2), _rows(9, 3)], block_rows=2)
    expected = round_.body()
    assert expected == (200, round_.oracle())
    held = round_.stores.open(TENANT)
    summary = round_.private().compact()
    assert summary
    fresh = round_.stores.open(TENANT)
    assert fresh is not held and round_.kept() == []
    assert set(fresh.segments).isdisjoint(held.segments)
    assert round_.body() == expected == (200, round_.oracle())
    assert round_.body(10) == (200, round_.oracle(10))


def test_a_round_compacted_under_a_warm_read_is_read_again(
    round_, monkeypatch
):
    """A compaction lands between the read's ``open`` and its checks: the
    segments the rendered round came from are gone (StoreStale, not
    corruption), and the read starts again on the new handle."""
    round_.replace([_rows(9, 1), _rows(9, 2), _rows(9, 3)], block_rows=2)
    expected = round_.body()
    assert expected == (200, round_.oracle())
    open_ = round_.stores.open
    landed = []

    def open_then_compact(tenant):
        store = open_(tenant)
        if not landed:
            landed.append(round_.private().compact())
        return store

    monkeypatch.setattr(round_.stores, "open", open_then_compact)
    # Straight to the service: a client would retry a dropped connection.
    text = round_.service.results_text(round_.cid)
    assert (200, b'{"rows": [' + b"".join(text) + b"]}") == expected
    assert landed and round_.private().quarantined == []
    assert round_.kept() == [round_.snapshot()]


def test_a_retention_drop_is_a_410(tmp_path):
    made = Round(tmp_path / "svc", TenantPolicy(retain_snapshots=1))
    try:
        assert made.body()[0] == 200
        assert made.kept() == [made.snapshot()]
        newer = made.submit("2001:db8:0::/61-64", seed=4)
        made.service.run_until_idle()  # retention drops the first round
        status, body = made.body()
        assert status == 410
        assert "retain_snapshots=1" in json.loads(body)["error"]
        assert made.body(1)[0] == 410
        assert made.kept() == []
        assert made.body(cid=newer) == (200, made.oracle(cid=newer))
    finally:
        made.close()


# ---------------------------------------------------------------------------
# concurrency: whole oracle bodies or 410s, nothing between
# ---------------------------------------------------------------------------

WINDOWS = [
    "2001:db8:1:40::/58-64",
    "2001:db8:0::/61-64",
    "2001:db8:1:50::/60-64",
    "2001:db8:1:60::/60-64",
    "2001:db8:2::/61-64",
]


def _submit(service):
    return [
        service.submit(CampaignSpec(
            tenant=TENANT, name=f"r{i}", scan_range=window, seed=i, shards=2,
        ))["campaign_id"]
        for i, window in enumerate(WINDOWS)
    ]


def test_readers_race_retention_and_compaction(tmp_path):
    calm = ScanService(str(tmp_path / "calm"), max_workers=1, scope="race")
    ids = _submit(calm)
    calm.run_until_idle()
    expected = {
        (cid, limit): _rows_body(calm.results(cid, limit))
        for cid in ids for limit in (None, 3)
    }
    service = ScanService(
        str(tmp_path / "svc"), max_workers=2, scope="race",
        default_policy=TenantPolicy(max_in_flight=1, retain_snapshots=2),
    )
    assert _submit(service) == ids
    server = ServiceServer(service).start()
    stop = threading.Event()
    whole, gone, wrong = [], [], []

    def reader():
        # A plain connection: ServiceClient would retry a GET whose
        # connection the server dropped, hiding the failure.
        connection = http.client.HTTPConnection(
            *server.httpd.server_address[:2], timeout=30
        )
        while not stop.is_set():
            for (cid, limit), body in expected.items():
                query = "" if limit is None else f"?limit={limit}"
                try:
                    connection.request(
                        "GET", f"/v1/campaigns/{cid}/results{query}"
                    )
                    response = connection.getresponse()
                    status, got = response.status, response.read()
                except Exception as exc:  # noqa: BLE001 - the assertion
                    wrong.append((cid, limit, repr(exc)))
                    connection.close()
                    continue
                if status == 200 and got == body:
                    whole.append(cid)
                elif status == 410:
                    gone.append(cid)
                elif status != 404:  # 404: not done yet
                    wrong.append((cid, limit, status, got[:80]))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        service.run_until_idle()  # commits; retention drops and compacts
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
        server.stop()
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert set(gone) <= set(ids[:-2])
    assert whole
    # What is kept is the current handle's, within the budget, accounted.
    stores = service.stores
    current = stores.open(TENANT)
    for (_, name), rendered in stores._rendered.items():
        assert rendered.store is current and name in current.snapshots
    assert stores._rendered_bytes == sum(
        rendered.text.nbytes for rendered in stores._rendered.values()
    ) <= tenants_module.RENDERED_BUDGET
    for cid in ids[-2:]:
        assert _rows_body(service.results(cid)) == expected[(cid, None)]


# ---------------------------------------------------------------------------
# budget: bounded bytes, least recently used out first
# ---------------------------------------------------------------------------


def _kept_size(round_, cid):
    """What a round holds rendered: its text and 8 bytes a row's end."""
    return (len(round_.oracle(cid=cid)) - len(b'{"rows": []}')
            + 8 * len(round_.service.results(cid)))


def test_a_round_over_the_budget_is_served_and_not_kept(round_, monkeypatch):
    other = round_.submit("2001:db8:0::/61-64", seed=4)
    round_.service.run_until_idle()
    small, large = sorted([round_.cid, other],
                          key=lambda cid: _kept_size(round_, cid))
    budget = _kept_size(round_, small) + 1
    assert _kept_size(round_, large) > budget
    monkeypatch.setattr(tenants_module, "RENDERED_BUDGET", budget)
    assert round_.body(cid=small) == (200, round_.oracle(cid=small))
    assert round_.kept() == [round_.snapshot(small)]
    for limit in (None, 7, None):
        assert round_.body(limit, cid=large) == (
            200, round_.oracle(limit, cid=large)
        )
    # Served, not kept — and it evicted nothing to make room.
    assert round_.kept() == [round_.snapshot(small)]
    assert round_.stores._rendered_bytes == _kept_size(round_, small)


def test_eviction_is_least_recently_used_under_the_budget(
    round_, monkeypatch
):
    ids = [round_.cid,
           round_.submit("2001:db8:0::/61-64", seed=4),
           round_.submit("2001:db8:1:50::/60-64", seed=5)]
    round_.service.run_until_idle()
    a, b, c = ids
    size = {cid: _kept_size(round_, cid) for cid in ids}
    budget = sum(size.values()) - 1  # any two fit, all three do not
    monkeypatch.setattr(tenants_module, "RENDERED_BUDGET", budget)
    stores = round_.stores

    def kept():
        assert stores._rendered_bytes == sum(size[cid] for cid in ids
                                             if round_.snapshot(cid)
                                             in round_.kept())
        assert stores._rendered_bytes <= budget
        return [cid for name in round_.kept() for cid in ids
                if round_.snapshot(cid) == name]

    for cid in ids:
        assert round_.body(cid=cid) == (200, round_.oracle(cid=cid))
    assert kept() == [b, c]  # a was the least recently used
    assert round_.body(1, cid=b) == (200, round_.oracle(1, cid=b))
    assert kept() == [c, b]  # a limited read is a use
    assert round_.body(cid=a) == (200, round_.oracle(cid=a))
    assert kept() == [b, a]


# ---------------------------------------------------------------------------
# memory: a body is held once
# ---------------------------------------------------------------------------


@pytest.mark.skipif(siphash._np is None, reason="the grid runs on numpy")
def test_filling_and_serving_a_large_round_holds_its_body_once(tmp_path):
    """100,000 rows: the traced peak of rendering the round, keeping it and
    writing it to a socket stays within 1.3x the body."""
    stores = tenants_module.TenantStores(str(tmp_path))
    store = ResultStore(stores.store_dir(TENANT))
    writer = store.writer("big", block_rows=512)
    writer.append_many(_rows(100_000, 1))
    store.commit([writer.seal()], snapshot="big")
    handle = stores.open(TENANT)
    snapshot = handle.snapshot("big")
    # The handle's parsed segment reader (its prefix index) is the store's,
    # made once per handle whatever is read through it: not the body's.
    handle.reader("big.seg")
    near, far = socket.socketpair()
    received = [0]

    def drain():
        sink = bytearray(1 << 16)
        while (got := far.recv_into(sink)):
            received[0] += got

    sink = threading.Thread(target=drain)
    sink.start()
    tracemalloc.start()
    try:
        pieces = stores.render(TENANT, handle, snapshot)
        api_module._write_all(near, [b'{"rows": [', *pieces, b"]}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        near.close()
        sink.join(timeout=30)
        far.close()
    size = sum(map(len, pieces)) + len(b'{"rows": []}')
    assert received[0] == size
    assert peak <= 1.3 * size, (peak, size)
