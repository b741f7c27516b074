"""Store performance: streaming ingest and prefix-indexed query pruning.

Two headline numbers, both gated by ``check_regression.py``:

* **Ingest** (``ingest_rows_per_sec``): synthetic rows stream through a
  :class:`~repro.store.sink.SegmentSink` into a sealed, committed segment.
  The result path must never be the scan bottleneck, so the bench asserts
  ingest throughput at least matches the scanner fast path's ``wall_pps``
  from the committed ``BENCH_perf_scanner.json`` — a store that ingests
  slower than the scanner emits would stall a campaign.

* **Query** (``query_rows_per_sec``): a /32-prefix query over a compacted
  multi-block store.  The per-segment index must prune every unrelated
  segment (asserted by counting which segments actually decode rows), so
  the query's I/O is proportional to the matching slice, not the store.

The compacted store is left at ``benchmarks/results/store_bench/`` for CI
to upload as an artifact — a ready-made corpus for query experiments.
"""

from __future__ import annotations

import shutil
import time

from repro.core.probes.base import ReplyKind
from repro.core.scanner import ProbeResult
from repro.net.addr import IPv6Addr
from repro.store import ResultStore, SegmentReader, SegmentSink, query

from benchmarks.conftest import RESULTS_DIR, write_bench_json, write_result

INGEST_ROWS = 200_000
PREFIXES = 8  # distinct /32 blocks in the query corpus
ROWS_PER_PREFIX = 25_000
ROUNDS = 3


def _block_rows(count: int, block: int) -> list:
    """Synthetic rows whose targets all fall under the ``block``-th /32."""
    base = (0x2001_0DB8 + block) << 96
    return [
        ProbeResult(
            target=IPv6Addr(base + (i << 64) + 0xBAD),
            responder=IPv6Addr(base + (i << 64) + 1),
            kind=ReplyKind.DEST_UNREACHABLE,
            icmp_type=1,
            icmp_code=3,
        )
        for i in range(count)
    ]


def test_perf_store_ingest(tmp_path):
    rows = _block_rows(INGEST_ROWS, 0)
    best = float("inf")
    store = None
    for attempt in range(ROUNDS):
        store = ResultStore(tmp_path / f"store-{attempt}")
        started = time.perf_counter()
        sink = SegmentSink(store.writer("bulk"))
        sink.emit_many(rows)
        sink.close()
        store.commit([sink.meta], snapshot="bench")
        best = min(best, time.perf_counter() - started)
    assert store is not None and store.total_rows == INGEST_ROWS

    ingest_rows_per_sec = INGEST_ROWS / best
    segment_bytes = int(store.info()["bytes"])

    lines = [
        f"store ingest: {INGEST_ROWS:,} rows in {best:.3f}s "
        f"({ingest_rows_per_sec:,.0f} rows/s, best of {ROUNDS}), "
        f"{segment_bytes / INGEST_ROWS:.1f} B/row on disk",
    ]

    # The store must keep up with the scanner: compare against the fast
    # path's committed throughput (skip silently if the scanner bench
    # hasn't produced a record on this checkout).
    scanner_record = RESULTS_DIR / "BENCH_perf_scanner.json"
    if scanner_record.exists():
        import json

        wall_pps = float(json.loads(scanner_record.read_text())["wall_pps"])
        lines.append(
            f"scanner fast path emits {wall_pps:,.0f} rows/s — "
            f"ingest headroom {ingest_rows_per_sec / wall_pps:.1f}x"
        )
        assert ingest_rows_per_sec >= wall_pps, (
            f"store ingest ({ingest_rows_per_sec:,.0f} rows/s) slower than "
            f"the scanner fast path ({wall_pps:,.0f} pps): the result path "
            f"would stall campaigns"
        )

    write_result("store_ingest", "\n".join(lines))
    write_bench_json(
        "store_ingest",
        rows=INGEST_ROWS,
        ingest_seconds=best,
        ingest_rows_per_sec=ingest_rows_per_sec,
        bytes_per_row=segment_bytes / INGEST_ROWS,
    )


def test_perf_store_query():
    corpus = RESULTS_DIR / "store_bench"
    shutil.rmtree(corpus, ignore_errors=True)
    store = ResultStore(corpus)
    for block in range(PREFIXES):
        rows = _block_rows(ROWS_PER_PREFIX, block)
        metas = []
        for half, chunk in enumerate((rows[: len(rows) // 2],
                                      rows[len(rows) // 2:])):
            writer = store.writer(f"block{block}-{half}")
            writer.append_many(chunk)
            metas.append(writer.seal())
        store.commit(metas, snapshot=f"round-{block}")
    report = store.compact()
    assert report["segments_after"] == PREFIXES  # 2 per block merged to 1

    store = ResultStore(corpus)
    total_segments = len(store.segments)
    scanned: list = []
    original = SegmentReader.iter_rows

    def tracking(self, *args):
        scanned.append(self.path.name)
        return original(self, *args)

    prefix = "2001:db8::/32"  # block 0's /32
    SegmentReader.iter_rows = tracking
    try:
        started = time.perf_counter()
        matched = sum(1 for _ in query(store, prefix=prefix))
        elapsed = time.perf_counter() - started
    finally:
        SegmentReader.iter_rows = original

    assert matched == ROWS_PER_PREFIX
    # The index must prove every other block's segment irrelevant.
    assert len(set(scanned)) < total_segments
    assert len(set(scanned)) == 1

    started = time.perf_counter()
    everything = sum(1 for _ in store.iter_rows())
    full_elapsed = time.perf_counter() - started
    assert everything == PREFIXES * ROWS_PER_PREFIX

    query_rows_per_sec = matched / elapsed
    write_result(
        "store_query",
        f"prefix query {prefix}: {matched:,} rows in {elapsed:.3f}s "
        f"({query_rows_per_sec:,.0f} rows/s) touching "
        f"{len(set(scanned))}/{total_segments} segment(s); "
        f"full scan of {everything:,} rows took {full_elapsed:.3f}s",
    )
    write_bench_json(
        "store_query",
        rows_matched=matched,
        rows_total=everything,
        segments_total=total_segments,
        segments_scanned=len(set(scanned)),
        query_seconds=elapsed,
        query_rows_per_sec=query_rows_per_sec,
        full_scan_seconds=full_elapsed,
    )
