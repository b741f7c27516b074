"""Streaming result sinks: rows leave the scan as they are produced.

Before the store existed, every path that wanted scan output buffered the
whole :class:`~repro.core.scanner.ScanResult` in memory and then wrote it
out in one shot — fine for a mini-topology demo, fatal for a campaign-scale
result set.  A :class:`ResultSink` inverts that: the scanner (and anything
else producing :class:`~repro.core.scanner.ProbeResult` rows) calls
``emit`` — or, with the row packed, ``emit_row`` — per validated reply,
and the sink streams it wherever it goes — a binary segment, a CSV/JSONL
stream, or a plain list.

``Scanner`` accepts a sink and, when one is set, emits rows to it *instead
of* appending to ``result.results`` — which is what bounds a campaign's
peak resident row count by the segment writer's block size rather than the
total reply volume.

The CSV/JSONL sinks produce byte-for-byte the same rows as the one-shot
writers in :mod:`repro.core.output` (those writers are now thin wrappers
over these sinks; the parity tests assert it).
"""

from __future__ import annotations

import csv
import json
from typing import IO, Iterable, List

from repro.core.rows import ProbeResult, Rows

#: Column order shared by the CSV/JSONL row forms (and the legacy writers).
SCAN_FIELDS = ("target", "responder", "kind", "icmp_type", "icmp_code",
               "same_slash64")


def probe_row(result: ProbeResult) -> dict:
    """The canonical dict form of one scan row (CSV/JSONL payload)."""
    return {**result.to_dict(), "same_slash64": result.same_slash64}


class ResultSink:
    """Base sink: count rows; subclasses override :meth:`emit`."""

    def __init__(self) -> None:
        self.rows = 0

    def emit(self, result: ProbeResult) -> None:
        self.rows += 1

    def emit_row(self, row: bytes) -> None:
        """Emit one result in its packed :data:`~repro.core.rows.ROW` form
        (what the scanner produces); made an object only for sinks that
        write objects."""
        self.emit(Rows.of([row])[0])

    def emit_many(self, results: Iterable[ProbeResult]) -> None:
        for result in results:
            self.emit(result)

    def close(self) -> None:
        """Flush/seal whatever the sink writes to (idempotent)."""


class ListSink(ResultSink):
    """Buffers rows in a list — the legacy in-memory behaviour, as a sink."""

    def __init__(self) -> None:
        super().__init__()
        self.results: List[ProbeResult] = []

    def emit(self, result: ProbeResult) -> None:
        self.rows += 1
        self.results.append(result)


class CsvSink(ResultSink):
    """Streams rows as CSV; the header is written up front so an empty scan
    still yields a well-formed file (matching ``write_scan_csv``)."""

    def __init__(self, stream: IO[str]) -> None:
        super().__init__()
        self._writer = csv.DictWriter(stream, fieldnames=list(SCAN_FIELDS))
        self._writer.writeheader()

    def emit(self, result: ProbeResult) -> None:
        self.rows += 1
        self._writer.writerow(probe_row(result))


class JsonlSink(ResultSink):
    """Streams rows as JSON lines (matching ``write_scan_jsonl``)."""

    def __init__(self, stream: IO[str]) -> None:
        super().__init__()
        self._stream = stream

    def emit(self, result: ProbeResult) -> None:
        self.rows += 1
        self._stream.write(json.dumps(probe_row(result)) + "\n")


class SegmentSink(ResultSink):
    """Streams rows into a :class:`~repro.store.segment.SegmentWriter`.

    ``close()`` seals the segment and keeps the resulting metadata in
    ``meta`` for the caller to commit into a store manifest.
    """

    def __init__(self, writer) -> None:
        super().__init__()
        self.writer = writer
        self.meta = None

    def emit(self, result: ProbeResult) -> None:
        self.rows += 1
        self.writer.append(result)

    def emit_row(self, row: bytes) -> None:
        self.rows += 1
        self.writer.append_row(row)

    def close(self) -> None:
        if self.meta is None and not self.writer.sealed:
            self.meta = self.writer.seal()
