"""Result output modules (ZMap-style CSV / JSON-lines writers).

ZMap-family scanners stream results through pluggable output modules; the
reproduction provides the two everybody uses — CSV and JSON lines — for
:class:`repro.core.scanner.ScanResult`, periphery censuses, and loop
surveys, so downstream tooling can consume scan output without touching the
Python API.
"""

from __future__ import annotations

import csv
import io
from typing import IO, Iterable

from repro.core.scanner import ScanResult
from repro.discovery.periphery import PeripheryCensus
from repro.loop.detector import LoopSurvey
from repro.store.sink import CsvSink, JsonlSink


def write_scan_csv(result: ScanResult, stream: IO[str]) -> int:
    """Write one row per validated reply; returns the row count.

    A thin wrapper over :class:`~repro.store.sink.CsvSink` — the streaming
    sink is the single implementation, so one-shot dumps, CLI ``--csv``
    paths, and store-query exports are row-for-row identical by
    construction.
    """
    sink = CsvSink(stream)
    sink.emit_many(result.results)
    sink.close()
    return sink.rows


def write_scan_jsonl(result: ScanResult, stream: IO[str]) -> int:
    sink = JsonlSink(stream)
    sink.emit_many(result.results)
    sink.close()
    return sink.rows


def write_census_csv(census: PeripheryCensus, stream: IO[str]) -> int:
    fields = ["last_hop", "probe_target", "reply_kind", "iid_class", "mac",
              "same_slash64"]
    writer = csv.DictWriter(stream, fieldnames=fields)
    writer.writeheader()
    count = 0
    for record in census.records:
        writer.writerow({
            "last_hop": str(record.last_hop),
            "probe_target": str(record.probe_target),
            "reply_kind": record.reply_kind.value,
            "iid_class": record.iid_class.value,
            "mac": str(record.mac) if record.mac else "",
            "same_slash64": record.same_slash64,
        })
        count += 1
    return count


def write_services_csv(results: Iterable, stream: IO[str]) -> int:
    """One row per service observation across any number of app-scan
    results (the ``services --csv`` export, formerly hand-rolled in the
    CLI).  Banners pass through verbatim — including non-ASCII vendor
    strings — the parity tests cover the round-trip."""
    fields = ["target", "service", "alive", "software", "banner",
              "vendor_hint"]
    writer = csv.DictWriter(stream, fieldnames=fields)
    writer.writeheader()
    count = 0
    for result in results:
        for obs in result.observations:
            writer.writerow({
                "target": str(obs.target),
                "service": obs.service,
                "alive": obs.alive,
                "software": obs.software.banner if obs.software else "",
                "banner": obs.banner,
                "vendor_hint": obs.vendor_hint,
            })
            count += 1
    return count


def write_loops_csv(survey: LoopSurvey, stream: IO[str]) -> int:
    fields = ["last_hop", "probe_target", "iid_class", "same_slash64"]
    writer = csv.DictWriter(stream, fieldnames=fields)
    writer.writeheader()
    count = 0
    for record in survey.records:
        writer.writerow({
            "last_hop": str(record.last_hop),
            "probe_target": str(record.probe_target),
            "iid_class": record.iid_class.value,
            "same_slash64": record.same_slash64,
        })
        count += 1
    return count


def render_csv(writer, payload) -> str:
    """Convenience: run one of the ``write_*`` functions into a string."""
    buffer = io.StringIO()
    writer(payload, buffer)
    return buffer.getvalue()
