"""repro.store — the segmented, durable scan-result datastore.

The results path equivalent of the scan engine: instead of buffering every
:class:`~repro.core.scanner.ProbeResult` in memory and dumping a one-shot
CSV, scans stream rows through a :class:`ResultSink` into sealed binary
segments under an atomically committed manifest; rounds bind to named
snapshots; prefix-indexed queries and longitudinal snapshot diffs run over
the store without rescanning anything.

* :mod:`repro.store.segment`  — the append-only binary segment format;
* :mod:`repro.store.store`    — :class:`ResultStore`: manifest, commit
  protocol, quarantine, compaction;
* :mod:`repro.store.index`    — per-segment /32→/48→/64 prefix buckets;
* :mod:`repro.store.snapshot` — named round → segment-set bindings;
* :mod:`repro.store.query`    — iterator queries and :func:`diff` churn;
* :mod:`repro.store.sink`     — streaming sinks (segment, CSV, JSONL, tee);
* :mod:`repro.store.oslayer`  — the pluggable durability syscall surface
  (write/fsync/rename/dir-fsync) the host fault domain injects under.
"""

from repro.store.oslayer import (
    OsLayer,
    RealOs,
    get_default_os,
    set_default_os,
)
from repro.store.query import ChurnReport, diff, query
from repro.store.segment import (
    SegmentCorrupt,
    SegmentReader,
    SegmentWriter,
)
from repro.store.sink import (
    CsvSink,
    JsonlSink,
    ListSink,
    ResultSink,
    SegmentSink,
)
from repro.store.snapshot import Snapshot
from repro.store.store import (
    ResultStore,
    StoreCorruption,
    StoreError,
    StoreStale,
)

__all__ = [
    "ChurnReport",
    "CsvSink",
    "JsonlSink",
    "ListSink",
    "OsLayer",
    "RealOs",
    "ResultSink",
    "ResultStore",
    "SegmentCorrupt",
    "SegmentReader",
    "SegmentSink",
    "SegmentWriter",
    "Snapshot",
    "StoreCorruption",
    "StoreError",
    "StoreStale",
    "diff",
    "get_default_os",
    "query",
    "set_default_os",
]
