"""The segmented scan-result datastore.

``ResultStore`` turns a directory into a durable, queryable home for scan
results::

    store/
      manifest.json            # the single source of truth (checksummed)
      segments/<name>.seg      # sealed append-only row segments

**Commit protocol** (crash-safe): segment files are sealed first —
flushed, fsynced, and atomically renamed into ``segments/`` — and only
then does the manifest rewrite (one durable document,
:func:`repro.store.oslayer.write_document`) make them visible.
A crash between the two steps leaves sealed-but-unreferenced *orphan*
files, never a manifest pointing at missing or partial data; orphans are
reported by :meth:`ResultStore.info` and swept by compaction.  Stale
``.tmp`` files from dead writers are deleted on open.

**Integrity**: a torn or hand-edited manifest is quarantined (renamed
``manifest.json.corrupt``) and raises :class:`StoreCorruption` — the store
never guesses.  Segments whose size no longer matches the manifest are
quarantined on open — and, on a handle that outlives its open, by the read
that next touches them; block-level CRC failures discovered mid-query
quarantine the segment and raise, so a corrupt store can cost a rescan but
can never return a silently wrong row set (mirroring PR 4's checkpoint
quarantine).

**Long-lived read handles**: opening validates everything (manifest
checksum, version, every segment's size), so a reader that keeps its
handle — the daemon keeps one per tenant — revalidates with
:meth:`ResultStore.valid` instead: a stamp compare that costs one
``stat``.  Such a handle is never mutated: every writer works on its own
handle, and quarantine rewrites the manifest from a private copy, so a
reader sees one complete manifest for as long as it holds the object.

**Sharding**: every shard of a campaign writes its own segment under its
own name — writers never contend — and the campaign commits them all in
one manifest rewrite, bound to a named :class:`~repro.store.snapshot.
Snapshot` for the round.

**Compaction** merges segments that share the same snapshot membership
into one, de-duplicating rows on their packed key (target, responder,
kind: ``repro.core.rows.KEY_SIZE`` bytes; first occurrence in commit order
wins — the same key and the same policy as the in-scan and cross-shard
dedup), then atomically swaps the manifest and deletes the old files.
Queries before, during (readers hold the old manifest), and after
compaction see the same logical row set.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import os
import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

try:  # POSIX: cross-process manifest lock for multi-writer stores
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.core.rows import (
    KEY_SIZE,
    Projection,
    as_dicts,
    as_packed,
    as_results,
)
from repro.store.oslayer import (
    DocumentCorrupt,
    OsLayer,
    get_default_os,
    parse_document,
    write_document,
)
from repro.store.segment import (
    DEFAULT_BLOCK_ROWS,
    SegmentCorrupt,
    SegmentReader,
    SegmentWriter,
)
from repro.store.snapshot import Snapshot
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry

MANIFEST_VERSION = 1

#: Fallback same-process locks when ``fcntl`` is unavailable, keyed by the
#: store directory's resolved path.
_FALLBACK_LOCKS: Dict[str, threading.Lock] = {}
_FALLBACK_GUARD = threading.Lock()

#: The in-process half of a handle's stamp (see :meth:`ResultStore.valid`):
#: resolved store directory -> ticket of this process's latest manifest
#: rewrite there.  Tickets come from one shared counter (``next`` on it is
#: atomic), so two racing rewrites can never leave the value a reader
#: already saw.
_GENERATIONS: Dict[str, int] = {}
_REWRITE_TICKETS = itertools.count(1)


class StoreError(RuntimeError):
    """The store was asked something inconsistent (bad name, bad commit)."""


class StoreCorruption(StoreError):
    """On-disk state failed validation; the offender was quarantined."""


class StoreStale(StoreError):
    """A read found a segment gone that the handle's manifest lists and the
    current manifest does not: the round was dropped or compacted since the
    handle was opened.  Nothing is corrupt — re-open and read again."""


def _stat_identity(stat: os.stat_result) -> Tuple[int, int, int, int]:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_ctime_ns, stat.st_size)


class ResultStore:
    """A directory of sealed result segments plus one atomic manifest."""

    MANIFEST = "manifest.json"
    SEGMENT_DIR = "segments"
    LOCK_FILE = "manifest.lock"

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        metrics: Optional[MetricsRegistry] = None,
        use_mmap: bool = True,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        os_layer: Optional[OsLayer] = None,
    ) -> None:
        self.directory = Path(directory)
        self.segment_dir = self.directory / self.SEGMENT_DIR
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.use_mmap = use_mmap
        #: Durability syscall surface for manifest writes and the writers
        #: this store hands out; the host fault domain swaps in a shim.
        self.os = os_layer if os_layer is not None else get_default_os()
        #: Optional telemetry hook: corruption/quarantine transitions are
        #: reported as plain event dicts (the campaign routes them into its
        #: EventLog, where ``store_quarantined`` trips the flight recorder).
        self.on_event = on_event
        #: Segment metadata in commit order: name -> meta dict.
        self.segments: Dict[str, Dict[str, object]] = {}
        self.snapshots: Dict[str, Snapshot] = {}
        #: Names quarantined by past integrity failures (manifest-recorded).
        self.quarantined: List[str] = []
        self._commits = 0
        #: Key of this directory in the process-wide generation table.
        self._generation_key = str(self.directory.resolve())
        #: What :meth:`valid` compares: (generation, manifest identity)
        #: as they stood when the manifest was last read.
        self._stamp: Tuple[object, ...] = ()
        #: Thread inside :meth:`_exclusive` on this handle, for re-entry.
        self._exclusive_owner: Optional[int] = None
        #: Parsed readers by segment name; see :meth:`reader`.
        self._readers: Dict[str, SegmentReader] = {}
        self._sweep_tmp()
        self._load_manifest()
        self._verify_segment_files()

    # -- manifest ----------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST

    def _manifest_payload(self) -> Dict[str, object]:
        return {
            "version": MANIFEST_VERSION,
            "commits": self._commits,
            "segments": [self.segments[name] for name in self.segments],
            "snapshots": [
                snap.to_dict() for snap in self.snapshots.values()
            ],
            "quarantined": list(self.quarantined),
        }

    def _write_manifest(self) -> None:
        write_document(self.os, self.manifest_path, self._manifest_payload())
        # After the rename, never before: a reader that took the new ticket
        # and then read the old manifest would hold it as current for good.
        _GENERATIONS[self._generation_key] = next(_REWRITE_TICKETS)
        # A failed directory fsync degrades rename durability (a power cut
        # could resurrect the previous manifest) but the data is intact —
        # observable, not fatal.  Swallowing it silently was the old bug.
        try:
            self.os.fsync_dir(self.directory)
        except OSError as exc:
            self.metrics.counter("store_fsync_failures").inc()
            self._emit_event(
                "store_fsync_failed",
                path=str(self.directory),
                error=str(exc),
            )

    def _emit_event(self, event_type: str, **fields: object) -> None:
        if self.on_event is not None:
            self.on_event({"type": event_type, **fields})

    @contextlib.contextmanager
    def _exclusive(self) -> Iterator[None]:
        """Exclusive manifest section for multi-writer stores.

        Several store handles — different campaigns of one tenant inside a
        daemon, or different processes — may commit into the same
        directory.  The manifest rewrite is read-modify-write, so every
        mutating entry point (:meth:`commit`, :meth:`create_snapshot`,
        :meth:`drop_snapshot`, :meth:`compact`) takes this lock and calls
        :meth:`refresh` before applying its change: commits from other
        handles are picked up instead of silently overwritten.

        ``flock`` excludes other processes *and* other handles in this
        process (the lock rides the open file description, and every entry
        opens its own).  Where ``fcntl`` is unavailable the fallback is a
        per-directory in-process lock — same-process writers stay safe,
        cross-process writers are on their own (as before this lock
        existed).

        Re-entrant per handle and thread: compaction reads its own
        segments under the lock, and a corrupt one quarantines — which
        takes the lock — from inside it.
        """
        me = threading.get_ident()
        if self._exclusive_owner == me:
            yield
            return
        with contextlib.ExitStack() as stack:
            if fcntl is not None:
                handle = stack.enter_context(
                    open(self.directory / self.LOCK_FILE, "a+b")
                )  # closing the fd releases the flock
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            else:  # pragma: no cover - non-POSIX platforms
                with _FALLBACK_GUARD:
                    lock = _FALLBACK_LOCKS.setdefault(
                        self._generation_key, threading.Lock()
                    )
                stack.enter_context(lock)
            self._exclusive_owner = me
            try:
                yield
            finally:
                self._exclusive_owner = None

    def refresh(self) -> "ResultStore":
        """Re-read the manifest from disk, dropping in-memory state.

        Multi-writer stores need this: a handle opened before another
        handle's commit still sees the old manifest.  Mutating operations
        refresh automatically (under :meth:`_exclusive`); readers that
        want the latest committed state call it explicitly.  Not for a
        handle other threads are reading — those are replaced, not
        refreshed (:meth:`valid`).
        """
        self.segments = {}
        self.snapshots = {}
        self.quarantined = []
        self._commits = 0
        self._load_manifest()
        return self

    def valid(self) -> bool:
        """Stamp check: is the manifest still the one this handle read?

        The same compare-a-stamp idiom as ``Device.flow_entry`` and
        ``ColumnarFib.valid``; one ``stat``, no parse — the full validation
        of a cold open ran once, when the stamped manifest was loaded.  For
        handles that only read (the daemon's per-tenant ones): a handle
        does not re-stamp after its own writes.

        The stamp has two halves because neither suffices alone.  The
        generation ticket moves on every rewrite *this process* makes,
        whatever the clock says — the stat cannot promise that: mtime ticks
        at jiffy granularity and rename-over frees an inode number the next
        tmp file may reuse, so A→B→C inside one tick can present A's
        ``(ino, mtime, size)`` again.  The stat is what shows a rewrite by
        *another* process, which no counter in this one sees.
        """
        try:
            identity = _stat_identity(os.stat(self.manifest_path))
        except FileNotFoundError:
            identity = None  # a fresh store
        return self._stamp == (
            _GENERATIONS.get(self._generation_key, 0), identity
        )

    def _quarantine_manifest(self, reason: str) -> None:
        target = self.manifest_path.with_name(self.MANIFEST + ".corrupt")
        try:
            self.manifest_path.replace(target)
        except OSError:  # pragma: no cover - concurrent writer race
            pass
        _GENERATIONS[self._generation_key] = next(_REWRITE_TICKETS)
        self.metrics.counter("store_manifest_quarantined").inc()
        self._emit_event("store_quarantined", what="manifest", reason=reason)
        raise StoreCorruption(
            f"store manifest {self.manifest_path} is corrupt ({reason}); "
            f"quarantined to {target.name} — the store opens empty on retry"
        )

    def _load_manifest(self) -> None:
        # Stamp first, then read: a rewrite landing in between leaves newer
        # contents under an older stamp, which costs one needless reload —
        # the other order would pin stale contents under a current stamp.
        # The stat half is ``fstat`` of the file actually read.
        generation = _GENERATIONS.get(self._generation_key, 0)
        try:
            with open(self.manifest_path, "rb") as handle:
                identity = _stat_identity(os.fstat(handle.fileno()))
                raw = handle.read()
        except FileNotFoundError:
            self._stamp = (generation, None)
            return  # a fresh store
        self._stamp = (generation, identity)
        try:
            data = parse_document(raw)
        except DocumentCorrupt as exc:
            self._quarantine_manifest(exc.reason)
            return
        if data.get("version") != MANIFEST_VERSION:
            self._quarantine_manifest(
                f"unsupported version {data.get('version')!r}"
            )
            return
        self._commits = int(data.get("commits", 0))
        for meta in data.get("segments", []):
            self.segments[str(meta["name"])] = meta
        for snap_data in data.get("snapshots", []):
            snapshot = Snapshot.from_dict(snap_data)
            self.snapshots[snapshot.name] = snapshot
        self.quarantined = [str(n) for n in data.get("quarantined", [])]

    # -- integrity ---------------------------------------------------------------

    #: Seconds a ``.tmp`` must sit untouched before an open sweeps it.  In
    #: a multi-writer store (many campaigns of one tenant sharing a
    #: directory) a *fresh* tmp belongs to a live writer mid-seal — only
    #: genuinely stale ones are dead-writer litter.
    TMP_SWEEP_GRACE = 300.0

    def _sweep_tmp(self) -> None:
        """Delete stale ``.tmp`` files left by dead writers.

        Age-gated so that opening a store while another handle is sealing
        a segment (the daemon's concurrent-campaigns case) never deletes
        the live writer's tmp out from under its rename.
        """
        import time as _time

        cutoff = _time.time() - self.TMP_SWEEP_GRACE
        for parent, pattern in (
            (self.segment_dir, "*.tmp"),
            (self.directory, f"{self.MANIFEST}.*.tmp"),
        ):
            for path in parent.glob(pattern):
                try:
                    if path.stat().st_mtime > cutoff:
                        continue
                except OSError:
                    continue  # already gone (a racing sweep or seal)
                path.unlink(missing_ok=True)

    def _quarantine_segment(self, name: str, reason: str) -> bool:
        """Move a corrupt segment aside, drop it from manifest + snapshots.

        The surgery runs on a private copy of this handle, under the
        manifest lock and against the manifest as it stands on disk: this
        handle may be one that other threads are reading (its dicts are
        never touched — it just stops being :meth:`valid`), two readers
        that trip over the same segment must not both rewrite the
        manifest, and a commit from another handle must not be undone.
        The second of two racing callers finds the name already
        quarantined and changes nothing.  False means the current manifest
        never heard of the segment — it was dropped or compacted away, and
        it is this handle that is out of date, not the file that is bad.
        """
        surgeon = copy.copy(self)
        with surgeon._exclusive():
            surgeon.refresh()
            if name not in surgeon.segments:
                return name in surgeon.quarantined
            path = self.segment_path(name)
            if path.exists():
                path.replace(path.with_name(path.name + ".corrupt"))
            del surgeon.segments[name]
            for snap_name, snapshot in list(surgeon.snapshots.items()):
                if name in snapshot.segments:
                    remaining = tuple(
                        s for s in snapshot.segments if s != name
                    )
                    surgeon.snapshots[snap_name] = Snapshot(
                        name=snapshot.name,
                        segments=remaining,
                        rows=sum(surgeon._rows_of(s) for s in remaining),
                        meta={**snapshot.meta, "incomplete": reason},
                    )
            surgeon.quarantined.append(name)
            surgeon._write_manifest()
        self.metrics.counter("store_segments_quarantined").inc()
        self._emit_event("store_quarantined", what="segment", name=name,
                         reason=reason)
        return True

    def _segment_fault(self, name: str) -> Optional[str]:
        """Why a committed segment's file cannot be the one recorded (it
        is missing, or not the recorded size), or None."""
        meta = self.segments[name]
        try:
            actual = self.segment_path(name).stat().st_size
        except FileNotFoundError:
            return "missing-file"
        if actual != int(meta.get("bytes", actual)):
            return f"size {actual} != {meta.get('bytes')}"
        return None

    def _verify_segment_files(self) -> None:
        """Cheap open-time check: every committed segment exists at the
        recorded size.  Full CRC verification happens block-by-block at
        read time (and via :meth:`verify`).  A handle kept past its open
        repeats the check per segment as it reads (:meth:`_iter_segments`)."""
        bad = [
            (name, fault) for name in self.segments
            if (fault := self._segment_fault(name)) is not None
        ]
        quarantined = [
            (name, reason) for name, reason in bad
            if self._quarantine_segment(name, reason)
        ]
        if quarantined:
            raise StoreCorruption(
                "corrupt segment(s) quarantined: "
                + ", ".join(f"{n} ({r})" for n, r in quarantined)
                + " — re-open the store to continue without them"
            )
        if bad:
            raise StoreStale(
                "the manifest was rewritten (rounds dropped or compacted) "
                "while the store was being opened — open it again"
            )

    def verify(self) -> None:
        """Full CRC verification of every committed segment."""
        for name in list(self.segments):
            try:
                self.reader(name).verify()
            except SegmentCorrupt as exc:
                self._quarantine_segment(name, str(exc))
                raise StoreCorruption(
                    f"segment {name} failed verification and was "
                    f"quarantined: {exc}"
                ) from exc

    # -- segments ----------------------------------------------------------------

    @staticmethod
    def segment_name(label: str) -> str:
        """A filesystem-safe segment name derived from a free-form label."""
        safe = label.replace("/", "-").replace(":", "_").replace(" ", "_")
        return f"{safe}.seg"

    def segment_path(self, name: str) -> Path:
        return self.segment_dir / name

    def _rows_of(self, name: str) -> int:
        meta = self.segments.get(name)
        return int(meta.get("rows", 0)) if meta else 0

    def writer(self, name: Optional[str] = None,
               block_rows: int = DEFAULT_BLOCK_ROWS) -> SegmentWriter:
        """A streaming writer for a new segment (not yet committed).

        Each shard/writer gets its own file, so any number of writers can
        run in parallel — across threads or processes — without contending;
        only :meth:`commit` serialises on the manifest.
        """
        if name is None:
            name = f"seg-{self._commits:04d}-{len(self.segments):06d}.seg"
        if not name.endswith(".seg"):
            name += ".seg"
        return SegmentWriter(self.segment_path(name), block_rows=block_rows,
                             os_layer=self.os)

    def reader(self, name: str) -> SegmentReader:
        """The segment's reader, parsed (kind table, prefix index) once per
        meta dict: a sealed segment is immutable, so the reader stays good
        for as long as this handle holds that dict.  Readers keep no open
        file — each iteration maps the file afresh."""
        meta = self.segments.get(name)
        if meta is None:
            raise StoreError(f"unknown segment {name!r}")
        reader = self._readers.get(name)
        if reader is None or reader.meta is not meta:
            reader = self._readers[name] = SegmentReader(
                self.segment_path(name), meta, use_mmap=self.use_mmap
            )
        return reader

    def commit(
        self,
        metas: Sequence[Dict[str, object]],
        snapshot: Optional[str] = None,
        snapshot_meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Make sealed segments visible (and optionally snapshot them).

        ``metas`` are :meth:`SegmentWriter.seal` results.  The segments
        become queryable — and the snapshot exists — only once the single
        atomic manifest rewrite lands; a crash before that leaves orphans,
        never partial state.  Safe under concurrent writers: the rewrite
        happens under the store's exclusive lock against a refreshed view
        of the manifest, so commits interleave instead of overwriting.
        """
        with self._exclusive():
            self.refresh()
            names: List[str] = []
            for meta in metas:
                name = str(meta["name"])
                if name in self.segments:
                    raise StoreError(f"segment {name!r} already committed")
                if not self.segment_path(name).exists():
                    raise StoreError(f"segment file {name!r} was never sealed")
                names.append(name)
            for meta, name in zip(metas, names):
                self.segments[name] = dict(meta)
            self._commits += 1
            if snapshot is not None:
                if snapshot in self.snapshots:
                    raise StoreError(f"snapshot {snapshot!r} already exists")
                self.snapshots[snapshot] = Snapshot(
                    name=snapshot,
                    segments=tuple(names),
                    rows=sum(self._rows_of(n) for n in names),
                    meta=dict(snapshot_meta or {}),
                )
            self._write_manifest()
        rows = sum(int(m.get("rows", 0)) for m in metas)
        self.metrics.counter("store_segments_committed").inc(len(metas))
        self.metrics.counter("store_rows_ingested").inc(rows)
        self.metrics.gauge("store_total_rows").set(self.total_rows)

    def create_snapshot(
        self,
        name: str,
        segments: Sequence[str],
        meta: Optional[Dict[str, object]] = None,
    ) -> Snapshot:
        """Bind already-committed segments to a new named snapshot."""
        with self._exclusive():
            self.refresh()
            if name in self.snapshots:
                raise StoreError(f"snapshot {name!r} already exists")
            for segment in segments:
                if segment not in self.segments:
                    raise StoreError(f"unknown segment {segment!r}")
            snapshot = Snapshot(
                name=name,
                segments=tuple(segments),
                rows=sum(self._rows_of(s) for s in segments),
                meta=dict(meta or {}),
            )
            self.snapshots[name] = snapshot
            self._write_manifest()
        return snapshot

    def drop_snapshot(self, name: str) -> List[str]:
        """Remove a snapshot; delete segments only it referenced.

        The retention primitive: a round that aged out of a tenant's
        retention window disappears from the manifest atomically; segments
        referenced by no other snapshot are then deleted from disk (shared
        segments survive untouched).  Returns the deleted segment names.
        """
        with self._exclusive():
            self.refresh()
            snap = self.snapshot(name)
            del self.snapshots[name]
            still_referenced = {
                segment
                for other in self.snapshots.values()
                for segment in other.segments
            }
            doomed = [
                segment for segment in snap.segments
                if segment not in still_referenced and segment in self.segments
            ]
            for segment in doomed:
                del self.segments[segment]
            self._commits += 1
            self._write_manifest()
            for segment in doomed:
                self.segment_path(segment).unlink(missing_ok=True)
        self.metrics.counter("store_snapshots_dropped").inc()
        self._emit_event(
            "store_snapshot_dropped", snapshot=name, segments=len(doomed)
        )
        return doomed

    def snapshot(self, name: str) -> Snapshot:
        snap = self.snapshots.get(name)
        if snap is None:
            raise StoreError(
                f"unknown snapshot {name!r}; have "
                f"{sorted(self.snapshots) or 'none'}"
            )
        return snap

    # -- reading -----------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return sum(self._rows_of(name) for name in self.segments)

    def _iter_segments(
        self,
        segments: Optional[Sequence[str]],
        blocks_for: Optional[Dict[str, Sequence[int]]],
        limit: Optional[int],
        project: Projection,
    ) -> Iterator:
        """The one segment walk behind :meth:`iter_rows`/:meth:`iter_dicts`.

        ``project`` is the row projection each segment's decoder applies
        (:mod:`repro.core.rows`).  ``limit`` is a row budget handed down to
        each segment's decoder; segments past it are never opened.  Each segment's file is checked
        against its recorded size as the walk reaches it — the open-time
        check, repeated where a long-lived handle needs it — and any fault
        (missing, resized, truncated, bad CRC, bad kind code) quarantines
        the segment and raises.
        """
        names = list(segments) if segments is not None else list(self.segments)
        produced = 0
        for name in names:
            if limit is not None and produced >= limit:
                return
            reader = self.reader(name)
            wanted = blocks_for.get(name) if blocks_for else None
            remaining = None if limit is None else limit - produced
            try:
                fault = self._segment_fault(name)
                if fault is not None:
                    raise SegmentCorrupt(fault)  # a cold open's wording
                for row in reader.iter_rows(wanted, remaining, project):
                    produced += 1
                    yield row
            except SegmentCorrupt as exc:
                if not self._quarantine_segment(name, str(exc)):
                    raise StoreStale(
                        f"segment {name} left the store while this handle "
                        f"was reading it ({exc}) — re-open and read again"
                    ) from exc
                raise StoreCorruption(
                    f"segment {name} is corrupt and was quarantined mid-"
                    f"read: {exc} — re-open the store to continue without it"
                ) from exc

    def iter_rows(
        self,
        segments: Optional[Sequence[str]] = None,
        blocks_for: Optional[Dict[str, Sequence[int]]] = None,
        limit: Optional[int] = None,
        project: Projection = as_results,
    ) -> Iterator:
        """Rows in commit order, at most ``limit`` of them, each through
        ``project`` (:class:`ProbeResult` objects by default); corrupt
        segments quarantine and raise."""
        return self._iter_segments(segments, blocks_for, limit, project)

    def iter_dicts(
        self,
        segments: Optional[Sequence[str]] = None,
        blocks_for: Optional[Dict[str, Sequence[int]]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[str, object]]:
        """:meth:`iter_rows` as JSON dicts — ``row.to_dict()`` of each row,
        projected from the packed bytes without building the row."""
        return self._iter_segments(segments, blocks_for, limit, as_dicts)

    def orphans(self) -> List[str]:
        """Sealed segment files on disk that no manifest entry references."""
        known = set(self.segments) | {
            name + ".corrupt" for name in self.quarantined
        }
        return sorted(
            path.name for path in self.segment_dir.glob("*.seg")
            if path.name not in known
        )

    def sweep_orphans(self, prefix: Optional[str] = None) -> List[str]:
        """Delete sealed-but-unreferenced segment files; returns their names.

        The crash-recovery janitor: a campaign killed between sealing its
        shard segments and the manifest commit leaves orphans under
        deterministic names; the resumed run re-seals over them, but a
        campaign whose shard set shrank (or a rename that never committed)
        can strand files forever.  ``prefix`` restricts the sweep to one
        round's namespace so concurrent rounds sharing a store never sweep
        each other's in-flight segments.
        """
        swept: List[str] = []
        for name in self.orphans():
            if prefix is not None and not name.startswith(prefix):
                continue
            (self.segment_dir / name).unlink(missing_ok=True)
            swept.append(name)
        if swept:
            self.metrics.counter("store_orphans_swept").inc(len(swept))
            self._emit_event("store_orphans_swept", segments=swept)
        return swept

    def info(self) -> Dict[str, object]:
        return {
            "directory": str(self.directory),
            "segments": len(self.segments),
            "rows": self.total_rows,
            "bytes": sum(
                int(m.get("bytes", 0)) for m in self.segments.values()
            ),
            "snapshots": {
                name: {"segments": len(s.segments), "rows": s.rows}
                for name, s in sorted(self.snapshots.items())
            },
            "quarantined": list(self.quarantined),
            "orphans": self.orphans(),
            "commits": self._commits,
        }

    # -- compaction --------------------------------------------------------------

    def compact(self, block_rows: int = DEFAULT_BLOCK_ROWS) -> Dict[str, object]:
        """Merge segments with identical snapshot membership, dedup rows.

        Foreground and incremental-free by design (there is no background
        thread to leak): each membership group's segments rewrite into one
        new segment with packed-key de-duplication, the manifest swaps
        atomically, and only then are the old files (and any orphans)
        deleted.  Snapshot row sets are preserved exactly — the groups are
        the finest partition that keeps every snapshot expressible.  Runs
        under the store's exclusive lock against a refreshed manifest, so
        a concurrent committer is never clobbered.
        """
        with self._exclusive():
            self.refresh()
            return self._compact_locked(block_rows)

    def _compact_locked(self, block_rows: int) -> Dict[str, object]:
        membership: Dict[str, Tuple[str, ...]] = {}
        for name in self.segments:
            owners = tuple(
                sorted(
                    snap.name for snap in self.snapshots.values()
                    if name in snap.segments
                )
            )
            membership[name] = owners
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for name, owners in membership.items():
            groups.setdefault(owners, []).append(name)

        rows_before = self.total_rows
        segments_before = len(self.segments)
        duplicates = 0
        new_segments: Dict[str, Dict[str, object]] = {}
        replaced: Dict[str, str] = {}  # old name -> new name
        to_delete: List[str] = []

        for index, (owners, names) in enumerate(sorted(groups.items())):
            if len(names) == 1:
                # A lone segment may still hold internal duplicates only if
                # it was written without in-scan dedup; rewriting it is
                # wasted I/O in the common case, so single-segment groups
                # are kept as-is.
                name = names[0]
                new_segments[name] = self.segments[name]
                continue
            writer = SegmentWriter(
                self.segment_path(f"compact-{self._commits:04d}-{index:03d}.seg"),
                block_rows=block_rows,
                os_layer=self.os,
            )
            seen: set = set()
            for name in names:
                for row in self.iter_rows([name], project=as_packed):
                    key = row[:KEY_SIZE]
                    if key in seen:
                        duplicates += 1
                        continue
                    seen.add(key)
                    writer.append_row(row)
            meta = writer.seal()
            new_name = str(meta["name"])
            new_segments[new_name] = meta
            for name in names:
                replaced[name] = new_name
                to_delete.append(name)

        # Swap the manifest: new segment table + rewritten snapshot refs.
        self.segments = new_segments
        for snap_name, snap in list(self.snapshots.items()):
            seen_names: List[str] = []
            for segment in snap.segments:
                target = replaced.get(segment, segment)
                if target not in seen_names:
                    seen_names.append(target)
            self.snapshots[snap_name] = Snapshot(
                name=snap.name,
                segments=tuple(seen_names),
                rows=sum(self._rows_of(s) for s in seen_names),
                meta=snap.meta,
            )
        self._commits += 1
        self._write_manifest()
        for name in to_delete:
            self.segment_path(name).unlink(missing_ok=True)
        for orphan in self.orphans():
            (self.segment_dir / orphan).unlink(missing_ok=True)

        report = {
            "segments_before": segments_before,
            "segments_after": len(self.segments),
            "rows_before": rows_before,
            "rows_after": self.total_rows,
            "duplicates_dropped": duplicates,
        }
        self.metrics.counter("store_compactions").inc()
        self.metrics.counter("store_rows_compacted").inc(
            int(report["rows_after"])
        )
        return report
