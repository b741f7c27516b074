"""Checkpoint state for interruptible campaigns: O(delta) per checkpoint.

ZMap's ``--status-updates-file``/state machinery lets a 48-hour scan survive
the scanner host dying; this is the reproduction's equivalent.  A shard's
state is the position reached in its permutation stream (the resume offset
for ``ScanConfig.skip``), its cumulative :class:`~repro.core.stats.ScanStats`
and the validated replies so far.  It lives in two files per shard::

    shard-<job>.log    append-only, one record per PARTIAL checkpoint
    shard-<job>.json   the head, written once, when the shard is DONE

**The log** is what makes a checkpoint cost what the scan produced since the
previous one, not what the shard has produced in total::

    +-------- shard-<job>.log ---------------------------------------+
    | magic "RPCK" | version u8 | reserved x3                        |
    | record: len u32 | ~len u32 | payload | sha256(chain | payload) |
    | record: ...                                                    |
    +----------------------------------------------------------------+

The first record's payload is the shard's identity (JSON: job id, shard
coordinates, range); every later one is a checkpoint — position and
cumulative stats in fixed binary form followed by the rows validated since
the previous record, in their packed :data:`repro.core.rows.ROW` form.
``chain`` starts as SHA-256 of the file header and advances to each record's
digest, so a record's digest vouches for the whole prefix before it:
verifying a load is one pass over the file, and writing never re-reads it.
A PARTIAL checkpoint is **one write and one fsync** of one record (the very
first also creates the file: write, fsync, rename).  The record framing,
the chain replay and the writer are :mod:`repro.store.framing` — shared
with the daemon's queue journal; the header, the payloads and the reaction
to corruption below are this module's.

**The head** is a small durable document
(:func:`repro.store.oslayer.write_document`: checksummed JSON, replaced
atomically) written when the shard finishes: identity, final position and
stats, the rows since the last log record inline (``tail``, hex of the same
packed form), the length and chain digest of the log prefix the earlier rows
live in (``log_length`` / ``log_chain``; 0 when the shard never checkpointed
and all its rows ride in the head), and the order-independent ``digest`` of
the whole deduplicated reply set — computed once, here, not per checkpoint.

**Integrity.**  A record is acknowledged once its fsync returns.  On load:

* a record at the *tail* that is cut short, or complete but failing its
  digest, is an unacknowledged torn write: replay stops at the last good
  record and the shard resumes from that record's position — the guarantee
  tmp + rename gave, the previous checkpoint survives.  The file itself is
  left alone; the resuming attempt carries only the verified prefix over
  (below);
* a record *before* the tail that fails (digest, or a length that does not
  match its complement: :class:`~repro.store.framing.FrameCorrupt`), a head
  whose ``checksum`` fails, a head whose ``log_length`` / ``log_chain`` do
  not match the log, or a head whose ``digest`` is not that of the
  reassembled rows, is corruption: head and log are **quarantined
  together** — renamed to ``<name>.corrupt`` and reported in one
  ``checkpoint_corrupt`` event — and the shard is re-scanned instead of
  resuming from (or crashing on) garbage.

**Racing attempts.**  A watchdog-abandoned straggler and its retry can
checkpoint the same shard at once, and appends to one inode would
interleave.  So an attempt never appends to a file it found: its first
checkpoint writes the verified prefix it loaded (or, with nothing to resume,
the header and identity) plus its own first record to a fresh file and
renames that over ``shard-<job>.log`` — O(shard) once per attempt — and from
then on appends through its own descriptor; the straggler keeps writing to
the orphaned inode.  Before the head goes out, an attempt that finds another
attempt's file under the log's name puts its own back, so the head and the
log it names come from the same attempt.

**Versions.**  ``STATE_VERSION`` 2.  A head or manifest of another version
(v1's whole-result ``shard-*.json`` included), like a log of another
version, is treated as missing: the shard is scanned afresh.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.rows import Rows
from repro.core.scanner import ScanResult
from repro.core.stats import ScanStats
from repro.core.target import ScanRange
from repro.store.framing import (
    ChainedLog,
    FrameCorrupt,
    chain_start,
    frame,
    replay,
)
from repro.store.oslayer import (
    DocumentCorrupt,
    get_default_os,
    read_document,
    write_document,
)

STATE_VERSION = 2

#: Shard status values: a ``partial`` shard resumes from ``position``; a
#: ``done`` shard is never re-executed (zero probes on resume).
PARTIAL = "partial"
DONE = "done"

_LOG_MAGIC = b"RPCK"
_LOG_HEADER = _LOG_MAGIC + bytes([STATE_VERSION, 0, 0, 0])
#: Checkpoint payload prefix: position, then the ScanStats fields (sent,
#: blocked, received, validated, discarded, virtual_start, virtual_end,
#: wall_seconds); the packed rows follow.
_PROGRESS = struct.Struct(">Q5Q3d")


class _Corrupt(Exception):
    """State that fails verification; the message is the event ``reason``."""


@dataclass
class ShardState:
    """One checkpoint of one shard.

    ``position`` and ``result.stats`` are cumulative.  ``result.results`` is
    cumulative in a state :meth:`CheckpointStore.load_shard` returns, and
    holds only the rows validated **since the previous write** in a state
    handed to :meth:`CheckpointStore.write_shard` — the store already has
    the earlier ones.
    """

    job_id: str
    status: str  # PARTIAL | DONE
    shard: int
    shards: int
    position: int  # shard-stream positions consumed (resume offset)
    result: ScanResult
    #: ``dedup_digest()`` of the whole reply set, as loaded from a DONE head.
    digest: str = ""
    #: Writing DONE only: the shard's whole result, from which the head's
    #: ``digest`` is computed.  May be left out when ``result`` *is* the
    #: whole result (the shard never checkpointed PARTIAL).
    whole: Optional[ScanResult] = None


def _filename(job_id: str) -> str:
    """A filesystem-safe name for a shard's head file."""
    safe = job_id.replace("/", "-").replace(":", "_")
    return f"shard-{safe}.json"


def _unpack_rows(packed: bytes) -> Rows:
    try:
        return Rows.unpack(packed)
    except ValueError:
        raise _Corrupt("malformed-state") from None


class CheckpointStore:
    """A directory of per-shard state (head + log) plus one campaign manifest.

    ``on_event`` is an optional telemetry hook: every state transition the
    store performs (shard write, manifest write, quarantine, clear) is
    reported as one structured-event dict, so checkpoint activity lands in
    the campaign's :class:`~repro.telemetry.events.EventLog` (or a worker's
    local buffer) without the store knowing anything about logging.

    A store that writes shard state holds that shard's log open between
    checkpoints; :meth:`close` releases it.
    """

    MANIFEST = "campaign.json"

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        on_event: "Optional[callable]" = None,
        os_layer=None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.on_event = on_event
        #: Durability syscall surface (see :mod:`repro.store.oslayer`);
        #: swapped for a shim by the host fault domain / kill harness.
        self.os = os_layer if os_layer is not None else get_default_os()
        #: job id -> this store's private copy of the shard's log: the
        #: verified prefix it loaded (until its own copy is published),
        #: then its own descriptor.
        self._attempts: Dict[str, ChainedLog] = {}

    def _event(self, event_type: str, **fields: object) -> None:
        if self.on_event is not None:
            self.on_event({"type": event_type, **fields})

    def close(self) -> None:
        """Release every log descriptor this store holds."""
        for attempt in self._attempts.values():
            attempt.close()
        self._attempts.clear()

    # -- integrity -------------------------------------------------------------

    @staticmethod
    def _set_aside(path: pathlib.Path) -> str:
        """Rename ``path`` to ``<name>.corrupt``; "" if it could not be."""
        target = path.with_name(path.name + ".corrupt")
        try:
            path.replace(target)
        except OSError:  # absent, or a race with a concurrent writer
            return ""
        return str(target)

    def _quarantine(self, path: pathlib.Path, what: str, reason: str,
                    companion: Optional[pathlib.Path] = None) -> None:
        """Move a corrupt state file — and ``companion``, the other half of
        a shard's state, with it — aside, and report it once."""
        fields: Dict[str, object] = {
            "file": str(path),
            "quarantined": self._set_aside(path),
            "what": what,
            "reason": reason,
        }
        if companion is not None and companion.exists():
            fields["companion"] = self._set_aside(companion)
        self._event("checkpoint_corrupt", **fields)

    def _load_json(self, path: pathlib.Path, what: str,
                   companion: Optional[pathlib.Path] = None,
                   ) -> Optional[Dict[str, object]]:
        """Read one state document; quarantine on corruption.

        Returns None when the file is absent or corrupt (quarantined, with
        ``companion``).
        """
        try:
            return read_document(path)
        except FileNotFoundError:
            return None
        except DocumentCorrupt as exc:
            self._quarantine(path, what, exc.reason, companion)
            return None

    # -- shard state: writing --------------------------------------------------

    def shard_path(self, job_id: str) -> pathlib.Path:
        """The shard's head file (present once the shard is DONE)."""
        return self.directory / _filename(job_id)

    def log_path(self, job_id: str) -> pathlib.Path:
        """The shard's checkpoint log (present once it checkpointed)."""
        return self.shard_path(job_id).with_suffix(".log")

    def write_shard(self, state: ShardState) -> None:
        """Persist one checkpoint: ``state.result.results`` holds the rows
        since the previous write (see :class:`ShardState`).

        PARTIAL appends one record to the shard's log and fsyncs it; DONE
        atomically writes the head.  Either way the checkpoint is durable
        when this returns, and a failure leaves the previous one intact.
        """
        if state.status == PARTIAL:
            self._append(state)
        else:
            self._write_head(state)
        self._event(
            "checkpoint_written",
            job_id=state.job_id,
            status=state.status,
            position=state.position,
            sent=state.result.stats.sent,
        )

    def _attempt(self, state: ShardState) -> ChainedLog:
        attempt = self._attempts.get(state.job_id)
        if attempt is None:
            identity = json.dumps({
                "job_id": state.job_id,
                "shard": state.shard,
                "shards": state.shards,
                "range": str(state.result.range),
            }, sort_keys=True).encode()
            record, chain = frame(chain_start(_LOG_HEADER), identity)
            attempt = self._attempts[state.job_id] = ChainedLog(
                self.os, self.log_path(state.job_id),
                _LOG_HEADER + record, chain,
            )
        return attempt

    def _append(self, state: ShardState) -> None:
        stats = state.result.stats
        payload = _PROGRESS.pack(
            state.position, stats.sent, stats.blocked, stats.received,
            stats.validated, stats.discarded, stats.virtual_start,
            stats.virtual_end, stats.wall_seconds,
        ) + state.result.results.packed()
        attempt = self._attempt(state)
        try:
            attempt.append(payload)
        except BaseException:
            # Whatever reached the file is a torn tail for the next load to
            # step over; this store cannot vouch for the log any more.
            attempt.close()
            del self._attempts[state.job_id]
            raise

    @staticmethod
    def _owns_log(path: pathlib.Path, attempt: ChainedLog) -> bool:
        """Is the file under the log's name this attempt's own copy?"""
        if attempt.handle is None:
            return False
        try:
            return os.fstat(attempt.handle.fileno()).st_ino == (
                os.stat(path).st_ino
            )
        except FileNotFoundError:
            return False

    def _own_log(self, path: pathlib.Path, attempt: ChainedLog) -> None:
        """Make the file under the log's name this attempt's own copy."""
        if self._owns_log(path, attempt):
            return
        if attempt.handle is not None:
            # A racing attempt renamed its copy over ours: put ours back.
            attempt.handle.seek(0)
            attempt.prefix = attempt.handle.read()
            attempt.close()
        attempt.publish()

    def _write_head(self, state: ShardState) -> None:
        # An attempt on record has checkpoint records in its log: rows the
        # head must point at.  Without one, every row rides in the head.
        attempt = self._attempts.pop(state.job_id, None)
        log_path = self.log_path(state.job_id)
        log_length, log_chain = 0, ""
        try:
            if attempt is not None:
                if state.whole is None:
                    raise ValueError(
                        f"{state.job_id}: a DONE state over a checkpoint log "
                        "must carry the shard's whole result"
                    )
                log_length, log_chain = attempt.length, attempt.chain.hex()
            head = {
                "version": STATE_VERSION,
                "job_id": state.job_id,
                "status": DONE,
                "shard": state.shard,
                "shards": state.shards,
                "position": state.position,
                "result": {
                    "range": str(state.result.range),
                    "stats": state.result.stats.to_dict(),
                },
                "digest": (state.whole or state.result).dedup_digest(),
                "tail": state.result.results.packed().hex(),
                "log_length": log_length,
                "log_chain": log_chain,
            }
            while True:
                if attempt is not None:
                    self._own_log(log_path, attempt)
                write_document(self.os, self.shard_path(state.job_id), head)
                # A racing attempt may have renamed its log over ours
                # between the two renames above, leaving our head over its
                # log.  Whichever attempt finishes last must leave its own
                # pair, so go again until the log is still ours afterwards.
                if attempt is None or self._owns_log(log_path, attempt):
                    break
        finally:
            if attempt is not None:
                attempt.close()

    # -- shard state: loading --------------------------------------------------

    def load_shard(self, job_id: str) -> Optional[ShardState]:
        """Load a shard's state; None if absent, unreadable, or corrupt.

        A PARTIAL state's verified log prefix is remembered: the first
        :meth:`write_shard` for this shard through this store continues it.
        """
        loaded = self._read(self.shard_path(job_id))
        if loaded is None:
            return None
        state, attempt = loaded
        if attempt is not None:
            self._attempts[job_id] = attempt
        return state

    def iter_states(self) -> Iterator[ShardState]:
        heads = {
            path.with_suffix(".json")
            for pattern in ("shard-*.json", "shard-*.log")
            for path in self.directory.glob(pattern)
        }
        for head_path in sorted(heads):
            loaded = self._read(head_path)
            if loaded is not None:
                yield loaded[0]

    def _read(
        self, head_path: pathlib.Path
    ) -> Optional[Tuple[ShardState, Optional[ChainedLog]]]:
        """One shard's state from its head (DONE) or, failing a head, its
        log (PARTIAL, with the log state to continue from); corruption
        quarantines both files."""
        log_path = head_path.with_suffix(".log")
        head = self._load_json(head_path, "shard", companion=log_path)
        if head is not None and head.get("version") != STATE_VERSION:
            head = None
        try:
            log: Optional[bytes] = log_path.read_bytes()
        except FileNotFoundError:
            log = None
        try:
            if head is not None:
                return _done_state(head, log), None
            partial = None if log is None else _partial_state(log)
            if partial is None:
                return None
            state, prefix, chain = partial
            return state, ChainedLog(self.os, log_path, prefix, chain)
        except (_Corrupt, FrameCorrupt) as exc:
            if head is not None:
                self._quarantine(head_path, "shard", str(exc), log_path)
            else:
                self._quarantine(log_path, "shard", str(exc))
            return None

    # -- campaign manifest ----------------------------------------------------------

    def write_manifest(self, meta: Dict[str, object]) -> None:
        path = self.directory / self.MANIFEST
        write_document(self.os, path, {"version": STATE_VERSION, **meta})
        self._event("manifest_written", directory=str(self.directory))

    def load_manifest(self) -> Optional[Dict[str, object]]:
        path = self.directory / self.MANIFEST
        data = self._load_json(path, what="manifest")
        if data is None:
            return None
        return data if data.get("version") == STATE_VERSION else None

    def clear(self) -> None:
        """Forget all persisted state (fresh campaign over an old directory)."""
        cleared = 0
        # Heads, logs, quarantined copies and abandoned tmp files alike.
        for path in self.directory.glob("shard-*"):
            path.unlink()
            cleared += path.name.endswith((".json", ".json.corrupt"))
        for name in (self.MANIFEST, self.MANIFEST + ".corrupt"):
            target = self.directory / name
            if target.exists():
                target.unlink()
        self._event("checkpoints_cleared", directory=str(self.directory),
                    shards=cleared)


def _checkpoint_rows(payloads: Sequence[bytes]) -> Rows:
    """The rows of a log's checkpoint records (everything after the
    identity record), in the order they were validated."""
    rows = Rows()
    for payload in payloads[1:]:
        if len(payload) < _PROGRESS.size:
            raise _Corrupt("malformed-state")
        rows.rows += _unpack_rows(payload[_PROGRESS.size:]).rows
    return rows


def _partial_state(log: bytes) -> Optional[Tuple[ShardState, bytes, bytes]]:
    """The state a log alone vouches for — that of its last good record —
    with the verified prefix and the chain digest to continue it from."""
    if log[:len(_LOG_HEADER)] != _LOG_HEADER:
        if log[:len(_LOG_MAGIC)] == _LOG_MAGIC and len(log) >= len(_LOG_HEADER):
            return None  # another version's log: as good as missing
        raise _Corrupt("malformed-state")
    payloads, good, chain = replay(log, _LOG_HEADER)
    if len(payloads) < 2:
        return None  # no checkpoint was ever acknowledged
    rows = _checkpoint_rows(payloads)
    try:
        identity = json.loads(payloads[0])
        position, *stats = _PROGRESS.unpack_from(payloads[-1])
        state = ShardState(
            job_id=str(identity["job_id"]),
            status=PARTIAL,
            shard=int(identity["shard"]),
            shards=int(identity["shards"]),
            position=position,
            result=ScanResult(
                range=ScanRange.parse(str(identity["range"])),
                results=rows,
                stats=ScanStats(*stats),
            ),
        )
    except (ValueError, KeyError, TypeError):
        raise _Corrupt("malformed-state") from None
    return state, log[:good], chain


def _done_state(head: Dict[str, object], log: Optional[bytes]) -> ShardState:
    """The state a DONE head describes, its rows reassembled from the log
    prefix it names and its own tail."""
    try:
        if head["status"] != DONE:
            raise _Corrupt("malformed-state")
        log_length = int(head["log_length"])
        rows = Rows()
        if log_length:
            payloads, good, chain = replay(
                (log or b"")[:log_length], _LOG_HEADER
            )
            if good != log_length or chain.hex() != head["log_chain"]:
                raise _Corrupt("checksum-mismatch")
            rows = _checkpoint_rows(payloads)
        rows.rows += _unpack_rows(bytes.fromhex(str(head["tail"]))).rows
        result: Dict[str, object] = head["result"]
        state = ShardState(
            job_id=str(head["job_id"]),
            status=DONE,
            shard=int(head["shard"]),
            shards=int(head["shards"]),
            position=int(head["position"]),
            result=ScanResult(
                range=ScanRange.parse(str(result["range"])),
                results=rows,
                stats=ScanStats.from_dict(result["stats"]),  # type: ignore[arg-type]
            ),
            digest=str(head["digest"]),
        )
    except (ValueError, KeyError, TypeError):
        raise _Corrupt("malformed-state") from None
    if state.digest != state.result.dedup_digest():
        # Checksums passed but the reply set doesn't hash to the recorded
        # digest: content-level tampering.  Quarantine rather than let a
        # resume silently build on altered replies.
        raise _Corrupt("digest-mismatch")
    return state
