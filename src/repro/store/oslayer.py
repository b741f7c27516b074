"""The pluggable OS layer under every durability operation, and the one
durable-document protocol built on it.

Everything the result path promises about crash safety rests on four
syscalls: ``write`` (segment bytes and manifest JSON reach the kernel),
``fsync`` (they reach the platter), ``rename`` (they become visible
atomically), and the directory fsync that makes the rename itself durable.
:class:`OsLayer` names exactly those four operations, and every component
with a durability claim — :class:`~repro.store.segment.SegmentWriter`,
:class:`~repro.store.store.ResultStore`'s manifest, the engine's
:class:`~repro.engine.checkpoint.CheckpointStore` and the daemon's
:class:`~repro.service.queue.CampaignQueue` — routes its calls through one.

Three implementations ship:

* :class:`RealOs` (the default) delegates straight to ``os`` / the file
  object — byte-identical behaviour and indistinguishable cost;
* :class:`~repro.faults.host.FaultyOs`, the host fault domain's shim,
  which fails scheduled operations with EIO/ENOSPC, tears writes at byte
  offsets, and crashes before/after renames on the virtual clock; and
* :class:`~repro.faults.host.KillSwitchOs`, the kill-anywhere harness's
  shim, which counts operations and SIGKILLs the process at the N-th.

The **process default** is a module global so a harness can swap the
layer for every store opened afterwards in this process — including
forked pool workers, which inherit it — without threading a parameter
through every constructor.  The kill-anywhere harness
(:mod:`repro.faults.killtest`) installs its SIGKILL-counting layer this
way before its target starts.

**Durable documents.**  The store manifest, a shard's checkpoint head, the
campaign manifest and the daemon's ``queue.json`` are all the same thing:
one JSON object that must be replaced atomically and must never load
damaged.  :func:`write_document` is the one writer and
:func:`read_document` / :func:`parse_document` the one reader.  What to do
*about* a corrupt document — quarantine, rescan, refuse to start — and
whether the rename needs a directory fsync stay with the document's owner.
State that grows instead of being replaced — checkpoint logs, the queue
journal — has its own one format and one writer on the same four
operations: :mod:`repro.store.framing`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import IO, Dict, Mapping, Tuple


class OsLayer:
    """The durability syscall surface; subclass to intercept.

    The base class *is* the real implementation — :class:`RealOs` exists
    only as a named alias so call sites read honestly.  Methods take the
    open file object (not a path) where the real call would, so a shim
    sees exactly what the kernel would.
    """

    def write(self, handle: IO[bytes], data: bytes) -> None:
        """Append ``data`` to an open binary file."""
        handle.write(data)

    def fsync(self, handle: IO) -> None:
        """Flush OS buffers for an open file to stable storage."""
        os.fsync(handle.fileno())

    def replace(self, src: Path, dst: Path) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)

    def fsync_dir(self, path: Path) -> None:
        """Fsync a directory so a rename inside it survives power loss.

        Raises :class:`OSError` when the fsync itself fails — the caller
        decides whether degraded rename durability is fatal or merely
        observable.  Platforms that cannot open a directory read-only
        (no such fd semantics) are silently excused: there is nothing
        to sync there, not a failure to report.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic platforms
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class RealOs(OsLayer):
    """The passthrough layer: exactly the syscalls, nothing else."""


#: The process-wide default layer.  Mutated only via :func:`set_default_os`;
#: components capture it at construction time via :func:`get_default_os`.
_DEFAULT: OsLayer = RealOs()


def get_default_os() -> OsLayer:
    """The layer a store/segment/checkpoint opened *now* would use."""
    return _DEFAULT


def set_default_os(layer: "OsLayer | None") -> OsLayer:
    """Install a process-wide layer (None restores the real one).

    Returns the previous layer so a test can restore it in a finally.
    Affects components constructed *after* the call; existing writers
    keep the layer they captured.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = layer if layer is not None else RealOs()
    return previous


# -- durable documents ---------------------------------------------------------


class DocumentCorrupt(ValueError):
    """A durable document failed to decode or verify.

    ``reason`` is ``truncated-or-invalid-json`` (bytes that are not UTF-8
    included), ``not-a-json-object`` or ``checksum-mismatch`` — the
    vocabulary the owners' quarantine events already use.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def writer_tmp(path: Path) -> Path:
    """The tmp sibling a writer builds ``path`` in before renaming it over.

    Unique per writer (pid and thread): two writers of one name — a
    watchdog-abandoned straggler racing its retry, two campaigns of one
    tenant committing at once — must not clobber each other's half-written
    files.
    """
    return path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )


def _sealed(payload: Mapping[str, object]) -> Tuple[bytes, str]:
    """A payload's canonical JSON (``checksum`` excluded; ASCII, as
    ``json.dumps`` escapes the rest) and the SHA-256 of those bytes — the
    document's checksum."""
    canonical = json.dumps(
        {k: v for k, v in payload.items() if k != "checksum"}, sort_keys=True
    ).encode()
    return canonical, hashlib.sha256(canonical).hexdigest()


def document_checksum(payload: Mapping[str, object]) -> str:
    """Whole-payload SHA-256 over canonical JSON (``checksum`` excluded)."""
    return _sealed(payload)[1]


def write_document(os_layer: OsLayer, path: Path,
                   payload: Mapping[str, object]) -> None:
    """Atomically replace ``path`` with ``payload`` plus its checksum.

    One encoding is both hashed and written: the canonical form, with the
    checksum spliced in before the closing brace.  Exactly ``write``,
    ``fsync``, ``replace``; a failure at any of them leaves the previous
    document in place and at most a stale tmp file behind.  The rename's
    own durability (``fsync_dir``) is the caller's to ask for.
    """
    canonical, checksum = _sealed(payload)
    separator = ", " if len(canonical) > 2 else ""
    body = canonical[:-1] + f'{separator}"checksum": "{checksum}"}}'.encode()
    tmp = writer_tmp(path)
    with open(tmp, "wb") as handle:
        os_layer.write(handle, body)
        handle.flush()
        os_layer.fsync(handle)
    os_layer.replace(tmp, path)


def parse_document(raw: bytes) -> Dict[str, object]:
    """Decode and verify one document's bytes.

    Every writer records a ``checksum``, so a document without one has
    lost it: that is a mismatch like any other.
    """
    try:
        data = json.loads(raw)
    except ValueError:  # includes bytes that are not UTF-8
        raise DocumentCorrupt("truncated-or-invalid-json") from None
    if not isinstance(data, dict):
        raise DocumentCorrupt("not-a-json-object")
    if data.get("checksum") != document_checksum(data):
        raise DocumentCorrupt("checksum-mismatch")
    return data


def read_document(path: Path) -> Dict[str, object]:
    """The verified document at ``path``; :class:`FileNotFoundError` when
    there is none, :class:`DocumentCorrupt` when it cannot be trusted."""
    with open(path, "rb") as handle:
        return parse_document(handle.read())
