"""Chained record framing: the one append-only log format, and the one
writer of it.

:func:`~repro.store.oslayer.write_document` covers state that is replaced
whole; this module covers state that *grows* — where a durable update
should cost what it adds, not what the file already holds.  Two owners use
it: a shard's checkpoint log (:mod:`repro.engine.checkpoint`) and the
daemon's queue journal (:mod:`repro.service.queue`).  Each brings its own
file header (magic, version, whatever else identifies the file) and its
own payloads; the framing between them is shared::

    | header (the owner's)                                            |
    | record: len u32 | ~len u32 | payload | sha256(chain | payload)  |
    | record: ...                                                     |

``chain`` starts as SHA-256 of the header and advances to each record's
digest, so a record's digest vouches for every byte before it: verifying a
file is one pass (:func:`replay`), and appending hashes only the new
payload (:func:`frame`).  The length rides with its one's complement so a
damaged length is told from a record that merely runs past the end.

**Tail is torn, interior is corrupt.**  A record is acknowledged once its
fsync returns.  A record at the *tail* that is cut short — or complete but
failing its digest, with nothing after it — was never acknowledged:
:func:`replay` stops silently at the last good record.  Anything before the
tail that fails is damage to acknowledged state: :class:`FrameCorrupt`,
which each owner maps to its own reaction (quarantine and re-scan for a
checkpoint log, refuse to start for the queue).

:class:`ChainedLog` is the writer: a file is created whole under a private
tmp name and renamed into place by the first append (``write, fsync,
replace``), and every later append is ``write, fsync`` through the writer's
own descriptor — a writer never appends to a file it found.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import IO, List, Optional, Tuple

from repro.store.oslayer import OsLayer, writer_tmp

_FRAME = struct.Struct(">II")
_DIGEST_SIZE = hashlib.sha256().digest_size


class FrameCorrupt(Exception):
    """A record before the tail failed verification.  The message is the
    reason, in the vocabulary of the owners' quarantine events."""


def chain_start(header: bytes) -> bytes:
    """Where a file's chain starts: the digest of its header."""
    return hashlib.sha256(header).digest()


def frame(chain: bytes, payload: bytes) -> Tuple[bytes, bytes]:
    """One record, and the chain digest it advances to."""
    digest = hashlib.sha256(chain + payload).digest()
    size = len(payload)
    return _FRAME.pack(size, size ^ 0xFFFFFFFF) + payload + digest, digest


def replay(data: bytes, header: bytes) -> Tuple[List[bytes], int, bytes]:
    """Verify a file's chain in one pass.

    ``header`` is the header the owner has already accepted ``data`` as
    starting with.  Returns the payloads of the records that verify, the
    offset just past the last of them, and the chain digest there.  Stops
    silently at a torn tail; raises :class:`FrameCorrupt` for damage before
    the tail.
    """
    offset, chain = len(header), chain_start(header)
    payloads: List[bytes] = []
    while len(data) - offset >= _FRAME.size:
        size, complement = _FRAME.unpack_from(data, offset)
        if size ^ complement != 0xFFFFFFFF:
            raise FrameCorrupt("checksum-mismatch")
        body = offset + _FRAME.size
        end = body + size + _DIGEST_SIZE
        if end > len(data):
            break  # cut short: never acknowledged
        payload = data[body:body + size]
        digest = hashlib.sha256(chain + payload).digest()
        if digest != data[body + size:end]:
            if end == len(data):
                break  # the last record, complete but torn inside
            raise FrameCorrupt("checksum-mismatch")
        payloads.append(payload)
        offset, chain = end, digest
    return payloads, offset, chain


class ChainedLog:
    """One writer's private copy of the chained log at ``path``.

    Until its first append it is only bytes in memory: ``prefix``, the
    verified content it rests on — the header alone for a new log, or the
    good prefix of a file some earlier writer left.  The first
    :meth:`append` writes prefix and record to a fresh tmp file and renames
    it over ``path``; from then on the log is this writer's own descriptor.
    ``length`` and ``chain`` cover acknowledged records only.

    An append that raises leaves the file in an unknown state past
    ``length`` — a torn tail for the next load to step over — so the owner
    must :meth:`close` and forget a log that failed.
    """

    def __init__(self, os_layer: OsLayer, path: Path, prefix: bytes,
                 chain: bytes) -> None:
        self.os = os_layer
        self.path = path
        self.prefix = prefix
        self.length = len(prefix)
        self.chain = chain
        self.handle: Optional[IO[bytes]] = None

    def append(self, payload: bytes) -> None:
        """Frame ``payload`` and make it durable: one write, one fsync
        (the first also creates the file: write, fsync, replace)."""
        record, chain = frame(self.chain, payload)
        if self.handle is None:
            self.publish(record)
        else:
            self._write_durably(self.handle, record)
        self.chain = chain
        self.length += len(record)

    def publish(self, record: bytes = b"") -> None:
        """Start this writer's own file — the prefix it rests on, plus
        ``record`` — and rename it over the shared name."""
        tmp = writer_tmp(self.path)
        handle = open(tmp, "w+b")
        try:
            self._write_durably(handle, self.prefix + record)
            self.os.replace(tmp, self.path)
        except BaseException:
            handle.close()
            raise
        self.handle = handle
        self.prefix = b""

    def _write_durably(self, handle: IO[bytes], data: bytes) -> None:
        self.os.write(handle, data)
        handle.flush()
        self.os.fsync(handle)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None
