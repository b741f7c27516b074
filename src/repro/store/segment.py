"""Append-only binary result segments: the store's on-disk unit.

A *segment* is a sealed, immutable file of :class:`~repro.core.scanner.
ProbeResult` rows in fixed 35-byte binary form — 16-byte target address,
16-byte responder address, and one byte each for the reply kind, ICMPv6
type, and ICMPv6 code.  Rows are grouped into *blocks*::

    +-------- file --------------------------------------------------+
    | magic "RPS1" | version u8 | reserved ×3                        |
    | block: rows u32 | row ×N (35 B each) | crc32(payload) u32      |
    | block: ...                                                     |
    +----------------------------------------------------------------+

Every block carries a CRC32 trailer over its payload, so truncation and
bit-rot are detected at read time (:class:`SegmentCorrupt`) instead of
surfacing as silently wrong rows.  Reply kinds are stored as one-byte codes
against a table recorded in the segment's metadata, so a segment written
today stays decodable if the enum ever grows.

Writers stream: rows append into an in-memory block buffer of at most
``block_rows`` rows and flush to disk when full — the writer's peak resident
row count is the block size, which is what lets a campaign's result path
run in bounded memory.  Sealing fsyncs and atomically renames the ``.tmp``
file into place, so a crash mid-write never leaves a half-segment under a
committed name.

Readers are mmap-backed by default — block payloads are decoded straight
out of the mapping with no intermediate copy — with a plain ``read_bytes``
scalar fallback for platforms or filesystems where mmap is unavailable.  A
segment of at most :data:`SMALL_SEGMENT` bytes is read, not mapped: for the
small segments the service writes, one ``read`` costs less than setting up
and tearing down a mapping.
"""

from __future__ import annotations

import functools
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.probes.base import ReplyKind
from repro.core.rows import (
    KINDS,
    ROW_SIZE,
    ProbeResult,
    Projection,
    Rows,
    as_dicts,
    as_results,
    pack_row,
)
from repro.store.index import SegmentIndex, SegmentIndexBuilder
from repro.store.oslayer import OsLayer, get_default_os, writer_tmp

MAGIC = b"RPS1"
SEGMENT_VERSION = 1
HEADER = MAGIC + bytes([SEGMENT_VERSION, 0, 0, 0])

_U32 = struct.Struct(">I")

#: Largest segment :meth:`SegmentReader._buffer` reads with one ``read``
#: instead of mapping.  A verify-only walk of every block
#: (``iter_blocks(project=None)``, the cached ``/results`` path), warm,
#: median of 300-2,000 walks, 2-vCPU VM (Python 3.11), mapped vs read:
#: 296 B 9.3 vs 5.6 µs, 4 KB 10.2 vs 6.4, 16 KB 13.1 vs 8.9, 66 KB 25.6 vs
#: 19.3, 263 KB 66.1 vs 60.8, 1 MB 235 vs 246.  The read wins up to a few
#: hundred KB but copies the file; a mapping holds no copy, so the limit
#: stays where the saving is still a quarter of the walk.
SMALL_SEGMENT = 64 * 1024

#: Canonical kind-code table for newly written segments (code = position).
KIND_TABLE: Tuple[str, ...] = tuple(kind.value for kind in KINDS)

#: Default rows per block — the writer's peak resident row count.
DEFAULT_BLOCK_ROWS = 512


class SegmentCorrupt(RuntimeError):
    """A segment failed structural or CRC validation while being read."""


def unpack_rows(
    payload,
    count: int,
    kinds: Sequence[ReplyKind] = tuple(ReplyKind),
    project: Projection = as_results,
) -> list:
    """The first ``count`` rows of ``payload``, through ``project`` (one of
    :mod:`repro.core.rows`' projections; :class:`ProbeResult` objects by
    default — the inverse of :func:`pack_row`).

    ``kinds`` is the kind-code table the rows were packed against (the
    current one by default).  Raises :class:`SegmentCorrupt` on a kind code
    outside it.
    """
    with memoryview(payload) as view, view[:count * ROW_SIZE] as rows:
        # Bounds-check every kind code up front (byte 32 of each row), so
        # no projection has an error path that could leave a live buffer
        # export in a traceback.
        if count and max(rows[32::ROW_SIZE]) >= len(kinds):
            raise SegmentCorrupt(
                f"kind code {max(rows[32::ROW_SIZE])} outside the recorded "
                f"kind table"
            )
        return project(rows, kinds)


class SegmentWriter:
    """Streams rows into blocks; ``seal()`` makes the segment durable.

    ``path`` is the final segment path; bytes accumulate in a uniquely
    named sibling ``.tmp`` file (two workers retrying the same shard must
    not clobber each other) until :meth:`seal` fsyncs and renames it into
    place.  An unsealed writer leaves only a ``.tmp`` behind — never a
    half-written segment under the committed name.
    """

    def __init__(self, path: "str | os.PathLike[str]",
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 os_layer: Optional[OsLayer] = None) -> None:
        if block_rows < 1:
            raise ValueError("block_rows must be positive")
        self.path = Path(path)
        self.block_rows = block_rows
        #: Durability syscall surface; the host fault domain swaps this for
        #: a shim that fails/tears/crashes scheduled operations.
        self.os = os_layer if os_layer is not None else get_default_os()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = writer_tmp(self.path)
        self._fh = open(self._tmp, "wb")
        self.os.write(self._fh, HEADER)
        self._crc = zlib.crc32(HEADER)
        self._bytes = len(HEADER)
        self._buffer: List[bytes] = []
        self._index = SegmentIndexBuilder()
        self.rows = 0
        self.blocks = 0
        self.sealed = False

    @property
    def buffered_rows(self) -> int:
        """Rows currently resident in memory (bounded by ``block_rows``)."""
        return len(self._buffer)

    def append(self, result: ProbeResult) -> None:
        self.append_row(pack_row(result))

    def append_row(self, row: bytes) -> None:
        """Append one row already in its packed :data:`ROW` form."""
        self._buffer.append(row)
        self.rows += 1
        if len(self._buffer) >= self.block_rows:
            self._flush_block()

    def append_many(self, results: "Rows | Sequence[ProbeResult]") -> None:
        """Append every result in order; a :class:`Rows` is written from
        its packed bytes, as they are."""
        if isinstance(results, Rows):
            for row in results.rows:
                self.append_row(row)
        else:
            for result in results:
                self.append(result)

    def _write(self, data: bytes) -> None:
        self.os.write(self._fh, data)
        self._crc = zlib.crc32(data, self._crc)
        self._bytes += len(data)

    def _flush_block(self) -> None:
        if not self._buffer:
            return
        payload = b"".join(self._buffer)
        self._write(_U32.pack(len(self._buffer)))
        self._write(payload)
        self._write(_U32.pack(zlib.crc32(payload)))
        self._index.add_block(payload)
        self._buffer.clear()
        self.blocks += 1

    def seal(self) -> Dict[str, object]:
        """Flush, fsync, rename into place; returns the segment metadata.

        The metadata dict is what a :class:`~repro.store.store.ResultStore`
        manifest records per segment: row/block/byte counts, the whole-file
        CRC32, the kind-code table, and the prefix index (one packed
        string per level, :mod:`repro.store.index`).
        """
        if self.sealed:
            raise RuntimeError(f"segment {self.path.name} already sealed")
        self._flush_block()
        self._fh.flush()
        self.os.fsync(self._fh)
        self._fh.close()
        self.os.replace(self._tmp, self.path)
        self.sealed = True
        return {
            "name": self.path.name,
            "rows": self.rows,
            "blocks": self.blocks,
            "bytes": self._bytes,
            "crc32": self._crc & 0xFFFFFFFF,
            "kinds": list(KIND_TABLE),
            "index": self._index.to_dict(),
        }

    def abort(self) -> None:
        """Discard an unsealed writer and its temporary file."""
        if self.sealed:
            return
        self._fh.close()
        self._tmp.unlink(missing_ok=True)


class SegmentReader:
    """Decodes a sealed segment, block-CRC-verified, mmap-backed (one of
    at most :data:`SMALL_SEGMENT` bytes is read into memory instead).

    ``meta`` is the dict :meth:`SegmentWriter.seal` produced (normally
    served from the store manifest).  ``use_mmap=False`` forces the scalar
    fallback — one ``read_bytes`` of the whole file — which is also taken
    automatically when mapping fails.
    """

    def __init__(self, path: "str | os.PathLike[str]",
                 meta: Dict[str, object], use_mmap: bool = True) -> None:
        self.path = Path(path)
        self.meta = meta
        self.use_mmap = use_mmap
        kinds = meta.get("kinds") or list(KIND_TABLE)
        self._kinds: List[ReplyKind] = [ReplyKind(value) for value in kinds]
        self.rows = int(meta.get("rows", 0))

    @functools.cached_property
    def index(self) -> SegmentIndex:
        """The prefix index, parsed on first use: only queries read it."""
        return SegmentIndex.from_dict(self.meta.get("index") or {})

    def _buffer(self):
        """(buffer, closer): an mmap over the file, or its bytes — always
        its bytes at most :data:`SMALL_SEGMENT` long."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            raise SegmentCorrupt(f"{self.path.name}: missing-file") from None
        if self.use_mmap and os.fstat(fh.fileno()).st_size > SMALL_SEGMENT:
            try:
                view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                return view, (lambda: (view.close(), fh.close()))
            except (ValueError, OSError):
                pass  # empty file or mmap-hostile FS: scalar fallback
        data = fh.read()
        fh.close()
        return data, (lambda: None)

    def verify(self) -> None:
        """Whole-file structural + CRC check against the metadata."""
        expected_bytes = int(self.meta.get("bytes", -1))
        actual = self.path.stat().st_size
        if expected_bytes >= 0 and actual != expected_bytes:
            raise SegmentCorrupt(
                f"{self.path.name}: size {actual} != recorded {expected_bytes}"
            )
        buffer, close = self._buffer()
        try:
            crc = zlib.crc32(buffer)
            recorded = self.meta.get("crc32")
            if recorded is not None and crc != int(recorded):
                raise SegmentCorrupt(
                    f"{self.path.name}: file CRC {crc:#x} != recorded "
                    f"{int(recorded):#x}"
                )
            for _ in self._iter_blocks(buffer, None, None, as_results):
                pass
        finally:
            close()

    def _decode_rows(self, payload, count: int,
                     project: Projection = as_results) -> list:
        """The first ``count`` rows of one CRC-verified block payload."""
        try:
            return unpack_rows(payload, count, self._kinds, project)
        except SegmentCorrupt as exc:
            raise SegmentCorrupt(f"{self.path.name}: {exc}") from None

    def _iter_blocks(
        self,
        buffer,
        wanted: Optional[Sequence[int]],
        limit: Optional[int],
        project: Optional[Projection],
    ) -> Iterator[Tuple[int, int, Optional[Sequence]]]:
        """(CRC trailer, rows owed, decoded rows) of each wanted block, at
        most ``limit`` rows in all — the one block walk, which reading and
        verifying share.  With ``project`` None a block is verified and
        not decoded (its rows are None).

        The walk stops once the budget is spent, and the block it stops in
        materialises only the rows still owed — but that block's CRC is
        computed over its **whole** payload first, so a row is never
        returned from a block that did not verify.
        """
        size = len(buffer)
        if size < len(HEADER) or bytes(buffer[:4]) != MAGIC:
            raise SegmentCorrupt(f"{self.path.name}: bad or missing magic")
        want = None if wanted is None else set(wanted)
        offset = len(HEADER)
        block_id = 0
        view = memoryview(buffer)
        try:
            while offset < size and (limit is None or limit > 0):
                if offset + 4 > size:
                    raise SegmentCorrupt(
                        f"{self.path.name}: truncated block header at "
                        f"offset {offset}"
                    )
                (count,) = _U32.unpack_from(view, offset)
                offset += 4
                payload_size = count * ROW_SIZE
                end = offset + payload_size + 4
                if end > size:
                    raise SegmentCorrupt(
                        f"{self.path.name}: truncated block {block_id} "
                        f"(need {end} bytes, have {size})"
                    )
                if want is None or block_id in want:
                    payload = view[offset:offset + payload_size]
                    # Released in the finally even when corruption raises —
                    # a live slice in the traceback would otherwise make the
                    # mmap unclosable (BufferError masking the real error).
                    try:
                        (recorded,) = _U32.unpack_from(
                            view, offset + payload_size
                        )
                        if zlib.crc32(payload) != recorded:
                            raise SegmentCorrupt(
                                f"{self.path.name}: CRC mismatch in block "
                                f"{block_id}"
                            )
                        if limit is not None:
                            count = min(count, limit)
                            limit -= count
                        yield recorded, count, (
                            None if project is None
                            else self._decode_rows(payload, count, project)
                        )
                    finally:
                        payload.release()
                offset = end
                block_id += 1
        finally:
            view.release()

    def iter_blocks(
        self,
        blocks: Optional[Sequence[int]] = None,
        limit: Optional[int] = None,
        project: Optional[Projection] = as_results,
    ) -> Iterator[Tuple[int, int, Optional[Sequence]]]:
        """(CRC trailer, rows owed, rows through ``project``) of each block
        :meth:`iter_rows` would decode with these arguments, in file order;
        ``project=None`` verifies them (magic, framing, CRC) without
        decoding a row."""
        buffer, close = self._buffer()
        try:
            yield from self._iter_blocks(buffer, blocks, limit, project)
        finally:
            close()

    def iter_rows(
        self,
        blocks: Optional[Sequence[int]] = None,
        limit: Optional[int] = None,
        project: Projection = as_results,
    ) -> Iterator:
        """Rows in file order, optionally restricted to the given blocks
        and to the first ``limit`` rows of them, each through ``project``
        (:class:`ProbeResult` objects by default)."""
        for _crc, _count, rows in self.iter_blocks(blocks, limit, project):
            yield from rows

    def iter_dicts(
        self,
        blocks: Optional[Sequence[int]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[str, object]]:
        """:meth:`iter_rows` projected to JSON dicts — row for row
        ``[r.to_dict() for r in iter_rows(...)]`` — straight from the
        packed bytes."""
        return self.iter_rows(blocks, limit, as_dicts)
