"""Result rows: a validated reply as 35 packed bytes.

One row is the reply's 16-byte target address, its 16-byte responder
address, and one byte each for the reply kind (its position in
:class:`~repro.core.probes.base.ReplyKind`), the ICMPv6 type and the ICMPv6
code — :data:`ROW`.  The first :data:`KEY_SIZE` bytes (target, responder,
kind) are the reply's identity, the key the scan and every merge dedup on.

This is the form a reply keeps from the scanner's accounting on: a
:class:`~repro.core.scanner.ScanResult` holds its rows packed
(:class:`Rows`), and the checkpoint log and the store's segments write the
same bytes.  :class:`ProbeResult` is the object form, made from a row only
when a reader asks for one.

A reader names the form it wants with a *projection*: a function from a
buffer of whole packed rows and the kind-code table they were packed
against to a list with one item per row.  :func:`as_results` makes
:class:`ProbeResult` objects, :func:`as_dicts` their JSON dicts,
:func:`as_fields` the raw fields with both addresses as ints, and
:func:`as_packed` the rows themselves, re-coded against :data:`KINDS`
(:func:`as_buffer`: the same bytes as one buffer, a block at a time).
The store's segment walk takes one, so a reader that filters on ints or
serves bytes never builds an object it does not return.

:func:`row_json` is the JSON text of one row and the oracle of
:func:`rows_text`, which renders the text of a run of rows — what
``/results`` serves between the brackets — as :class:`RowsText`: chunks
of :data:`JSON_CHUNK` rows, each a few numpy passes over one byte grid
(the addresses by :func:`~repro.net.addr.format_ipv6_block`, the rest by
table lookups; below :data:`_JSON_VECTOR_MIN` rows, or without numpy, the
:func:`row_json` join), plus the offset where every row's object ends —
from the grid, a cumsum of each row's bytes that are not NUL.  The first
``k`` rows of a rendered body are therefore a prefix of its chunks, served
without a copy.  :func:`rows_json` is those chunks joined.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core import siphash
from repro.core.probes.base import ReplyKind
from repro.net.addr import (
    TEXT_WIDTH,
    IPv6Addr,
    format_ipv6_block,
    format_ipv6_packed,
)

ROW = struct.Struct(">16s16sBBB")
ROW_SIZE = ROW.size  # 35
#: Bytes of a row that identify the reply: target, responder, kind code.
KEY_SIZE = 33
#: Kind codes of newly packed rows (code = position).
KINDS = tuple(ReplyKind)
KIND_CODE: Dict[ReplyKind, int] = {kind: code for code, kind in enumerate(KINDS)}


def row_dict(
    target: bytes, responder: bytes, kind: str, icmp_type: int, icmp_code: int
) -> Dict[str, object]:
    """The JSON form of one result row, from its stored fields (the two
    addresses as their 16 packed bytes).

    The one row→dict function: :meth:`ProbeResult.to_dict`,
    :meth:`Rows.dicts` and the store's dict projection (rows decoded from
    packed bytes without building a :class:`ProbeResult`) all call it, so
    they cannot drift apart.
    """
    return {
        "target": format_ipv6_packed(target),
        "responder": format_ipv6_packed(responder),
        "kind": kind,
        "icmp_type": icmp_type,
        "icmp_code": icmp_code,
    }


#: ``json.dumps(row_dict(...))`` with the values left as holes: its key
#: order, its ``", "`` and ``": "`` separators.  Addresses need no escaping.
_ROW_JSON = ('{"target": "%s", "responder": "%s", "kind": %s, '
             '"icmp_type": %d, "icmp_code": %d}')
#: Each kind's value as a JSON string, encoded once.
_KIND_JSON = {kind.value: json.dumps(kind.value) for kind in KINDS}


def row_json(
    target: bytes, responder: bytes, kind: str, icmp_type: int, icmp_code: int
) -> str:
    """``json.dumps(row_dict(...))`` of the same arguments, byte for byte,
    without the dict (``kind`` is a :class:`ReplyKind` value)."""
    return _ROW_JSON % (
        format_ipv6_packed(target), format_ipv6_packed(responder),
        _KIND_JSON[kind], icmp_type, icmp_code,
    )


#: Rows per pass of the renderer's grid, and per chunk of a rendered body
#: (:class:`RowsText`), so its arrays stay bounded (≈ 0.2 MB of grid)
#: whatever the body's length.
JSON_CHUNK = 1024
#: A chunk of fewer rows than this is the :func:`row_json` join: the
#: grid's ≈ 25 numpy calls cost more than the rows.  Measured on a 2-vCPU
#: VM (Python 3.11, numpy 2.4) inside the HTTP server, bodies of 1-64 rows
#: rendered both ways in alternation (median of 60 each, two passes): the
#: join costs ≈ 7 µs a row, the grid 50-125 µs up to 20 rows (its tables
#: are cold between requests); they tie at 16-17 rows, and from 18 the grid
#: wins.
_JSON_VECTOR_MIN = 16


def _json_tables():
    """:data:`_ROW_JSON` as a grid row (its text with NUL-filled holes, and
    each hole's columns), each kind code's JSON string and each byte's
    decimal text, right-aligned, as NUL-padded uint8 rows."""
    np = siphash._np
    text = _ROW_JSON + ", "
    kinds = [_KIND_JSON[kind.value].encode() for kind in KINDS]
    kind_width = max(map(len, kinds))
    widths = iter([TEXT_WIDTH, TEXT_WIDTH, kind_width, 3, 3])
    template, holes = bytearray(), []
    for piece in re.split(r"(%[sd])", text):
        if piece in ("%s", "%d"):
            width = next(widths)
            holes.append(slice(len(template), len(template) + width))
            template += bytes(width)
        else:
            template += piece.encode()
    kind_text = np.zeros((len(kinds), kind_width), dtype=np.uint8)
    for code, name in enumerate(kinds):
        kind_text[code, :len(name)] = np.frombuffer(name, dtype=np.uint8)
    decimal = np.zeros((256, 3), dtype=np.uint8)
    for value in range(256):
        digits = b"%d" % value
        decimal[value, 3 - len(digits):] = np.frombuffer(digits, np.uint8)
    row = np.frombuffer(bytes(template), dtype=np.uint8)
    return row, holes, kind_text, decimal


if siphash._np is not None:
    _JSON_ROW, _JSON_HOLES, _KIND_TEXT, _DECIMAL = _json_tables()


def _json_grid(rows, last: bool):
    """:func:`_json_chunk` of an (n, :data:`ROW_SIZE`) uint8 array, n ≥ 1,
    on one byte grid; the ends are a numpy column."""
    np = siphash._np
    n = len(rows)
    target, responder, kind, icmp_type, icmp_code = _JSON_HOLES
    grid = np.empty((n, len(_JSON_ROW)), dtype=np.uint8)
    grid[:] = _JSON_ROW
    # Both addresses of a row are adjacent: format them as 2n addresses.
    addresses = np.ascontiguousarray(rows[:, :32]).reshape(2 * n, 16)
    text = format_ipv6_block(addresses).reshape(n, 2 * TEXT_WIDTH)
    grid[:, target] = text[:, :TEXT_WIDTH]
    grid[:, responder] = text[:, TEXT_WIDTH:]
    del text  # the grid holds it now; keep the chunk's peak to the grid
    grid[:, kind] = _KIND_TEXT.take(rows[:, 32], axis=0)
    grid[:, icmp_type] = _DECIMAL.take(rows[:, 33], axis=0)
    grid[:, icmp_code] = _DECIMAL.take(rows[:, 34], axis=0)
    if last:
        grid[-1, -2:] = 0  # the body's last row has no ", " after it
    # A row's text is its bytes that are not NUL, ", " included: its object
    # ends 2 bytes before the running total, the body's last one at it.
    ends = np.cumsum(np.count_nonzero(grid, axis=1), dtype=np.int64)
    ends[:n - 1 if last else n] -= 2
    # No byte of the JSON text is NUL: deleting them is the whole layout.
    return grid.tobytes().translate(None, b"\0"), ends


def _json_chunk(rows, last: bool):
    """(text, ends) of a buffer of at most :data:`JSON_CHUNK` whole packed
    rows coded against :data:`KINDS`: the text is each row's
    :func:`row_json`, each followed by ``", "`` unless it is the body's
    ``last``; ``ends[i]`` is where row i's object ends in it."""
    n = len(rows) // ROW_SIZE
    np = siphash._np
    if np is not None and n >= _JSON_VECTOR_MIN:
        table = np.frombuffer(rows, dtype=np.uint8).reshape(n, ROW_SIZE)
        return _json_grid(table, last)
    names = [kind.value for kind in KINDS]
    texts = [
        row_json(target, responder, names[code], icmp_type, icmp_code)
        for target, responder, code, icmp_type, icmp_code
        in ROW.iter_unpack(rows)
    ]
    ends, at = [], 0
    for text in texts:
        at += len(text)
        ends.append(at)
        at += 2
    body = ", ".join(texts)
    return (body if last else body + ", ").encode(), ends


class RowsText:
    """The JSON text of a run of rows, as a ``/results`` body holds it
    between its brackets: ``", ".join`` of each row's :func:`row_json`,
    kept as the :data:`JSON_CHUNK`-row chunks it was rendered in.

    ``ends[i]`` is the offset in the whole text where row i's object ends
    (a numpy column, or a list without numpy), so the text of the first
    ``k`` rows is a prefix of the chunks (:meth:`pieces`) and never a copy.
    """

    __slots__ = ("chunks", "ends", "size")

    def __init__(self, chunks: List[bytes], ends) -> None:
        self.chunks = chunks
        self.ends = ends
        #: Bytes of text.
        self.size = sum(map(len, chunks))

    @property
    def nbytes(self) -> int:
        """Bytes held: the text and its row ends."""
        return self.size + 8 * len(self.ends)

    def __len__(self) -> int:
        return len(self.ends)

    def pieces(self, limit: Optional[int] = None) -> list:
        """The text of the first ``limit`` rows (all of them by default):
        the whole chunks before the one row ``limit`` ends in, then a
        ``memoryview`` of that chunk up to the row's end."""
        if limit is None or limit >= len(self.ends):
            return list(self.chunks)
        if limit <= 0:
            return []
        chunk = (limit - 1) // JSON_CHUNK
        start = int(self.ends[chunk * JSON_CHUNK - 1]) + 2 if chunk else 0
        end = int(self.ends[limit - 1])
        return self.chunks[:chunk] + [
            memoryview(self.chunks[chunk])[:end - start]
        ]


def rows_text(blocks: Iterable) -> RowsText:
    """The :class:`RowsText` of every row of ``blocks`` (buffers of whole
    packed rows coded against :data:`KINDS`, in order — a segment walk's
    blocks, or one buffer).

    Chunks are cut every :data:`JSON_CHUNK` rows wherever the blocks
    break, and rendered as they fill, so a body's peak beyond its own
    text is one chunk's rows and grid.  A chunk of at least
    :data:`_JSON_VECTOR_MIN` rows, with numpy, is one grid; a smaller one
    the :func:`row_json` join.  Byte for byte the join either way.
    """
    np = siphash._np
    step = JSON_CHUNK * ROW_SIZE
    chunks: List[bytes] = []
    ends: list = []  # row ends; with numpy, one column per chunk
    at = 0

    def render(rows, last: bool) -> None:
        nonlocal at
        text, chunk_ends = _json_chunk(rows, last)
        chunks.append(text)
        if np is None:
            ends.extend(end + at for end in chunk_ends)
        else:
            ends.append(np.add(chunk_ends, at, dtype=np.int64))
        at += len(text)

    pending = bytearray()
    for block in blocks:
        pending += block
        # Render the chunks some row is known to follow; keep the rest.
        whole = (len(pending) // ROW_SIZE - 1) // JSON_CHUNK
        if whole > 0:
            for offset in range(0, whole * step, step):
                render(pending[offset:offset + step], False)
            del pending[:whole * step]
    if pending:
        render(pending, True)
    if np is None:
        return RowsText(chunks, ends)
    return RowsText(chunks, np.concatenate(ends) if ends
                    else np.zeros(0, dtype=np.int64))


def rows_json(rows) -> bytes:
    """``", ".join(row_json(...))`` of every row of ``rows`` (a buffer of
    whole packed rows coded against :data:`KINDS`), encoded — the text
    between the brackets of a ``/results`` body: :func:`rows_text`'s
    chunks, joined."""
    return b"".join(rows_text([rows]).chunks)


#: A digest of fewer rows than this is the :func:`digest_formula`: the
#: grid costs ≈ 11 µs + 0.4 µs a row, the formula ≈ 1.5 µs a row.  Measured
#: on a 2-vCPU VM (Python 3.11, numpy 2.4), warm, least of three medians of
#: 2,000 calls each way, on rows a seed-7 scan of two Table II blocks
#: stored: 1 row 3.0 µs formula vs 11.5 µs grid, 4 rows 7.4 vs 12.7, 8
#: rows 13.4 vs 14.3, 16 rows 25.3 vs 17.2, 1,339 rows (a ``sweep_loops``
#: round's) 1.93 ms vs 0.59.
_DIGEST_VECTOR_MIN = 9


def _digest_tables():
    """The grid row of one digest line — ``responder|target|kind|type|
    code`` and its newline, with NUL-filled holes and each hole's columns
    — and each kind code's bare name as a NUL-padded uint8 row."""
    np = siphash._np
    names = [kind.value.encode() for kind in KINDS]
    width = max(map(len, names))
    kind_text = np.zeros((len(names), width), dtype=np.uint8)
    for code, name in enumerate(names):
        kind_text[code, :len(name)] = np.frombuffer(name, dtype=np.uint8)
    template, holes = bytearray(), []
    for hole, after in ((TEXT_WIDTH, b"|"), (TEXT_WIDTH, b"|"), (width, b"|"),
                        (3, b"|"), (3, b"\n")):
        holes.append(slice(len(template), len(template) + hole))
        template += bytes(hole) + after
    row = np.frombuffer(bytes(template), dtype=np.uint8)
    return row, holes, kind_text


if siphash._np is not None:
    _DIGEST_ROW, _DIGEST_HOLES, _DIGEST_KINDS = _digest_tables()


def digest_formula(rows: Sequence[bytes]) -> bytes:
    """:func:`digest_text`, one f-string a row: the oracle of the grid,
    and the path of a few rows or no numpy."""
    names = [kind.value for kind in KINDS]
    return "\n".join(sorted(
        f"{format_ipv6_packed(responder)}|{format_ipv6_packed(target)}"
        f"|{names[code]}|{icmp_type}|{icmp_code}"
        for target, responder, code, icmp_type, icmp_code
        in map(ROW.unpack, rows)
    )).encode()


def digest_text(rows: Sequence[bytes]) -> bytes:
    """What a reply set's dedup digest hashes: the sorted
    ``responder|target|kind|type|code`` lines of packed rows coded against
    :data:`KINDS`, joined by newlines.

    From :data:`_DIGEST_VECTOR_MIN` rows, with numpy, each
    :data:`JSON_CHUNK` rows are one grid — both addresses of a row by
    :func:`~repro.net.addr.format_ipv6_block`, the rest table lookups —
    whose NUL bytes deleted leave the chunk's lines, each ending in a
    newline; ``bytes.split`` and one ``sort`` finish them.  The lines are
    ASCII, so sorting them as bytes is sorting them as text."""
    np = siphash._np
    if np is None or len(rows) < _DIGEST_VECTOR_MIN:
        return digest_formula(rows)
    responder, target, kind, icmp_type, icmp_code = _DIGEST_HOLES
    lines: List[bytes] = []
    for start in range(0, len(rows), JSON_CHUNK):
        table = np.frombuffer(b"".join(rows[start:start + JSON_CHUNK]),
                              dtype=np.uint8).reshape(-1, ROW_SIZE)
        n = len(table)
        grid = np.empty((n, len(_DIGEST_ROW)), dtype=np.uint8)
        grid[:] = _DIGEST_ROW
        text = format_ipv6_block(
            np.ascontiguousarray(table[:, :32]).reshape(2 * n, 16)
        ).reshape(n, 2 * TEXT_WIDTH)
        grid[:, target] = text[:, :TEXT_WIDTH]
        grid[:, responder] = text[:, TEXT_WIDTH:]
        grid[:, kind] = _DIGEST_KINDS.take(table[:, 32], axis=0)
        grid[:, icmp_type] = _DECIMAL.take(table[:, 33], axis=0)
        grid[:, icmp_code] = _DECIMAL.take(table[:, 34], axis=0)
        lines += grid.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    lines.sort()
    return b"\n".join(lines)


@dataclass(frozen=True)
class ProbeResult:
    """One validated reply, annotated with the probe that elicited it."""

    target: IPv6Addr
    responder: IPv6Addr
    kind: ReplyKind
    icmp_type: int
    icmp_code: int

    @property
    def same_slash64(self) -> bool:
        return self.responder.slash64 == self.target.slash64

    @property
    def dedup_key(self) -> tuple:
        """The identity used for reply dedup, in-scan and cross-shard."""
        return (self.responder.value, self.target.value, self.kind)

    def to_dict(self) -> Dict[str, object]:
        return row_dict(
            self.target.to_bytes(), self.responder.to_bytes(),
            self.kind.value, self.icmp_type, self.icmp_code,
        )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProbeResult":
        return cls(
            target=IPv6Addr.from_string(str(data["target"])),
            responder=IPv6Addr.from_string(str(data["responder"])),
            kind=ReplyKind(data["kind"]),
            icmp_type=int(data["icmp_type"]),  # type: ignore[arg-type]
            icmp_code=int(data["icmp_code"]),  # type: ignore[arg-type]
        )


def pack_row(result: ProbeResult) -> bytes:
    return ROW.pack(
        result.target.value.to_bytes(16, "big"),
        result.responder.value.to_bytes(16, "big"),
        KIND_CODE[result.kind],
        result.icmp_type & 0xFF,
        result.icmp_code & 0xFF,
    )


#: A row projection: (buffer of whole packed rows, their kind table) → one
#: item per row (:func:`as_buffer`: the rows as one buffer).
Projection = Callable[[bytes, Sequence[ReplyKind]], Sequence]
#: One row's raw fields: target, responder, kind, ICMPv6 type and code.
Fields = Tuple[int, int, ReplyKind, int, int]


def as_results(rows, kinds: Sequence[ReplyKind]) -> List[ProbeResult]:
    """Each row as a :class:`ProbeResult`."""
    from_bytes = int.from_bytes
    return [
        ProbeResult(
            target=IPv6Addr(from_bytes(target, "big")),
            responder=IPv6Addr(from_bytes(responder, "big")),
            kind=kinds[code],
            icmp_type=icmp_type,
            icmp_code=icmp_code,
        )
        for target, responder, code, icmp_type, icmp_code
        in ROW.iter_unpack(rows)
    ]


def as_dicts(rows, kinds: Sequence[ReplyKind]) -> List[Dict[str, object]]:
    """Each row's :func:`row_dict` — ``to_dict()`` of its
    :class:`ProbeResult`, without building one."""
    names = [kind.value for kind in kinds]
    return [
        row_dict(target, responder, names[code], icmp_type, icmp_code)
        for target, responder, code, icmp_type, icmp_code
        in ROW.iter_unpack(rows)
    ]


def as_fields(rows, kinds: Sequence[ReplyKind]) -> List[Fields]:
    """Each row's :data:`Fields`, for readers that test addresses as ints."""
    from_bytes = int.from_bytes
    return [
        (from_bytes(target, "big"), from_bytes(responder, "big"),
         kinds[code], icmp_type, icmp_code)
        for target, responder, code, icmp_type, icmp_code
        in ROW.iter_unpack(rows)
    ]


def as_buffer(rows, kinds: Sequence[ReplyKind]) -> bytes:
    """The rows as one buffer of :data:`ROW` bytes, each kind code
    re-coded against :data:`KINDS` when ``kinds`` is another table — the
    block form of :func:`as_packed`, which :func:`rows_text` renders."""
    data = bytes(rows)
    if tuple(kinds) != KINDS:
        recoded = bytearray(data)
        for at in range(KEY_SIZE - 1, len(recoded), ROW_SIZE):
            recoded[at] = KIND_CODE[kinds[recoded[at]]]
        data = bytes(recoded)
    return data


def as_packed(rows, kinds: Sequence[ReplyKind]) -> List[bytes]:
    """Each row's :data:`ROW` bytes, its kind code re-coded against
    :data:`KINDS` when ``kinds`` is another table."""
    data = as_buffer(rows, kinds)
    return [data[at:at + ROW_SIZE] for at in range(0, len(data), ROW_SIZE)]


class Rows:
    """A scan's result rows, packed: ``rows`` is a list of :data:`ROW`
    bytes, appended to and never rewritten.

    For readers it is a sequence of :class:`ProbeResult` — ``len``,
    iteration, indexing, ``append`` and equality with any sequence of
    results — whose objects are made on first access and kept; a slice is
    another :class:`Rows` over the same bytes.
    """

    __slots__ = ("rows", "_objects")

    def __init__(self, results: Iterable[ProbeResult] = ()) -> None:
        self.rows: List[bytes] = [pack_row(result) for result in results]
        #: ProbeResults of the first ``len(_objects)`` rows, made on demand.
        self._objects: List[ProbeResult] = []

    @classmethod
    def of(cls, rows: List[bytes]) -> "Rows":
        """The rows of ``rows`` (packed, taken as they are)."""
        made = cls()
        made.rows = rows
        return made

    @classmethod
    def unpack(cls, data: bytes) -> "Rows":
        """The rows of a concatenation of :data:`ROW` bytes; ValueError if
        it is not one, or holds a kind code outside :data:`KINDS`."""
        if len(data) % ROW_SIZE:
            raise ValueError(f"{len(data)} bytes are not whole rows")
        if data and max(data[KEY_SIZE - 1::ROW_SIZE]) >= len(KINDS):
            raise ValueError("kind code outside the kind table")
        return cls.of([data[at:at + ROW_SIZE]
                       for at in range(0, len(data), ROW_SIZE)])

    def packed(self) -> bytes:
        """Every row, concatenated."""
        return b"".join(self.rows)

    def dicts(self) -> List[Dict[str, object]]:
        """``[r.to_dict() for r in self]``, straight from the rows."""
        return as_dicts(self.packed(), KINDS)

    def json(self) -> List[str]:
        """``[json.dumps(r.to_dict()) for r in self]``, straight from the
        rows (:func:`row_json`)."""
        names = [kind.value for kind in KINDS]
        return [
            row_json(target, responder, names[code], icmp_type, icmp_code)
            for target, responder, code, icmp_type, icmp_code
            in ROW.iter_unpack(self.packed())
        ]

    def _materialised(self) -> List[ProbeResult]:
        objects = self._objects
        if len(objects) < len(self.rows):
            objects.extend(
                as_results(b"".join(self.rows[len(objects):]), KINDS)
            )
        return objects

    def append(self, result: ProbeResult) -> None:
        self.rows.append(pack_row(result))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ProbeResult]:
        return iter(self._materialised())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Rows.of(self.rows[index])
        return self._materialised()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rows):
            return self.rows == other.rows
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Rows({list(self)!r})"

    def __reduce__(self):
        return Rows.of, (self.rows,)
