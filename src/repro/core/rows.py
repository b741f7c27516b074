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
:func:`as_packed` the rows themselves, re-coded against :data:`KINDS`.
The store's segment walk takes one, so a reader that filters on ints or
serves bytes never builds an object it does not return.  :func:`row_json`
is the JSON text of one row, what ``/results`` writes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.probes.base import ReplyKind
from repro.net.addr import IPv6Addr, format_ipv6_packed

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
#: item per row.
Projection = Callable[[bytes, Sequence[ReplyKind]], list]
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


def as_packed(rows, kinds: Sequence[ReplyKind]) -> List[bytes]:
    """Each row's :data:`ROW` bytes, its kind code re-coded against
    :data:`KINDS` when ``kinds`` is another table."""
    data = bytes(rows)
    if tuple(kinds) != KINDS:
        recoded = bytearray(data)
        for at in range(KEY_SIZE - 1, len(recoded), ROW_SIZE):
            recoded[at] = KIND_CODE[kinds[recoded[at]]]
        data = bytes(recoded)
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
