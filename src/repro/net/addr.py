"""IPv6 address and prefix arithmetic.

Addresses are modelled as immutable wrappers around 128-bit integers so that
the scanner's permutation arithmetic, the routing tables and the IID analysis
all operate on plain ints.  Parsing and formatting follow RFC 4291 (textual
representation) and RFC 5952 (canonical compressed form).  EUI-64 interface
identifier construction follows RFC 4291 Appendix A: the 48-bit MAC is split,
``ff:fe`` is inserted in the middle, and the universal/local bit is flipped.

The classes here are deliberately lighter than :mod:`ipaddress` — no
host-mask/netmask niceties, just what the periphery-discovery pipeline needs —
but the test suite cross-validates parsing and formatting against the standard
library on randomly generated addresses.

Two formatters share one RFC 5952 form.  :func:`format_ipv6_packed` formats
one address and is the oracle; :func:`format_ipv6_block` formats a numpy
column of them in a few array passes (table lookups, no per-address Python
call), for readers that render thousands of rows at once.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Iterator

try:  # the block formatter's tables; the scalar formatter needs none
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None  # type: ignore[assignment]

MAX_ADDR = (1 << 128) - 1

_HEX_GROUP = re.compile(r"^[0-9a-fA-F]{1,4}$")


class AddressError(ValueError):
    """Raised for malformed addresses, prefixes, or MAC strings."""


def parse_ipv6(text: str) -> int:
    """Parse an IPv6 address string into its 128-bit integer value.

    Supports full and ``::``-compressed forms.  Embedded IPv4 dotted-quad
    tails (``::ffff:192.0.2.1``) are accepted because ISP CPEs frequently
    embed IPv4 addresses in IIDs and the classifier needs to parse them.
    """
    if not text:
        raise AddressError("empty IPv6 address")
    text = text.strip()
    if text.count("::") > 1:
        raise AddressError(f"more than one '::' in {text!r}")

    # Handle an embedded IPv4 dotted-quad tail by converting it to two
    # hextets up front, so the remaining logic only sees hex groups.
    if "." in text:
        head, _, tail = text.rpartition(":")
        if not head:
            raise AddressError(f"malformed embedded IPv4 in {text!r}")
        v4 = _parse_ipv4_tail(tail)
        text = f"{head}:{v4 >> 16:x}:{v4 & 0xFFFF:x}"

    if "::" in text:
        left_text, right_text = text.split("::")
        left = left_text.split(":") if left_text else []
        right = right_text.split(":") if right_text else []
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise AddressError(f"'::' expands to nothing in {text!r}")
        groups = left + ["0"] * missing + right
    else:
        groups = text.split(":")

    if len(groups) != 8:
        raise AddressError(f"expected 8 groups in {text!r}, got {len(groups)}")

    value = 0
    for group in groups:
        if not _HEX_GROUP.match(group):
            raise AddressError(f"bad hex group {group!r} in {text!r}")
        value = (value << 16) | int(group, 16)
    return value


def _parse_ipv4_tail(tail: str) -> int:
    octets = tail.split(".")
    if len(octets) != 4:
        raise AddressError(f"bad IPv4 tail {tail!r}")
    value = 0
    for octet in octets:
        if not octet.isdigit() or (len(octet) > 1 and octet[0] == "0"):
            raise AddressError(f"bad IPv4 octet {octet!r}")
        number = int(octet)
        if number > 255:
            raise AddressError(f"IPv4 octet out of range: {octet}")
        value = (value << 8) | number
    return value


_GROUPS = struct.Struct(">8H")
#: ``:0:0:…:`` for every compressible run length, longest first.
_ZERO_RUNS = tuple(":" + "0:" * length for length in range(8, 1, -1))


def format_ipv6_packed(packed: bytes) -> str:
    """Format 16 network-order bytes as the RFC 5952 canonical string.

    The longest run of two or more zero groups is compressed with ``::``
    (leftmost run wins ties) and hex digits are lower-case.  This is the
    scalar formatter: :func:`format_ipv6` (and through it ``str(IPv6Addr)``)
    and the result store's row projections, which have the packed form in
    hand, end here, and it is the oracle of :func:`format_ipv6_block`.
    """
    if len(packed) != 16:
        raise AddressError(f"expected 16 bytes, got {len(packed)}")
    # Colon-fenced, so a run of zero groups is a plain substring and
    # ``:10:0:`` cannot pass for one.
    text = ":%x:%x:%x:%x:%x:%x:%x:%x:" % _GROUPS.unpack(packed)
    if ":0:0:" in text:
        for run in _ZERO_RUNS:  # the first length found is the longest
            at = text.find(run)  # ... and ``find`` is leftmost
            if at >= 0:
                return f"{text[1:at]}::{text[at + len(run):-1]}"
    return text[1:-1]


#: Columns of one address in :func:`format_ipv6_block`'s grid: a lead
#: column (the first colon of a leading ``::``), then for each group its
#: four hex digits and the separator after it.
TEXT_WIDTH = 41
#: Hex-table row of a group that ``::`` drops: four NULs.
_DROPPED = 1 << 16


def _hex_table():
    """Each 16-bit group's four lower-case hex digits, leading zeros as NUL
    (a zero group keeps its ``0``), as one uint32 word per group; the word
    at :data:`_DROPPED` is all NUL."""
    digits = _np.frombuffer(b"0123456789abcdef", dtype=_np.uint8)
    table = _np.zeros((_DROPPED + 1, 4), dtype=_np.uint8)
    nibbles = table[:_DROPPED].reshape(16, 16, 16, 16, 4)
    nibbles[..., 0] = digits[:, None, None, None]
    nibbles[..., 1] = digits[None, :, None, None]
    nibbles[..., 2] = digits[None, None, :, None]
    nibbles[..., 3] = digits
    nibbles[0, ..., 0] = 0
    nibbles[0, 0, ..., 1] = 0
    nibbles[0, 0, 0, ..., 2] = 0
    return table.view(_np.uint32).ravel()


def _layout_tables():
    """Per zero-group bitmask (group 0 the most significant bit): the
    address's text row with only its colons set, and each group's offset
    into the hex table — :data:`_DROPPED` for the groups ``::`` replaces
    (the longest run of two or more zero groups, the leftmost of equals)."""
    colons = _np.zeros((256, TEXT_WIDTH), dtype=_np.uint8)
    dropped = _np.zeros((256, 8), dtype=_np.uint32)
    colon = ord(":")
    for mask in range(256):
        zeros = "".join("0" if mask >> (7 - g) & 1 else "1" for g in range(8))
        after = [colon] * 7 + [0]  # the separator after each group
        runs = [m.span() for m in re.finditer("0{2,}", zeros)]
        if runs:
            start, end = max(runs, key=lambda span: span[1] - span[0])
            after[start:end] = [0] * (end - start - 1) + [colon]
            if start == 0:
                colons[mask, 0] = colon
            dropped[mask, start:end] = _DROPPED
        colons[mask, 5::5] = after
    return colons, dropped


if _np is not None:
    _HEX_WORDS = _hex_table()
    _COLONS, _GROUP_OFFSET = _layout_tables()


def format_ipv6_block(packed):
    """:func:`format_ipv6_packed` of every row of an (n, 16) uint8 array,
    as an (n, :data:`TEXT_WIDTH`) uint8 grid padded with NUL bytes: row
    ``i`` with its NULs deleted is the text of address ``i``.

    Needs numpy.  Where groups are dropped and where the colons go depends
    only on which groups are zero, so each row's layout is one lookup by
    its zero-group bitmask and each group's digits one lookup by its value
    — all ``ndarray.take``, which is far faster here than fancy indexing.
    """
    packed = _np.ascontiguousarray(packed, dtype=_np.uint8)
    if packed.ndim != 2 or packed.shape[1] != 16:
        raise AddressError(f"expected an (n, 16) array, got {packed.shape}")
    n = len(packed)
    groups = packed.view(">u2")
    masks = _np.packbits(groups == 0, axis=1).ravel()
    text = _COLONS.take(masks, axis=0)
    index = _GROUP_OFFSET.take(masks, axis=0)
    index += groups
    digits = _HEX_WORDS.take(index).view(_np.uint8).reshape(n, 8, 4)
    text[:, 1:].reshape(n, 8, 5)[:, :, :4] = digits
    return text


def format_ipv6(value: int) -> str:
    """Format a 128-bit integer as the RFC 5952 canonical string."""
    if not 0 <= value <= MAX_ADDR:
        raise AddressError(f"address out of range: {value:#x}")
    return format_ipv6_packed(value.to_bytes(16, "big"))


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit IEEE MAC address.

    The top 24 bits are the Organisationally Unique Identifier (OUI), which
    the vendor-identification pipeline resolves against
    :class:`repro.net.oui.OuiRegistry`.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise AddressError(f"MAC out of range: {self.value:#x}")

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        parts = text.strip().lower().replace("-", ":").split(":")
        if len(parts) != 6 or any(len(p) not in (1, 2) for p in parts):
            raise AddressError(f"bad MAC address {text!r}")
        try:
            octets = [int(p, 16) for p in parts]
        except ValueError as exc:
            raise AddressError(f"bad MAC address {text!r}") from exc
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return cls(value)

    @property
    def oui(self) -> int:
        """The 24-bit organisationally unique identifier."""
        return self.value >> 24

    def to_eui64_iid(self) -> int:
        """Build the modified-EUI-64 interface identifier (RFC 4291 App. A).

        ``ff:fe`` is inserted between the OUI and the NIC-specific half and
        the universal/local bit (bit 1 of the first octet) is inverted.
        """
        high24 = self.value >> 24
        low24 = self.value & 0xFFFFFF
        iid = (high24 << 40) | (0xFFFE << 24) | low24
        return iid ^ (1 << 57)  # flip the U/L bit of the first octet

    @classmethod
    def from_eui64_iid(cls, iid: int) -> "MacAddress":
        """Recover the MAC embedded in a modified-EUI-64 IID.

        Raises :class:`AddressError` if the IID lacks the ``ff:fe`` marker.
        """
        if not is_eui64_iid(iid):
            raise AddressError(f"IID {iid:#018x} is not EUI-64 format")
        flipped = iid ^ (1 << 57)
        high24 = flipped >> 40
        low24 = flipped & 0xFFFFFF
        return cls((high24 << 24) | low24)

    def __str__(self) -> str:
        octets = [(self.value >> (40 - 8 * i)) & 0xFF for i in range(6)]
        return ":".join(f"{o:02x}" for o in octets)


def is_eui64_iid(iid: int) -> bool:
    """True if the 64-bit IID carries the EUI-64 ``ff:fe`` middle marker."""
    return (iid >> 24) & 0xFFFF == 0xFFFE


@dataclass(frozen=True, order=True)
class IPv6Addr:
    """An immutable 128-bit IPv6 address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_ADDR:
            raise AddressError(f"address out of range: {self.value:#x}")

    @classmethod
    def from_string(cls, text: str) -> "IPv6Addr":
        return cls(parse_ipv6(text))

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv6Addr":
        if len(data) != 16:
            raise AddressError(f"expected 16 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def from_parts(cls, prefix: "IPv6Prefix", iid: int) -> "IPv6Addr":
        """Assemble prefix bits + interface identifier (SLAAC-style)."""
        host_bits = 128 - prefix.length
        if iid >> host_bits:
            raise AddressError(
                f"IID {iid:#x} does not fit in {host_bits} host bits"
            )
        return cls(prefix.network | iid)

    @classmethod
    def from_eui64(cls, prefix: "IPv6Prefix", mac: MacAddress) -> "IPv6Addr":
        """SLAAC address from a /64 prefix and a MAC (RFC 4862 + RFC 4291)."""
        if prefix.length != 64:
            raise AddressError("EUI-64 SLAAC requires a /64 prefix")
        return cls(prefix.network | mac.to_eui64_iid())

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(16, "big")

    @property
    def iid(self) -> int:
        """The low 64 bits (interface identifier under the /64 convention)."""
        return self.value & ((1 << 64) - 1)

    @property
    def slash64(self) -> "IPv6Prefix":
        """The enclosing /64 prefix — the paper's unit of periphery dedup."""
        return IPv6Prefix(self.value & ~((1 << 64) - 1), 64)

    def prefix(self, length: int) -> "IPv6Prefix":
        """The enclosing prefix of the given length."""
        return IPv6Prefix(self.value & _mask(length), length)

    def embedded_mac(self) -> MacAddress | None:
        """The MAC embedded in an EUI-64 IID, or None."""
        if is_eui64_iid(self.iid):
            return MacAddress.from_eui64_iid(self.iid)
        return None

    def __str__(self) -> str:
        return format_ipv6(self.value)


def _mask(length: int) -> int:
    if not 0 <= length <= 128:
        raise AddressError(f"prefix length out of range: {length}")
    return MAX_ADDR ^ ((1 << (128 - length)) - 1)


@dataclass(frozen=True, order=True)
class IPv6Prefix:
    """An IPv6 prefix: network bits plus a length, e.g. ``2001:db8::/32``."""

    network: int
    length: int

    def __post_init__(self) -> None:
        mask = _mask(self.length)
        if self.network & ~mask:
            raise AddressError(
                f"host bits set in {format_ipv6(self.network)}/{self.length}"
            )

    @classmethod
    def from_string(cls, text: str) -> "IPv6Prefix":
        addr_text, _, len_text = text.partition("/")
        if not len_text:
            raise AddressError(f"missing /length in {text!r}")
        try:
            length = int(len_text)
        except ValueError as exc:
            raise AddressError(f"bad prefix length in {text!r}") from exc
        value = parse_ipv6(addr_text)
        if value & ~_mask(length):
            raise AddressError(f"host bits set in {text!r}")
        return cls(value, length)

    @property
    def mask(self) -> int:
        return _mask(self.length)

    @property
    def num_addresses(self) -> int:
        return 1 << (128 - self.length)

    @property
    def first(self) -> IPv6Addr:
        return IPv6Addr(self.network)

    @property
    def last(self) -> IPv6Addr:
        return IPv6Addr(self.network | ((1 << (128 - self.length)) - 1))

    def contains(self, addr: IPv6Addr | int) -> bool:
        value = addr.value if isinstance(addr, IPv6Addr) else addr
        return value & self.mask == self.network

    def contains_prefix(self, other: "IPv6Prefix") -> bool:
        return other.length >= self.length and self.contains(other.network)

    def subprefix(self, index: int, length: int) -> "IPv6Prefix":
        """The index-th sub-prefix of the given length, in address order.

        E.g. ``IPv6Prefix.from_string("2001:db8::/32").subprefix(5, 64)`` is
        ``2001:db8:0:5::/64``.  This is the primitive the scanner's
        permutation drives: sub-prefix index → concrete prefix.
        """
        if length < self.length:
            raise AddressError(
                f"sub-prefix /{length} shorter than parent /{self.length}"
            )
        count = 1 << (length - self.length)
        if not 0 <= index < count:
            raise AddressError(f"sub-prefix index {index} out of range")
        return IPv6Prefix(self.network | (index << (128 - length)), length)

    def subprefix_index(self, addr: IPv6Addr | int, length: int) -> int:
        """Inverse of :meth:`subprefix` for an address inside this prefix."""
        value = addr.value if isinstance(addr, IPv6Addr) else addr
        if not self.contains(value):
            raise AddressError("address outside prefix")
        return (value >> (128 - length)) & ((1 << (length - self.length)) - 1)

    def subprefixes(self, length: int) -> Iterator["IPv6Prefix"]:
        """Iterate every sub-prefix of the given length, in address order."""
        for index in range(1 << (length - self.length)):
            yield self.subprefix(index, length)

    def address(self, iid: int) -> IPv6Addr:
        """The address obtained by OR-ing an offset into the host bits."""
        return IPv6Addr.from_parts(self, iid)

    def __str__(self) -> str:
        return f"{format_ipv6(self.network)}/{self.length}"
