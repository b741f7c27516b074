"""Byte-level wire formats: IPv6, ICMPv6 (RFC 4443), UDP, and TCP.

The network simulator moves :class:`Packet` objects in process, but the
scanner's probe modules encode and decode real wire bytes — including the
IPv6 pseudo-header checksums — so that the reproduction exercises the same
packet-construction logic as a raw-socket scanner would.  ``decode`` is the
strict inverse of ``encode``; the property tests round-trip random packets.

Only the fields the paper's probes use are modelled (no extension headers —
XMap's probe modules send plain IPv6).  ICMPv6 error messages carry the
invoking packet, as RFC 4443 requires, because the scanner recovers the
original probe target from that embedded packet to attribute replies.
"""

from __future__ import annotations

import struct
from dataclasses import FrozenInstanceError, dataclass
from enum import IntEnum
from typing import Optional, Union

from repro.net.addr import IPv6Addr

IPV6_HEADER_LEN = 40
DEFAULT_HOP_LIMIT = 64
MAX_HOP_LIMIT = 255


class NextHeader(IntEnum):
    """IPv6 Next Header / protocol numbers used by the probe modules."""

    TCP = 6
    UDP = 17
    ICMPV6 = 58


class Icmpv6Type(IntEnum):
    """ICMPv6 message types (RFC 4443)."""

    DEST_UNREACHABLE = 1
    PACKET_TOO_BIG = 2
    TIME_EXCEEDED = 3
    PARAM_PROBLEM = 4
    ECHO_REQUEST = 128
    ECHO_REPLY = 129


class UnreachableCode(IntEnum):
    """Codes for ICMPv6 Destination Unreachable (RFC 4443 §3.1)."""

    NO_ROUTE = 0
    ADMIN_PROHIBITED = 1
    BEYOND_SCOPE = 2
    ADDR_UNREACHABLE = 3
    PORT_UNREACHABLE = 4


class TimeExceededCode(IntEnum):
    """Codes for ICMPv6 Time Exceeded (RFC 4443 §3.3)."""

    HOP_LIMIT = 0
    REASSEMBLY = 1


class TcpFlags(IntEnum):
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


class PacketError(ValueError):
    """Raised when wire bytes cannot be decoded."""


def internet_checksum(data: bytes) -> int:
    """The 16-bit one's-complement Internet checksum (RFC 1071)."""
    if len(data) % 2:
        data += b"\x00"
    # 2^16 = 1 (mod 0xFFFF), so the whole buffer read as one big-endian
    # number is congruent to the sum of its 16-bit words, and the end-around
    # carry fold of that sum is its residue — except that a non-zero sum
    # folds to 0xFFFF, never to 0, when it is a multiple of 0xFFFF.
    total = int.from_bytes(data, "big")
    if total:
        total = total % 0xFFFF or 0xFFFF
    return ~total & 0xFFFF


def pseudo_header(src: IPv6Addr, dst: IPv6Addr, length: int, proto: int) -> bytes:
    """The IPv6 pseudo-header used in upper-layer checksums (RFC 8200 §8.1)."""
    return (
        src.to_bytes()
        + dst.to_bytes()
        + struct.pack("!I", length)
        + b"\x00\x00\x00"
        + bytes([proto])
    )


class Icmpv6Message:
    """An ICMPv6 message: echoes carry ident/seq + payload, errors carry the
    invoking packet's bytes (truncated per RFC 4443 to fit the minimum MTU).

    An error built in process (:func:`icmpv6_error`) holds the invoking
    :class:`Packet` itself, by reference: :attr:`invoking`, :meth:`body` and
    :meth:`encode` produce its bytes on demand, and equality, hashing and
    ``repr`` treat the message as the frozen value of its six fields with
    ``invoking`` as those bytes.  One decoded off the wire holds the bytes.
    """

    __slots__ = ("type", "code", "ident", "seq", "payload", "_quote")

    def __init__(self, type: int, code: int = 0, ident: int = 0,
                 seq: int = 0, payload: bytes = b"",
                 invoking: Union[bytes, "Packet"] = b"") -> None:
        init = object.__setattr__
        init(self, "type", type)
        init(self, "code", code)
        init(self, "ident", ident)
        init(self, "seq", seq)
        init(self, "payload", payload)
        init(self, "_quote", invoking)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Icmpv6Message, (self.type, self.code, self.ident, self.seq,
                               self.payload, self._quote)

    def _fields(self) -> tuple:
        return (self.type, self.code, self.ident, self.seq, self.payload,
                self.invoking)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Icmpv6Message(type={self.type!r}, code={self.code!r}, "
            f"ident={self.ident!r}, seq={self.seq!r}, "
            f"payload={self.payload!r}, invoking={self.invoking!r})"
        )

    @property
    def invoking(self) -> bytes:
        """The quoted invoking packet's bytes, untruncated."""
        quote = self._quote
        return quote if isinstance(quote, bytes) else quote.encode()

    @property
    def quoted(self) -> Optional["Packet"]:
        """The invoking packet as held, when its bytes reach the wire whole;
        None for a quote decoded off the wire or cut to the minimum MTU."""
        quote = self._quote
        if isinstance(quote, bytes):
            return None
        if _wire_length(quote) > 1280 - IPV6_HEADER_LEN - 8:
            return None
        return quote

    @property
    def is_error(self) -> bool:
        return self.type < 128

    def body(self) -> bytes:
        if self.type in (Icmpv6Type.ECHO_REQUEST, Icmpv6Type.ECHO_REPLY):
            return struct.pack("!HH", self.ident, self.seq) + self.payload
        # Error messages: 4 bytes unused/MTU/pointer + invoking packet,
        # truncated so the whole IPv6 packet stays within 1280 bytes.
        room = 1280 - IPV6_HEADER_LEN - 8
        return b"\x00\x00\x00\x00" + self.invoking[:room]

    def _body_length(self) -> int:
        """``len(self.body())``, without encoding a held quote."""
        if self.type in (Icmpv6Type.ECHO_REQUEST, Icmpv6Type.ECHO_REPLY):
            return 4 + len(self.payload)
        quote = self._quote
        length = len(quote) if isinstance(quote, bytes) else _wire_length(quote)
        return 4 + min(length, 1280 - IPV6_HEADER_LEN - 8)

    def encode(self, src: IPv6Addr, dst: IPv6Addr) -> bytes:
        body = self.body()
        length = 4 + len(body)
        header = struct.pack("!BBH", self.type, self.code, 0)
        csum = internet_checksum(
            pseudo_header(src, dst, length, NextHeader.ICMPV6) + header + body
        )
        return struct.pack("!BBH", self.type, self.code, csum) + body

    @classmethod
    def decode(cls, data: bytes, src: IPv6Addr, dst: IPv6Addr) -> "Icmpv6Message":
        if len(data) < 8:
            raise PacketError(f"ICMPv6 message too short: {len(data)} bytes")
        mtype, code, csum = struct.unpack("!BBH", data[:4])
        verify = internet_checksum(
            pseudo_header(src, dst, len(data), NextHeader.ICMPV6)
            + data[:2]
            + b"\x00\x00"
            + data[4:]
        )
        if verify != csum:
            raise PacketError(f"bad ICMPv6 checksum: {csum:#06x} != {verify:#06x}")
        if mtype in (Icmpv6Type.ECHO_REQUEST, Icmpv6Type.ECHO_REPLY):
            ident, seq = struct.unpack("!HH", data[4:8])
            return cls(mtype, code, ident=ident, seq=seq, payload=data[8:])
        return cls(mtype, code, invoking=data[8:])


@dataclass(frozen=True)
class UdpDatagram:
    sport: int
    dport: int
    payload: bytes = b""

    def encode(self, src: IPv6Addr, dst: IPv6Addr) -> bytes:
        length = 8 + len(self.payload)
        header = struct.pack("!HHHH", self.sport, self.dport, length, 0)
        csum = internet_checksum(
            pseudo_header(src, dst, length, NextHeader.UDP) + header + self.payload
        )
        if csum == 0:
            csum = 0xFFFF  # RFC 8200 §8.1: zero checksum is illegal for UDPv6
        return struct.pack("!HHHH", self.sport, self.dport, length, csum) + self.payload

    @classmethod
    def decode(cls, data: bytes, src: IPv6Addr, dst: IPv6Addr) -> "UdpDatagram":
        if len(data) < 8:
            raise PacketError("UDP datagram too short")
        sport, dport, length, csum = struct.unpack("!HHHH", data[:8])
        if length != len(data):
            raise PacketError(f"UDP length {length} != actual {len(data)}")
        verify = internet_checksum(
            pseudo_header(src, dst, length, NextHeader.UDP)
            + data[:6]
            + b"\x00\x00"
            + data[8:]
        )
        if verify == 0:
            verify = 0xFFFF
        if verify != csum:
            raise PacketError(f"bad UDP checksum: {csum:#06x} != {verify:#06x}")
        return cls(sport, dport, data[8:])


@dataclass(frozen=True)
class TcpSegment:
    """A minimal-option TCP segment (20-byte header), enough for SYN scans."""

    sport: int
    dport: int
    seq: int = 0
    ack: int = 0
    flags: int = int(TcpFlags.SYN)
    window: int = 65535
    payload: bytes = b""

    def has_flag(self, flag: TcpFlags) -> bool:
        return bool(self.flags & flag)

    def encode(self, src: IPv6Addr, dst: IPv6Addr) -> bytes:
        offset_flags = (5 << 12) | (self.flags & 0x1FF)
        header = struct.pack(
            "!HHIIHHHH",
            self.sport,
            self.dport,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            offset_flags,
            self.window,
            0,
            0,
        )
        length = len(header) + len(self.payload)
        csum = internet_checksum(
            pseudo_header(src, dst, length, NextHeader.TCP) + header + self.payload
        )
        return header[:16] + struct.pack("!H", csum) + header[18:] + self.payload

    @classmethod
    def decode(cls, data: bytes, src: IPv6Addr, dst: IPv6Addr) -> "TcpSegment":
        if len(data) < 20:
            raise PacketError("TCP segment too short")
        sport, dport, seq, ack, offset_flags, window, csum, _ = struct.unpack(
            "!HHIIHHHH", data[:20]
        )
        data_offset = (offset_flags >> 12) * 4
        if data_offset < 20 or data_offset > len(data):
            raise PacketError(f"bad TCP data offset: {data_offset}")
        verify = internet_checksum(
            pseudo_header(src, dst, len(data), NextHeader.TCP)
            + data[:16]
            + b"\x00\x00"
            + data[18:]
        )
        if verify != csum:
            raise PacketError(f"bad TCP checksum: {csum:#06x} != {verify:#06x}")
        return cls(
            sport, dport, seq, ack, offset_flags & 0x1FF, window, data[data_offset:]
        )


Payload = Union[Icmpv6Message, UdpDatagram, TcpSegment, bytes]

_PAYLOAD_PROTO = {
    Icmpv6Message: NextHeader.ICMPV6,
    UdpDatagram: NextHeader.UDP,
    TcpSegment: NextHeader.TCP,
}


@dataclass(frozen=True)
class Packet:
    """An IPv6 packet: header fields plus a typed upper-layer payload."""

    src: IPv6Addr
    dst: IPv6Addr
    payload: Payload
    hop_limit: int = DEFAULT_HOP_LIMIT
    traffic_class: int = 0
    flow_label: int = 0

    @property
    def next_header(self) -> int:
        for kind, proto in _PAYLOAD_PROTO.items():
            if isinstance(self.payload, kind):
                return int(proto)
        return 59  # No Next Header: opaque payload

    def with_hop_limit(self, hop_limit: int) -> "Packet":
        # Direct construction: dataclasses.replace is ~3x slower and this
        # runs once per forwarding hop.
        return Packet(
            self.src, self.dst, self.payload, hop_limit,
            self.traffic_class, self.flow_label,
        )

    def encode(self) -> bytes:
        if isinstance(self.payload, bytes):
            body = self.payload
        else:
            body = self.payload.encode(self.src, self.dst)
        word0 = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        header = struct.pack(
            "!IHBB", word0, len(body), self.next_header, self.hop_limit
        )
        return header + self.src.to_bytes() + self.dst.to_bytes() + body

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        if len(data) < IPV6_HEADER_LEN:
            raise PacketError("packet shorter than IPv6 header")
        word0, plen, next_header, hop_limit = struct.unpack("!IHBB", data[:8])
        version = word0 >> 28
        if version != 6:
            raise PacketError(f"not IPv6 (version {version})")
        src = IPv6Addr.from_bytes(data[8:24])
        dst = IPv6Addr.from_bytes(data[24:40])
        body = data[IPV6_HEADER_LEN:]
        if len(body) != plen:
            raise PacketError(f"payload length {plen} != actual {len(body)}")
        payload: Payload
        if next_header == NextHeader.ICMPV6:
            payload = Icmpv6Message.decode(body, src, dst)
        elif next_header == NextHeader.UDP:
            payload = UdpDatagram.decode(body, src, dst)
        elif next_header == NextHeader.TCP:
            payload = TcpSegment.decode(body, src, dst)
        else:
            payload = body
        return cls(
            src=src,
            dst=dst,
            payload=payload,
            hop_limit=hop_limit,
            traffic_class=(word0 >> 20) & 0xFF,
            flow_label=word0 & 0xFFFFF,
        )


def _wire_length(packet: Packet) -> int:
    """``len(packet.encode())``, without encoding anything."""
    payload = packet.payload
    if isinstance(payload, bytes):
        body = len(payload)
    elif isinstance(payload, Icmpv6Message):
        body = 4 + payload._body_length()
    elif isinstance(payload, UdpDatagram):
        body = 8 + len(payload.payload)
    else:
        body = 20 + len(payload.payload)
    return IPV6_HEADER_LEN + body


def echo_request(
    src: IPv6Addr,
    dst: IPv6Addr,
    ident: int,
    seq: int,
    payload: bytes = b"",
    hop_limit: int = DEFAULT_HOP_LIMIT,
) -> Packet:
    """Convenience constructor for an ICMPv6 Echo Request probe."""
    message = Icmpv6Message(
        Icmpv6Type.ECHO_REQUEST, ident=ident, seq=seq, payload=payload
    )
    return Packet(src=src, dst=dst, payload=message, hop_limit=hop_limit)


def icmpv6_error(
    src: IPv6Addr,
    dst: IPv6Addr,
    error_type: Icmpv6Type,
    code: int,
    invoking: Packet,
    hop_limit: int = MAX_HOP_LIMIT,
) -> Packet:
    """Build an ICMPv6 error carrying the invoking packet (RFC 4443 §2.4).

    Errors originate with a full 255 hop limit, which is what lets the
    source-spoofing variant of the routing-loop attack double its traffic:
    a Time Exceeded aimed at a spoofed address inside looping space gets a
    whole hop-limit budget of its own (§VI-A).  The message holds
    ``invoking`` by reference; its bytes are encoded if anything asks.
    """
    message = Icmpv6Message(int(error_type), code, invoking=invoking)
    return Packet(src=src, dst=dst, payload=message, hop_limit=hop_limit)
