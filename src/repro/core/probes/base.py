"""Probe module interface and the reply taxonomy the analyses consume."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.core.validate import Validator
from repro.net.addr import IPv6Addr
from repro.net.packet import (
    DEFAULT_HOP_LIMIT,
    Icmpv6Message,
    Icmpv6Type,
    Packet,
    PacketError,
)


class ReplyKind(Enum):
    """How a target (or an on-path router) answered a probe."""

    ECHO_REPLY = "echo-reply"
    DEST_UNREACHABLE = "dest-unreachable"
    TIME_EXCEEDED = "time-exceeded"
    TCP_SYNACK = "tcp-synack"
    TCP_RST = "tcp-rst"
    UDP_REPLY = "udp-reply"
    PORT_UNREACHABLE = "port-unreachable"

    @property
    def is_error(self) -> bool:
        return self in (
            ReplyKind.DEST_UNREACHABLE,
            ReplyKind.TIME_EXCEEDED,
            ReplyKind.PORT_UNREACHABLE,
        )


@dataclass(frozen=True)
class ProbeReply:
    """A validated reply attributed to one probe.

    ``responder`` is who answered (for ICMPv6 errors, the *reporting* device
    — the paper's "last hop"); ``target`` is the original probe destination
    recovered from the quoted invoking packet.
    """

    responder: IPv6Addr
    target: IPv6Addr
    kind: ReplyKind
    icmp_type: int = 0
    icmp_code: int = 0

    @property
    def same_slash64(self) -> bool:
        """Does the responder share the probe target's /64? (Table II)."""
        return self.responder.slash64 == self.target.slash64


class ProbeModule(ABC):
    """Builds probes for targets and validates candidate replies."""

    name: str = "probe"
    #: The hop limit every probe leaves with.  The scanner forwards a target
    #: block from this declaration before any packet is built, so
    #: :meth:`build` must honour it.
    hop_limit: int = DEFAULT_HOP_LIMIT

    def __init__(self, validator: Validator) -> None:
        self.validator = validator

    @abstractmethod
    def build(self, src: IPv6Addr, dst: IPv6Addr) -> Packet:
        """The probe packet for one target: a pure function of ``(src,
        dst)``, addressed to ``dst``, with :attr:`hop_limit` hops to live."""

    @abstractmethod
    def classify(self, packet: Packet) -> Optional[ProbeReply]:
        """Attribute a received packet to this scan, or return None."""

    # -- shared ICMPv6-error handling ----------------------------------------

    def _classify_icmp_error(self, packet: Packet) -> Optional[ProbeReply]:
        """Validate an ICMPv6 error by re-deriving fields for the quoted
        invoking packet's destination (works for every probe type, since the
        error quotes our own probe).

        An error built in process holds the quoted packet itself, and its
        fields are read as they are.  Only a quote that came off the wire,
        or one cut to the minimum MTU, is decoded — from the bytes the wire
        carries, checksum and all."""
        message = packet.payload
        if not isinstance(message, Icmpv6Message) or not message.is_error:
            return None
        invoking = message.quoted
        if invoking is None:
            try:
                invoking = Packet.decode(message.body()[4:])
            except PacketError:
                return None
        if not self._validates_invoking(invoking):
            return None
        kind = error_kind(message.type, message.code)
        if kind is None:
            return None
        return ProbeReply(
            responder=packet.src,
            target=invoking.dst,
            kind=kind,
            icmp_type=message.type,
            icmp_code=message.code,
        )

    @abstractmethod
    def _validates_invoking(self, invoking: Packet) -> bool:
        """Is the quoted invoking packet one of this module's probes?"""

    #: The row form of :meth:`_validates_invoking`, for a module whose
    #: probes are never ICMPv6 errors: ``validates_row(target)`` — would
    #: the probe :meth:`build` writes for ``target`` (an int), quoted back
    #: whole by an ICMPv6 error, pass it?  The scanner then takes such
    #: errors as rows (:class:`repro.net.columnar.Outcomes`) and validates
    #: them with it; None, as here: only ever from packets.
    validates_row: Optional[Callable[[int], bool]] = None


def error_kind(icmp_type: int, code: int) -> Optional[ReplyKind]:
    """The reply kind of an ICMPv6 error of ``icmp_type`` / ``code`` that
    quotes one of the scan's probes; None for an error no probe module
    attributes (only Destination Unreachable and Time Exceeded are)."""
    if icmp_type == Icmpv6Type.DEST_UNREACHABLE:
        return (ReplyKind.PORT_UNREACHABLE if code == 4
                else ReplyKind.DEST_UNREACHABLE)
    if icmp_type == Icmpv6Type.TIME_EXCEEDED:
        return ReplyKind.TIME_EXCEEDED
    return None
