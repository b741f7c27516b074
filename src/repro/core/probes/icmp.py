"""ICMPv6 Echo Request probe — the periphery-discovery workhorse.

The ident/seq pair is hash-derived from the destination, and the 8-byte echo
payload carries the full 64-bit validation tag, so both direct Echo Replies
and ICMPv6 errors quoting the probe validate statelessly.

``hop_limit`` is configurable because the routing-loop detector (§VI-B)
probes the same way with crafted hop limits (h and h+2) to elicit Time
Exceeded messages from looping links.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.core.probes.base import ProbeModule, ProbeReply, ReplyKind
from repro.net.addr import IPv6Addr
from repro.net.packet import (
    DEFAULT_HOP_LIMIT,
    Icmpv6Message,
    Icmpv6Type,
    Packet,
    echo_request,
)


class IcmpEchoProbe(ProbeModule):
    name = "icmpv6-echo"

    def __init__(self, validator, hop_limit: int = DEFAULT_HOP_LIMIT) -> None:
        super().__init__(validator)
        self.hop_limit = hop_limit

    def build(self, src: IPv6Addr, dst: IPv6Addr) -> Packet:
        ident, seq, tag = self._echo(dst)
        return echo_request(
            src, dst, ident, seq, struct.pack("!Q", tag),
            hop_limit=self.hop_limit,
        )

    def _echo(self, dst: IPv6Addr | int) -> Tuple[int, int, int]:
        """``(ident, seq, tag)`` of the probe for ``dst``: one tag
        derivation serves ident, seq and the payload (deriving the slices
        inline skips a ProbeFields allocation per probe)."""
        tag = self.validator.tag(dst)
        return tag & 0xFFFF, (tag >> 16) & 0xFFFF, tag

    def validates_row(self, target: int) -> bool:
        """:meth:`_validates_invoking` of the probe :meth:`build` writes for
        ``target``: an Echo Request whose ident and seq are ``_echo``'s,
        checked against one validator tag lookup — ident and seq read as
        its slices, as :meth:`Validator.check_echo` reads them."""
        ident, seq, _written = self._echo(target)
        tag = self.validator.tag(target)
        return ident == tag & 0xFFFF and seq == (tag >> 16) & 0xFFFF

    def classify(self, packet: Packet) -> Optional[ProbeReply]:
        message = packet.payload
        if not isinstance(message, Icmpv6Message):
            return None
        if message.type == Icmpv6Type.ECHO_REPLY:
            if not self.validator.check_echo(packet.src, message.ident, message.seq):
                return None
            return ProbeReply(
                responder=packet.src,
                target=packet.src,
                kind=ReplyKind.ECHO_REPLY,
                icmp_type=message.type,
            )
        return self._classify_icmp_error(packet)

    def _validates_invoking(self, invoking: Packet) -> bool:
        inner = invoking.payload
        if not isinstance(inner, Icmpv6Message):
            return False
        if inner.type != Icmpv6Type.ECHO_REQUEST:
            return False
        return self.validator.check_echo(invoking.dst, inner.ident, inner.seq)
