"""UDP probe with a caller-supplied application payload (DNS, NTP, …)."""

from __future__ import annotations

from typing import Optional

from repro.core.probes.base import ProbeModule, ProbeReply, ReplyKind
from repro.net.addr import IPv6Addr
from repro.net.packet import Packet, UdpDatagram


class UdpProbe(ProbeModule):
    name = "udp"

    def __init__(self, validator, port: int, payload: bytes = b"") -> None:
        super().__init__(validator)
        if not 0 < port < 65536:
            raise ValueError(f"bad UDP port {port}")
        self.port = port
        self.payload = payload

    def build(self, src: IPv6Addr, dst: IPv6Addr) -> Packet:
        fields = self.validator.fields(dst)
        datagram = UdpDatagram(fields.sport, self.port, self.payload)
        return Packet(src=src, dst=dst, payload=datagram,
                      hop_limit=self.hop_limit)

    def classify(self, packet: Packet) -> Optional[ProbeReply]:
        datagram = packet.payload
        if not isinstance(datagram, UdpDatagram):
            return self._classify_icmp_error(packet)
        if datagram.sport != self.port:
            return None
        if not self.validator.check_udp(packet.src, datagram.dport):
            return None
        return ProbeReply(
            responder=packet.src, target=packet.src, kind=ReplyKind.UDP_REPLY
        )

    def _validates_invoking(self, invoking: Packet) -> bool:
        inner = invoking.payload
        if not isinstance(inner, UdpDatagram) or inner.dport != self.port:
            return False
        return inner.sport == self.validator.fields(invoking.dst).sport
