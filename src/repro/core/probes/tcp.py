"""TCP SYN probe for port-openness scanning (Table VI's first stage)."""

from __future__ import annotations

from typing import Optional

from repro.core.probes.base import ProbeModule, ProbeReply, ReplyKind
from repro.net.addr import IPv6Addr
from repro.net.packet import Packet, TcpFlags, TcpSegment


class TcpSynProbe(ProbeModule):
    name = "tcp-syn"

    def __init__(self, validator, port: int) -> None:
        super().__init__(validator)
        if not 0 < port < 65536:
            raise ValueError(f"bad TCP port {port}")
        self.port = port

    def build(self, src: IPv6Addr, dst: IPv6Addr) -> Packet:
        fields = self.validator.fields(dst)
        segment = TcpSegment(
            sport=fields.sport,
            dport=self.port,
            seq=fields.tcp_seq,
            flags=int(TcpFlags.SYN),
        )
        return Packet(src=src, dst=dst, payload=segment,
                      hop_limit=self.hop_limit)

    def classify(self, packet: Packet) -> Optional[ProbeReply]:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return self._classify_icmp_error(packet)
        if segment.sport != self.port:
            return None
        if not self.validator.check_tcp(packet.src, segment.dport, segment.ack):
            return None
        if segment.has_flag(TcpFlags.SYN) and segment.has_flag(TcpFlags.ACK):
            kind = ReplyKind.TCP_SYNACK
        elif segment.has_flag(TcpFlags.RST):
            kind = ReplyKind.TCP_RST
        else:
            return None
        return ProbeReply(responder=packet.src, target=packet.src, kind=kind)

    def _validates_invoking(self, invoking: Packet) -> bool:
        inner = invoking.payload
        if not isinstance(inner, TcpSegment) or inner.dport != self.port:
            return False
        fields = self.validator.fields(invoking.dst)
        return inner.sport == fields.sport and inner.seq == fields.tcp_seq
