"""Probe modules: build/classify round trips and validation rejection."""

import pytest

from repro.core.probes import IcmpEchoProbe, ReplyKind, TcpSynProbe, UdpProbe
from repro.core.validate import Validator
from repro.net.addr import IPv6Addr
from repro.net.packet import (
    Icmpv6Message,
    Icmpv6Type,
    Packet,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
    echo_request,
    icmpv6_error,
)

SECRET = bytes(range(16))
SRC = IPv6Addr.from_string("2001:4860::100")
DST = IPv6Addr.from_string("2001:db8::5")
ROUTER = IPv6Addr.from_string("2001:db8:ffff::1")  # different /64 than DST


@pytest.fixture
def validator():
    return Validator(SECRET)


class TestIcmpEchoProbe:
    def test_build_uses_derived_fields(self, validator):
        probe = IcmpEchoProbe(validator, hop_limit=99)
        packet = probe.build(SRC, DST)
        fields = validator.fields(DST)
        assert packet.payload.ident == fields.ident
        assert packet.payload.seq == fields.seq
        assert packet.hop_limit == 99

    def test_classify_echo_reply(self, validator):
        probe = IcmpEchoProbe(validator)
        fields = validator.fields(DST)
        reply = Packet(
            src=DST, dst=SRC,
            payload=Icmpv6Message(
                int(Icmpv6Type.ECHO_REPLY), ident=fields.ident, seq=fields.seq
            ),
        )
        result = probe.classify(reply)
        assert result is not None
        assert result.kind is ReplyKind.ECHO_REPLY
        assert result.responder == DST
        assert result.target == DST

    def test_classify_rejects_forged_reply(self, validator):
        probe = IcmpEchoProbe(validator)
        reply = Packet(
            src=DST, dst=SRC,
            payload=Icmpv6Message(int(Icmpv6Type.ECHO_REPLY), ident=1, seq=2),
        )
        assert probe.classify(reply) is None

    def test_classify_unreachable_error(self, validator):
        probe = IcmpEchoProbe(validator)
        original = probe.build(SRC, DST)
        error = icmpv6_error(ROUTER, SRC, Icmpv6Type.DEST_UNREACHABLE, 0, original)
        result = probe.classify(error)
        assert result is not None
        assert result.kind is ReplyKind.DEST_UNREACHABLE
        assert result.responder == ROUTER
        assert result.target == DST
        assert not result.same_slash64

    def test_classify_time_exceeded(self, validator):
        probe = IcmpEchoProbe(validator)
        original = probe.build(SRC, DST)
        error = icmpv6_error(ROUTER, SRC, Icmpv6Type.TIME_EXCEEDED, 0, original)
        assert probe.classify(error).kind is ReplyKind.TIME_EXCEEDED

    def test_classify_rejects_error_quoting_foreign_probe(self, validator):
        probe = IcmpEchoProbe(validator)
        foreign = echo_request(SRC, DST, 111, 222)  # not validator-derived
        error = icmpv6_error(ROUTER, SRC, Icmpv6Type.DEST_UNREACHABLE, 0, foreign)
        assert probe.classify(error) is None

    def test_same_slash64_detection(self, validator):
        probe = IcmpEchoProbe(validator)
        original = probe.build(SRC, DST)
        same64_router = IPv6Addr.from_string("2001:db8::ff")
        error = icmpv6_error(
            same64_router, SRC, Icmpv6Type.DEST_UNREACHABLE, 3, original
        )
        assert probe.classify(error).same_slash64

    def test_wire_roundtrip(self, validator):
        probe = IcmpEchoProbe(validator)
        packet = Packet.decode(probe.build(SRC, DST).encode())
        original = probe.build(SRC, DST)
        assert packet == original


class TestTcpSynProbe:
    def test_build(self, validator):
        probe = TcpSynProbe(validator, 80)
        packet = probe.build(SRC, DST)
        fields = validator.fields(DST)
        assert packet.payload.dport == 80
        assert packet.payload.sport == fields.sport
        assert packet.payload.seq == fields.tcp_seq

    def test_rejects_bad_port(self, validator):
        with pytest.raises(ValueError):
            TcpSynProbe(validator, 0)

    def test_classify_synack(self, validator):
        probe = TcpSynProbe(validator, 80)
        fields = validator.fields(DST)
        synack = Packet(
            src=DST, dst=SRC,
            payload=TcpSegment(
                80, fields.sport, seq=5,
                ack=(fields.tcp_seq + 1) & 0xFFFFFFFF,
                flags=int(TcpFlags.SYN) | int(TcpFlags.ACK),
            ),
        )
        assert probe.classify(synack).kind is ReplyKind.TCP_SYNACK

    def test_classify_rst(self, validator):
        probe = TcpSynProbe(validator, 80)
        fields = validator.fields(DST)
        rst = Packet(
            src=DST, dst=SRC,
            payload=TcpSegment(
                80, fields.sport, ack=(fields.tcp_seq + 1) & 0xFFFFFFFF,
                flags=int(TcpFlags.RST) | int(TcpFlags.ACK),
            ),
        )
        assert probe.classify(rst).kind is ReplyKind.TCP_RST

    def test_classify_rejects_wrong_ack(self, validator):
        probe = TcpSynProbe(validator, 80)
        fields = validator.fields(DST)
        bad = Packet(
            src=DST, dst=SRC,
            payload=TcpSegment(
                80, fields.sport, ack=fields.tcp_seq + 2,
                flags=int(TcpFlags.SYN) | int(TcpFlags.ACK),
            ),
        )
        assert probe.classify(bad) is None

    def test_classify_error_on_tcp_probe(self, validator):
        probe = TcpSynProbe(validator, 80)
        original = probe.build(SRC, DST)
        error = icmpv6_error(ROUTER, SRC, Icmpv6Type.DEST_UNREACHABLE, 0, original)
        result = probe.classify(error)
        assert result.kind is ReplyKind.DEST_UNREACHABLE
        assert result.target == DST


class TestUdpProbe:
    def test_build_with_payload(self, validator):
        probe = UdpProbe(validator, 53, payload=b"\x12\x34")
        packet = probe.build(SRC, DST)
        assert packet.payload.dport == 53
        assert packet.payload.payload == b"\x12\x34"

    def test_classify_udp_reply(self, validator):
        probe = UdpProbe(validator, 53)
        fields = validator.fields(DST)
        reply = Packet(
            src=DST, dst=SRC, payload=UdpDatagram(53, fields.sport, b"resp")
        )
        assert probe.classify(reply).kind is ReplyKind.UDP_REPLY

    def test_classify_rejects_wrong_sport(self, validator):
        probe = UdpProbe(validator, 53)
        reply = Packet(src=DST, dst=SRC, payload=UdpDatagram(53, 9999, b"r"))
        assert probe.classify(reply) is None

    def test_classify_port_unreachable(self, validator):
        probe = UdpProbe(validator, 53)
        original = probe.build(SRC, DST)
        error = icmpv6_error(DST, SRC, Icmpv6Type.DEST_UNREACHABLE, 4, original)
        assert probe.classify(error).kind is ReplyKind.PORT_UNREACHABLE


class TestQuotedProbe:
    """Classify reads a held quote as it is and decodes only what the wire
    would carry."""

    def test_a_quote_cut_to_the_minimum_mtu_is_discarded(self, validator):
        def verdict(size):
            probe = UdpProbe(validator, 53, payload=b"q" * size)
            error = icmpv6_error(ROUTER, SRC, Icmpv6Type.DEST_UNREACHABLE, 4,
                                 probe.build(SRC, DST))
            return probe.classify(error), probe.classify(
                Packet.decode(error.encode())
            )

        # 40 + 8 + 1184 bytes fill an error's room exactly; one more is cut.
        held, wired = verdict(1184)
        assert held is not None and held == wired
        assert held.kind is ReplyKind.PORT_UNREACHABLE
        assert verdict(1185) == (None, None)

    @pytest.mark.parametrize("wire_mode", [True, False])
    def test_one_flipped_quote_byte_fails_validation_on_the_wire(
        self, monkeypatch, wire_mode
    ):
        from repro.core.scanner import ScanConfig, Scanner
        from repro.core.target import ScanRange
        from repro.engine import ProbeSpec
        from tests.topo import build_mini

        def scan():
            topo = build_mini()
            scanner = Scanner(
                topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
                ScanConfig(scan_range=ScanRange.parse("2001:db8:1::/56-64"),
                           seed=5, wire_mode=wire_mode),
            )
            stats = scanner.run().stats
            return stats.received, stats.validated, stats.discarded

        received, validated, discarded = scan()
        assert validated and not discarded
        encode = Icmpv6Message.encode

        def flipped(message, src, dst):
            # An error goes out with the last byte of its quote (the quoted
            # probe's echo payload) flipped, under a good outer checksum.
            if message.is_error:
                quote = message.invoking
                message = Icmpv6Message(
                    message.type, message.code,
                    invoking=quote[:-1] + bytes([quote[-1] ^ 0x01]),
                )
            return encode(message, src, dst)

        monkeypatch.setattr(Icmpv6Message, "encode", flipped)
        if wire_mode:  # the quote's own checksum catches it
            assert scan() == (received, 0, received)
        else:  # in process, the held probe is read as it is
            assert scan() == (received, validated, discarded)


class TestDeclaredShape:
    """The scanner forwards a probe as a lane — from the target and the
    module's declared hop limit — and builds the packet later, and only if
    the lane ejects; so what a module declares and what it builds must be
    one thing, for every module."""

    MODULES = {
        "icmp": lambda v: IcmpEchoProbe(v),
        "icmp-255": lambda v: IcmpEchoProbe(v, hop_limit=255),
        "tcp": lambda v: TcpSynProbe(v, 443),
        "udp": lambda v: UdpProbe(v, 53, b"\x12\x34"),
    }

    @pytest.mark.parametrize("module", sorted(MODULES))
    def test_build_is_pure_and_honours_the_declaration(self, validator, module):
        probe = self.MODULES[module](validator)
        other = IPv6Addr.from_string("2001:db8:7::9")
        first = probe.build(SRC, DST)
        probe.build(SRC, other)  # an interleaved build must leave no trace
        again = probe.build(SRC, DST)
        assert first == again
        assert first.encode() == again.encode()
        assert first.dst == DST and first.src == SRC
        assert first.hop_limit == probe.hop_limit

    def test_every_module_declares_a_hop_limit(self, validator):
        from repro.net.packet import DEFAULT_HOP_LIMIT

        assert TcpSynProbe(validator, 80).hop_limit == DEFAULT_HOP_LIMIT
        assert UdpProbe(validator, 53).hop_limit == DEFAULT_HOP_LIMIT
        assert IcmpEchoProbe(validator).hop_limit == DEFAULT_HOP_LIMIT
        assert IcmpEchoProbe(validator, hop_limit=7).hop_limit == 7

    def test_a_declared_hop_limit_reaches_the_packet(self, validator):
        # A subclass (or an instance) that re-declares the hop limit gets
        # it on the wire without overriding build().
        probe = UdpProbe(validator, 53)
        probe.hop_limit = 9
        assert probe.build(SRC, DST).hop_limit == 9
