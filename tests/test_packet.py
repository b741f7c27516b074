"""Wire formats: checksums, encode/decode inverses, error semantics."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import IPv6Addr
from repro.net.packet import (
    Icmpv6Message,
    Icmpv6Type,
    NextHeader,
    Packet,
    PacketError,
    TcpFlags,
    TcpSegment,
    UdpDatagram,
    UnreachableCode,
    echo_request,
    icmpv6_error,
    internet_checksum,
    pseudo_header,
)

SRC = IPv6Addr.from_string("2001:db8::1")
DST = IPv6Addr.from_string("2001:db8::2")

payloads = st.binary(max_size=256)
ports = st.integers(min_value=1, max_value=65535)


class TestChecksum:
    def test_rfc1071_example(self):
        # RFC 1071 example bytes: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2 -> ~ = 220d
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_pseudo_header_length(self):
        assert len(pseudo_header(SRC, DST, 8, 58)) == 40

    @staticmethod
    def _word_loop(data: bytes) -> int:
        """RFC 1071 as written: add the 16-bit words, fold the carries."""
        if len(data) % 2:
            data += b"\x00"
        total = 0
        for i in range(0, len(data), 2):
            total += (data[i] << 8) | data[i + 1]
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return ~total & 0xFFFF

    @given(
        st.one_of(
            st.binary(max_size=1500),
            # Carry chains and the one's-complement edge: all-ones words
            # (a non-zero sum that is a multiple of 0xFFFF folds to 0xFFFF,
            # not 0), each with an odd tail.
            st.builds(
                lambda words, tail: b"\xff\xff" * words + tail,
                st.integers(min_value=0, max_value=700),
                st.binary(max_size=3),
            ),
            st.lists(st.sampled_from([b"\xff\xfe", b"\x00\x01", b"\x80\x00",
                                      b"\xff\xff", b"\x00\x00"]),
                     max_size=64).map(b"".join),
        )
    )
    def test_matches_the_word_loop(self, data):
        assert internet_checksum(data) == self._word_loop(data)

    @pytest.mark.parametrize("data", [
        b"", b"\xff", b"\xff\xff", b"\xff" * 40, b"\xff" * 41, b"\x00" * 8,
        b"\xff\xff\x00\x01", b"\xff\xfe\x00\x01",
    ])
    def test_edges_match_the_word_loop(self, data):
        assert internet_checksum(data) == self._word_loop(data)


class TestIcmpv6:
    def test_echo_roundtrip(self):
        msg = Icmpv6Message(
            int(Icmpv6Type.ECHO_REQUEST), ident=0x1234, seq=7, payload=b"hi"
        )
        wire = msg.encode(SRC, DST)
        back = Icmpv6Message.decode(wire, SRC, DST)
        assert back.ident == 0x1234
        assert back.seq == 7
        assert back.payload == b"hi"

    def test_checksum_rejected_on_corruption(self):
        wire = bytearray(
            Icmpv6Message(int(Icmpv6Type.ECHO_REQUEST), ident=1).encode(SRC, DST)
        )
        wire[-1] ^= 0xFF
        with pytest.raises(PacketError):
            Icmpv6Message.decode(bytes(wire), SRC, DST)

    def test_checksum_binds_addresses(self):
        # The pseudo-header makes the checksum address-dependent.
        wire = Icmpv6Message(int(Icmpv6Type.ECHO_REQUEST), ident=1).encode(SRC, DST)
        other = IPv6Addr.from_string("2001:db8::3")
        with pytest.raises(PacketError):
            Icmpv6Message.decode(wire, SRC, other)

    def test_error_carries_invoking(self):
        probe = echo_request(SRC, DST, 1, 2, b"x")
        error = icmpv6_error(
            DST, SRC, Icmpv6Type.DEST_UNREACHABLE,
            int(UnreachableCode.NO_ROUTE), probe,
        )
        assert isinstance(error.payload, Icmpv6Message)
        inner = Packet.decode(error.payload.invoking)
        assert inner.dst == DST
        assert isinstance(inner.payload, Icmpv6Message)
        assert inner.payload.ident == 1

    def test_error_truncates_to_min_mtu(self):
        big = Packet(src=SRC, dst=DST, payload=b"\x00" * 2000)
        error = icmpv6_error(DST, SRC, Icmpv6Type.TIME_EXCEEDED, 0, big)
        assert len(error.encode()) <= 1280

    def test_is_error_classification(self):
        assert Icmpv6Message(int(Icmpv6Type.DEST_UNREACHABLE)).is_error
        assert not Icmpv6Message(int(Icmpv6Type.ECHO_REPLY)).is_error

    def test_short_message_rejected(self):
        with pytest.raises(PacketError):
            Icmpv6Message.decode(b"\x80\x00\x00", SRC, DST)


class TestQuoteByReference:
    """An error holds the invoking packet and makes its bytes on demand;
    it is indistinguishable from the message holding those bytes."""

    @staticmethod
    def _pair(invoking, error_type=Icmpv6Type.DEST_UNREACHABLE, code=3):
        held = icmpv6_error(DST, SRC, error_type, code, invoking)
        message = Icmpv6Message(int(error_type), code,
                                invoking=invoking.encode())
        return held, Packet(src=DST, dst=SRC, payload=message,
                            hop_limit=held.hop_limit)

    @staticmethod
    def _same(held, wired):
        assert held.payload.invoking == wired.payload.invoking
        assert held.payload.body() == wired.payload.body()
        assert held.encode() == wired.encode()
        assert held == wired and held.payload == wired.payload
        assert hash(held) == hash(wired)
        assert hash(held.payload) == hash(wired.payload)
        assert repr(held) == repr(wired)

    @given(payloads, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
           st.integers(1, 255))
    def test_identical_to_the_bytes_form(self, payload, ident, seq, hops):
        probe = echo_request(SRC, DST, ident, seq, payload, hop_limit=hops)
        held, wired = self._pair(probe)
        self._same(held, wired)
        assert held.payload.quoted is probe
        assert Packet.decode(held.encode()) == wired

    def test_every_payload_kind_and_an_error_quoting_an_error(self):
        for inner in (UdpDatagram(1, 2, b"abc"), TcpSegment(3, 4, seq=5),
                      b"opaque"):
            self._same(*self._pair(Packet(src=SRC, dst=DST, payload=inner)))
        error, _ = self._pair(echo_request(SRC, DST, 1, 2, b"x"))
        held, wired = self._pair(error, Icmpv6Type.TIME_EXCEEDED, 0)
        self._same(held, wired)
        assert held.payload.quoted is error

    @pytest.mark.parametrize("extra,whole", [(0, True), (1, False),
                                             (800, False)])
    def test_a_quote_past_the_minimum_mtu_is_cut_and_not_held(
        self, extra, whole
    ):
        # 40 + 8 + 1184 = 1232 bytes: exactly the room an error has.
        big = Packet(src=SRC, dst=DST,
                     payload=UdpDatagram(1, 2, b"\x00" * (1184 + extra)))
        held, wired = self._pair(big)
        self._same(held, wired)
        assert len(held.encode()) == 1280
        assert len(held.payload.invoking) == 1232 + extra  # uncut, as held
        assert (held.payload.quoted is big) is whole

    def test_frozen_and_pickled_by_value(self):
        held, wired = self._pair(echo_request(SRC, DST, 1, 2, b"x"))
        with pytest.raises(FrozenInstanceError):
            held.payload.code = 1  # type: ignore[misc]
        with pytest.raises(FrozenInstanceError):
            del held.payload.type
        back = pickle.loads(pickle.dumps(held))
        assert back == wired and back.payload.quoted is not None


class TestUdp:
    @given(ports, ports, payloads)
    def test_roundtrip(self, sport, dport, payload):
        datagram = UdpDatagram(sport, dport, payload)
        back = UdpDatagram.decode(datagram.encode(SRC, DST), SRC, DST)
        assert back == datagram

    def test_corrupt_checksum_rejected(self):
        wire = bytearray(UdpDatagram(1, 2, b"abc").encode(SRC, DST))
        wire[-1] ^= 0x55
        with pytest.raises(PacketError):
            UdpDatagram.decode(bytes(wire), SRC, DST)

    def test_length_mismatch_rejected(self):
        wire = UdpDatagram(1, 2, b"abc").encode(SRC, DST) + b"zz"
        with pytest.raises(PacketError):
            UdpDatagram.decode(wire, SRC, DST)


class TestTcp:
    @given(ports, ports, st.integers(min_value=0, max_value=0xFFFFFFFF), payloads)
    def test_roundtrip(self, sport, dport, seq, payload):
        segment = TcpSegment(
            sport, dport, seq=seq, flags=int(TcpFlags.SYN), payload=payload
        )
        back = TcpSegment.decode(segment.encode(SRC, DST), SRC, DST)
        assert back.sport == sport
        assert back.dport == dport
        assert back.seq == seq
        assert back.payload == payload
        assert back.has_flag(TcpFlags.SYN)

    def test_flags(self):
        segment = TcpSegment(1, 2, flags=int(TcpFlags.SYN) | int(TcpFlags.ACK))
        assert segment.has_flag(TcpFlags.SYN)
        assert segment.has_flag(TcpFlags.ACK)
        assert not segment.has_flag(TcpFlags.RST)

    def test_corrupt_checksum_rejected(self):
        wire = bytearray(TcpSegment(1, 2, payload=b"xyz").encode(SRC, DST))
        wire[-2] ^= 0x10
        with pytest.raises(PacketError):
            TcpSegment.decode(bytes(wire), SRC, DST)


class TestPacket:
    def test_echo_request_roundtrip(self):
        packet = echo_request(SRC, DST, 7, 9, b"payload", hop_limit=77)
        back = Packet.decode(packet.encode())
        assert back.src == SRC
        assert back.dst == DST
        assert back.hop_limit == 77
        assert isinstance(back.payload, Icmpv6Message)
        assert back.payload.ident == 7

    @given(payloads)
    def test_opaque_payload_roundtrip(self, payload):
        packet = Packet(src=SRC, dst=DST, payload=payload)
        back = Packet.decode(packet.encode())
        assert back.payload == payload
        assert back.next_header == 59

    def test_next_header_mapping(self):
        assert Packet(src=SRC, dst=DST, payload=UdpDatagram(1, 2)).next_header == int(NextHeader.UDP)
        assert Packet(src=SRC, dst=DST, payload=TcpSegment(1, 2)).next_header == int(NextHeader.TCP)

    def test_traffic_class_flow_label_roundtrip(self):
        packet = Packet(
            src=SRC, dst=DST, payload=b"", traffic_class=0xAB, flow_label=0xCDEF5
        )
        back = Packet.decode(packet.encode())
        assert back.traffic_class == 0xAB
        assert back.flow_label == 0xCDEF5

    def test_with_hop_limit(self):
        packet = echo_request(SRC, DST, 1, 1)
        assert packet.with_hop_limit(3).hop_limit == 3

    def test_rejects_non_v6(self):
        with pytest.raises(PacketError):
            Packet.decode(b"\x45" + b"\x00" * 60)

    def test_rejects_truncated(self):
        with pytest.raises(PacketError):
            Packet.decode(b"\x60" + b"\x00" * 10)

    def test_rejects_length_mismatch(self):
        wire = bytearray(Packet(src=SRC, dst=DST, payload=b"abc").encode())
        wire[5] = 99  # payload length field
        with pytest.raises(PacketError):
            Packet.decode(bytes(wire))
