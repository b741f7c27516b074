"""The forwarding engine: delivery, traces, loss, loop accounting."""

import pytest

from repro.net.addr import IPv6Addr
from repro.net.device import Host
from repro.net.network import Network, NetworkError
from repro.net.packet import Icmpv6Message, Icmpv6Type, echo_request

from tests.topo import MiniTopology, build_mini


def _addr(text):
    return IPv6Addr.from_string(text)


class TestRegistry:
    def test_duplicate_name_rejected(self):
        net = Network()
        net.register(Host("a", _addr("2001:db8::1")))
        with pytest.raises(NetworkError):
            net.register(Host("a", _addr("2001:db8::2")))

    def test_duplicate_address_rejected(self):
        net = Network()
        net.register(Host("a", _addr("2001:db8::1")))
        with pytest.raises(NetworkError):
            net.register(Host("b", _addr("2001:db8::1")))

    def test_rebind_same_device_ok(self):
        net = Network()
        host = net.register(Host("a", _addr("2001:db8::1")))
        net.bind(_addr("2001:db8::1"), host)

    def test_device_at(self):
        net = Network()
        host = net.register(Host("a", _addr("2001:db8::1")))
        assert net.device_at(_addr("2001:db8::1")) is host
        assert net.device_at(_addr("2001:db8::2")) is None

    def test_unregister_releases_addresses(self):
        net = Network()
        host = net.register(Host("a", _addr("2001:db8::1")))
        net.bind(_addr("2001:db8::2"), host)
        net.unregister(host)
        assert net.device_at(_addr("2001:db8::1")) is None
        assert net.device_at(_addr("2001:db8::2")) is None
        # The name and addresses are free for reuse.
        net.register(Host("a", _addr("2001:db8::1")))

    def test_unregister_unknown_device_rejected(self):
        net = Network()
        stranger = Host("ghost", _addr("2001:db8::9"))
        with pytest.raises(NetworkError):
            net.unregister(stranger)

    def test_unregister_requires_identity_not_just_name(self):
        net = Network()
        net.register(Host("a", _addr("2001:db8::1")))
        impostor = Host("a", _addr("2001:db8::2"))
        with pytest.raises(NetworkError):
            net.unregister(impostor)


class TestForwardingEngine:
    def test_unreachable_reply_returns_to_vantage(self):
        topo = build_mini()
        probe = echo_request(
            topo.vantage.primary_address,
            MiniTopology.WAN_OK.address(0xAAAA), 1, 1,
        )
        inbox, trace = topo.network.inject(probe, topo.vantage)
        assert len(inbox) == 1
        msg = inbox[0].payload
        assert isinstance(msg, Icmpv6Message)
        assert msg.type == Icmpv6Type.DEST_UNREACHABLE
        assert inbox[0].src == topo.cpe_ok.wan_address
        assert trace.delivered == 1

    def test_echo_reply_round_trip(self):
        topo = build_mini()
        probe = echo_request(
            topo.vantage.primary_address, topo.ue.ue_address, 3, 4
        )
        inbox, _ = topo.network.inject(probe, topo.vantage)
        assert inbox[0].payload.type == Icmpv6Type.ECHO_REPLY

    def test_blackholed_space_is_silent(self):
        topo = build_mini()
        probe = echo_request(
            topo.vantage.primary_address, _addr("2001:db8:55::1"), 1, 1
        )
        inbox, trace = topo.network.inject(probe, topo.vantage)
        assert inbox == []
        assert trace.hops == 2  # vantage->core, core->isp

    def test_loop_bounded_by_hop_limit(self):
        topo = build_mini(record_links=True)
        target = MiniTopology.LAN_VULN.subprefix(15, 64).address(0x77)
        probe = echo_request(
            topo.vantage.primary_address, target, 1, 1, hop_limit=255
        )
        inbox, trace = topo.network.inject(probe, topo.vantage)
        crossings = trace.crossings("isp", "cpe-vuln")
        assert crossings >= 250  # the paper's >200x amplification
        assert len(inbox) == 1
        assert inbox[0].payload.type == Icmpv6Type.TIME_EXCEEDED

    def test_loss_drops_packets(self):
        topo = build_mini(loss_rate=1.0)
        probe = echo_request(
            topo.vantage.primary_address, topo.ue.ue_address, 1, 1
        )
        inbox, trace = topo.network.inject(probe, topo.vantage)
        assert inbox == []
        assert trace.drops == 1

    def test_partial_loss_statistics(self):
        topo = build_mini(loss_rate=0.5, seed=3)
        received = 0
        for i in range(200):
            probe = echo_request(
                topo.vantage.primary_address, topo.ue.ue_address, 1, i
            )
            inbox, _ = topo.network.inject(probe, topo.vantage)
            received += bool(inbox)
        # 6 hops each way at 50% loss -> a small but nonzero success rate.
        assert 0 < received < 100

    def test_totals_accumulate(self):
        topo = build_mini()
        before = topo.network.total_hops
        probe = echo_request(
            topo.vantage.primary_address, topo.ue.ue_address, 1, 1
        )
        topo.network.inject(probe, topo.vantage)
        assert topo.network.total_injected == 1
        assert topo.network.total_hops > before

    def test_clock_advance(self):
        net = Network()
        net.advance(2.5)
        assert net.clock == 2.5

    def test_crossings_is_bidirectional(self):
        topo = build_mini(record_links=True)
        target = MiniTopology.WAN_VULN.address(0xABCD)
        probe = echo_request(
            topo.vantage.primary_address, target, 1, 1, hop_limit=41
        )
        _, trace = topo.network.inject(probe, topo.vantage)
        a = trace.crossings("isp", "cpe-vuln")
        b = trace.crossings("cpe-vuln", "isp")
        assert a == b  # symmetric accessor
        assert a > 30
