"""The global BGP substrate and the Table IX pipeline."""

import pytest

from repro.bgp import (
    GENERAL_IID_MIX,
    LOOP_IID_MIX,
    TOP_LOOP_ASES,
    AsRole,
    BgpPrefixInfo,
    BgpTable,
    build_internet,
)
from repro.loop.detector import find_loops
from repro.net.addr import IPv6Addr, IPv6Prefix


class TestBgpTable:
    def test_lookup(self):
        table = BgpTable()
        table.add(BgpPrefixInfo(IPv6Prefix.from_string("2a00::/32"), 64512, "BR"))
        info = table.lookup(IPv6Addr.from_string("2a00::1"))
        assert info.asn == 64512
        assert info.country == "BR"

    def test_longest_match(self):
        table = BgpTable()
        table.add(BgpPrefixInfo(IPv6Prefix.from_string("2a00::/16"), 1, "US"))
        table.add(BgpPrefixInfo(IPv6Prefix.from_string("2a00:1::/32"), 2, "DE"))
        assert table.lookup(IPv6Addr.from_string("2a00:1::5")).asn == 2
        assert table.lookup(IPv6Addr.from_string("2a00:2::5")).asn == 1

    def test_miss(self):
        assert BgpTable().lookup(IPv6Addr.from_string("2400::1")) is None


@pytest.fixture(scope="module")
def world():
    return build_internet(seed=3, scale=2_000, n_tail_ases=40)


class TestGlobalInternet:
    def test_as_count(self, world):
        assert len(world.edges) == len(TOP_LOOP_ASES) + 40
        edge_table = world.fabric.bgp_table(roles=(AsRole.EDGE,))
        assert len(edge_table) == len(world.edges)

    def test_blocks_are_disjoint(self, world):
        networks = [a.block.network for a in world.edges]
        assert len(networks) == len(set(networks))

    def test_loops_exist_in_top_ases(self, world):
        top = {asn for asn, _c, _n in TOP_LOOP_ASES}
        for as_truth in world.edges:
            if as_truth.asn in top:
                assert as_truth.n_loops >= 2

    def test_devices_inside_as_blocks(self, world):
        for as_truth in world.edges:
            assert as_truth.n_devices >= as_truth.n_loops

    def test_iid_mixes_sum_to_one(self):
        assert sum(s for _c, s in GENERAL_IID_MIX) == pytest.approx(1.0)
        assert sum(s for _c, s in LOOP_IID_MIX) == pytest.approx(1.0, abs=0.01)

    def test_loop_detection_per_as(self, world):
        """Sweep a loop-dense AS and a couple of tail ASes: the detector's
        findings match each AS's ground truth."""
        for as_truth in world.edges[:3]:
            survey = find_loops(
                world.network, world.vantage, as_truth.scan_spec, seed=9
            )
            assert survey.n_unique == as_truth.n_loops

    def test_bgp_attribution_of_findings(self, world):
        as_truth = world.edges[0]
        table = world.fabric.bgp_table(roles=(AsRole.EDGE,))
        survey = find_loops(
            world.network, world.vantage, as_truth.scan_spec, seed=9
        )
        for record in survey.records:
            info = table.lookup(record.last_hop)
            assert info is not None
            assert info.asn == as_truth.asn


class TestCrowdedEdgeAs:
    """An edge AS holding more devices than the default 8-bit window has
    /48s (the paper at 1/1000 has such ASes) gets a window wide enough for
    them; the ASes that fit keep theirs."""

    def test_a_300_device_as_builds_with_distinct_48s(self):
        world = build_internet(
            seed=3, n_tail_ases=2,
            edge_plan=[(0, "CN", 300, 20), (1, "US", 8, 0)],
        )
        crowded, small = world.edges
        window = IPv6Prefix.from_string(crowded.scan_spec.rsplit("-", 1)[0])
        assert len(crowded.delegations) == 300
        assert len(set(crowded.delegations)) == 300
        assert all(d.length == 48 and window.contains(d.network)
                   for d in crowded.delegations)
        assert window.length == 48 - 11  # ceil(log2 300) + 2 bits
        assert small.scan_spec.endswith("/40-48")  # the default 8 bits
