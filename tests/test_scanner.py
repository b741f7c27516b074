"""The XMap engine end-to-end on the hand-built mini topology."""

import pytest

from repro.core import siphash
from repro.core.blocklist import Blocklist
from repro.core.probes import IcmpEchoProbe, ReplyKind
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import IidStrategy, ScanRange
from repro.core.validate import Validator
from repro.isp.builder import build_deployment
from repro.isp.profiles import profile_by_key

from tests.topo import build_mini

SECRET = bytes(range(16))

#: Every /64 of the two customer aggregates: covers both CPEs' WAN + LAN
#: space, the UE prefix, and plenty of empty space.
SPEC = "2001:db8::/32-48"


def _scanner(topo, spec=SPEC, **kwargs) -> Scanner:
    probe = IcmpEchoProbe(Validator(SECRET), hop_limit=kwargs.pop("hop_limit", 255))
    config = ScanConfig(scan_range=ScanRange.parse(spec), seed=5, **kwargs)
    return Scanner(topo.network, topo.vantage, probe, config)


class TestScannerEndToEnd:
    def test_narrow_window_finds_every_device(self):
        topo = build_mini()
        # Scan all /64s under 2001:db8:0::/48 .. the WAN aggregates:
        result = _scanner(topo, "2001:db8:0::/48-64").run()
        responders = {str(a) for a in result.unique_responders()}
        assert str(topo.cpe_ok.wan_address) in responders

    def test_finds_cpe_ue_and_loop_devices(self):
        topo = build_mini()
        _scanner(topo, "2001:db8:0:0::/46-64", max_probes=None).run()
        # /46-64: 256k probes is too many; use the per-aggregate windows:
        # (covered by the dedicated tests below)

    def test_ue_discovered_same_64(self):
        topo = build_mini()
        result = _scanner(topo, "2001:db8:2::/48-64").run()
        by_kind = result.by_kind()
        assert by_kind.get(ReplyKind.DEST_UNREACHABLE, 0) >= 1
        hit = [r for r in result.results if r.responder == topo.ue.ue_address]
        assert hit and hit[0].same_slash64

    def test_lan_scan_reports_diff_64(self):
        topo = build_mini()
        result = _scanner(topo, "2001:db8:1:50::/60-64").run()
        hits = [r for r in result.results if r.responder == topo.cpe_ok.wan_address]
        assert hits
        assert not hits[0].same_slash64

    def test_loop_device_yields_time_exceeded(self):
        topo = build_mini()
        result = _scanner(topo, "2001:db8:1:60::/60-64").run()
        kinds = result.by_kind()
        assert kinds.get(ReplyKind.TIME_EXCEEDED, 0) >= 1

    def test_stats_accounting(self):
        topo = build_mini()
        result = _scanner(topo, "2001:db8:2::/48-64").run()
        assert result.stats.sent == 1 << 16
        assert result.stats.validated >= 1
        assert 0 < result.stats.hit_rate < 1
        assert result.stats.virtual_seconds > 0

    def test_rate_limiting_paces_virtual_clock(self):
        topo = build_mini()
        scanner = _scanner(topo, "2001:db8:2::/56-64", rate_pps=100.0)
        result = scanner.run()
        assert result.stats.sent == 256
        assert result.stats.virtual_pps == pytest.approx(100.0, rel=0.05)

    def test_max_probes_caps(self):
        topo = build_mini()
        result = _scanner(topo, SPEC, max_probes=100).run()
        assert result.stats.sent == 100

    def test_blocklist_excludes(self):
        topo = build_mini()
        blocklist = Blocklist(blocked=["2001:db8::/32"])
        result = _scanner(topo, "2001:db8:2::/56-64", blocklist=blocklist).run()
        assert result.stats.sent == 0
        assert result.stats.blocked == 256

    def test_shards_union_equals_full_scan(self):
        topo = build_mini()
        full = _scanner(topo, "2001:db8:2::/56-64").targets()
        full_set = {a.value for a in full}
        sharded = set()
        for shard in range(3):
            scanner = _scanner(topo, "2001:db8:2::/56-64", shard=shard, shards=3)
            sharded.update(a.value for a in scanner.targets())
        assert sharded == full_set

    def test_wire_mode_equivalent(self):
        topo = build_mini()
        fast = _scanner(topo, "2001:db8:2::/56-64").run()
        topo2 = build_mini()
        wired = _scanner(topo2, "2001:db8:2::/56-64", wire_mode=True).run()
        assert {r.responder for r in fast.results} == {
            r.responder for r in wired.results
        }

    def test_replies_are_deduplicated(self):
        topo = build_mini()
        result = _scanner(topo, "2001:db8:1:50::/60-64").run()
        keys = [(r.responder.value, r.target.value, r.kind) for r in result.results]
        assert len(keys) == len(set(keys))

    def test_low_byte_strategy_hits_fewer_nonexistent(self):
        # Ablation sanity: with IID ::1 probes, probes either miss devices
        # whose address isn't ::1 or hit live ones; random IIDs are the sound
        # choice for unreachable-elicitation.
        topo = build_mini()
        random_run = _scanner(topo, "2001:db8:2::/56-64").run()
        topo2 = build_mini()
        lowbyte = _scanner(
            topo2, "2001:db8:2::/56-64", iid_strategy=IidStrategy.LOW_BYTE
        ).run()
        assert random_run.stats.validated >= lowbyte.stats.validated

    def test_with_defaults_constructor(self):
        topo = build_mini()
        scanner = Scanner.with_defaults(
            topo.network, topo.vantage, "2001:db8:2::/56-64"
        )
        result = scanner.run()
        assert result.stats.sent == 256

    def test_metadata_summary(self):
        topo = build_mini()
        result = _scanner(topo, "2001:db8:2::/56-64").run()
        meta = result.metadata()
        assert meta["sent"] == 256
        assert meta["range"] == "2001:db8:2::/56-64"
        assert meta["unique_responders"] >= 1
        assert 0 < meta["hit_rate"] < 1

    def test_probes_per_target_counts_all_sends(self):
        topo = build_mini()
        result = _scanner(topo, "2001:db8:2::/56-64",
                          probes_per_target=3).run()
        assert result.stats.sent == 256 * 3
        # Duplicate replies collapse via dedup.
        assert result.stats.validated == 1

    def test_last_hops_excludes_echo_replies(self):
        topo = build_mini()
        # Probe the UE's actual address /128 window -> echo reply only.
        spec = f"{topo.ue.ue_address}/128-128"
        result = _scanner(topo, spec).run()
        assert result.by_kind().get(ReplyKind.ECHO_REPLY) == 1
        assert result.last_hops() == []


@pytest.mark.skipif(
    siphash._np is None, reason="without numpy every hash is a scalar one"
)
class TestScalarHashCensus:
    """A work bound, counted not timed: a scan of a /60 window (68 host
    bits, two hashes per IID) with no blocklist makes no scalar SipHash
    call — every IID and every validation tag comes out of the lane
    kernel.  With a blocklist the IIDs still do; tags of a chunk that drew
    on more than two target blocks fall back, and only those."""

    KEY = "cn-unicom-broadband"  # a /50-60 block: 1,024 targets

    def _scanner(self, every, **config):
        dep = build_deployment([profile_by_key(self.KEY)], scale=8000.0, seed=7)
        scanner = Scanner.with_defaults(
            dep.network, dep.vantage, dep.isps[self.KEY].scan_spec, seed=3,
            **config,
        )
        if every is not None:
            scanner.on_progress = (
                lambda s: (s.result.stats.sent // every + 1) * every
            )
        return scanner

    # No hook: chunks are whole target blocks.  512: the first chunk is one
    # target, so every later chunk straddles two blocks and its replies are
    # checked after the next block was primed.  64: several chunks a block.
    # max_probes alone only shortens the last block.
    @pytest.mark.parametrize(
        "every,max_probes", [(None, None), (512, None), (64, None), (512, 700)]
    )
    def test_a_wide_window_scan_makes_no_scalar_hash(
        self, scalar_hash_calls, every, max_probes
    ):
        result = self._scanner(every, max_probes=max_probes).run()
        assert result.stats.sent == (max_probes or 1024)
        assert result.stats.validated > 100
        assert len(scalar_hash_calls) == 0

    def test_heavy_vetoes_re_hash_some_tags_and_no_iid(self, scalar_hash_calls):
        # Half the window vetoed: a block yields ~128 targets, a 256-target
        # chunk draws on three, and replies to the oldest block's targets
        # miss both primed generations (21 of them here).  The fallback is
        # one tag hash per such reply and never an IID hash.
        base = self._scanner(None).config.scan_range.base
        half = Blocklist(blocked=[base.subprefix(0, base.length + 1)])
        result = self._scanner(None, blocklist=half).run()
        assert result.stats.sent == 512 and result.stats.blocked == 512
        tags = [parts for parts in scalar_hash_calls if len(parts) == 1]
        assert tags == scalar_hash_calls  # an IID is hash(i) | hash(i, 1) << 64
        assert all(base.contains(value) for (value,) in tags)  # not indices
        assert len(tags) < result.stats.received
