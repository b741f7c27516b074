"""The one send pipeline: invariance, engine selection, cadence, cleanup.

``Scanner.run`` is a single chunked loop over targets that were forwarded,
as lanes, when their block was pulled; which engine a block takes is
decided inside ``repro.net.columnar`` from what it can observe, and
re-checked at every chunk.  Nothing a scan reports may depend on how it was
chunked or forwarded — or on what happened to the topology between a
block's pull and the chunks that replay it — so one generated matrix
compares every configuration to the reference engine
(``Network(flow_cache=False)``, one target per chunk) on ordered rows,
stats, metrics, series and traces.  The rest pins what the merge of the
three old loops must not have changed: where chunks are cut for the
progress hook (checkpoint cadence), which side of the size threshold the
benchmark's shard shapes fall on, what work a scan is allowed to do per
probe, and what an interrupted scan leaves behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.scanner as scanner_module
from repro.core import siphash
from repro.core.blocklist import Blocklist
from repro.core.scanner import ProbeResult, ScanConfig, Scanner
from repro.core.siphash import SipKey
from repro.core.target import ScanRange
from repro.engine import Campaign, ProbeSpec
from repro.faults import (
    LOSS_BURST,
    ROUTE_SET,
    ROUTER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.isp.builder import build_deployment
from repro.isp.profiles import profile_by_key
from repro.isp.rotation import rotate_delegations
from repro.net import columnar
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.network import DeliveryTrace, Network, NetworkError
from repro.net.packet import Packet
from repro.net.spec import TopologySpec
from repro.net.testbed import MiniTopology
from repro.telemetry.metrics import HOP_BUCKETS, WAIT_BUCKETS
from tests.pipeline import (
    ALWAYS,
    LOOP_SPEC,
    NEVER,
    SPEC,
    WORLDS,
    editing_hook,
    engine,
    observe,
)
from tests.topo import build_mini

BLOCKLIST = Blocklist(blocked=["2001:db8:1:60::/60", "2001:db8:1:a0::/61"])
#: Three quarters of the window vetoed (both CPEs' LANs left in): a pulled
#: block yields a quarter of its targets, so a chunk draws on four blocks.
HEAVY_BLOCKLIST = Blocklist(blocked=["2001:db8:1::/58", "2001:db8:1:80::/57"])

WINDOWS = {
    "whole": {},
    "loops": {"spec": LOOP_SPEC},
    "blocklist": {"blocklist": BLOCKLIST},
    "heavy-blocklist": {"blocklist": HEAVY_BLOCKLIST},
    "skip+cap": {"blocklist": BLOCKLIST, "skip": 17, "max_probes": 100},
    "cap": {"max_probes": 33},
}
MODES = {
    "plain": {},
    "wire": {"wire_mode": True},
    "trace": {"trace": "sample:4"},
    "retransmit": {"retransmit": 2, "retransmit_backoff": 0.0002},
    "adaptive": {"adaptive_rate": True, "adaptive_window": 4},
    # 6 probes a second: the core's neighbour entry for the vantage (30
    # virtual seconds) expires mid-scan, between two lanes of a block.
    "ndp-expiry": {"rate_pps": 6.0, "timeseries_interval": 4.0},
}
FAULTS = {
    "none": {},
    "route-set": {"rate_pps": 2000.0, "fault_schedule": FaultSchedule(
        seed=3, events=(
            FaultEvent(
                kind=ROUTE_SET, start=0.002, end=0.02, device="isp",
                prefix=str(MiniTopology.LAN_OK),
                next_hop=str(MiniTopology.WAN_VULN.address(0x1234)),
            ),
        ),
    )},
    "chaos": {"rate_pps": 2000.0, "fault_schedule": FaultSchedule(
        seed=42, events=(
            FaultEvent(kind=LOSS_BURST, start=0.0005, end=0.0015, rate=0.4),
            FaultEvent(kind=ROUTER_CRASH, start=0.002, end=0.003,
                       device="cpe-ok"),
        ),
    )},
    # Armed but never due: lanes replay under a pending transition.
    "idle": {"fault_schedule": FaultSchedule(
        seed=7, events=(
            FaultEvent(kind=LOSS_BURST, start=1e9, end=1e9 + 1.0, rate=1.0),
        ),
    )},
}
THRESHOLDS = {"never": NEVER, "always": ALWAYS, "default": None}

_oracle: dict = {}


def _reference(key, config):
    if key not in _oracle:
        _oracle[key] = observe(reference=True, **config)
    return _oracle[key]


class TestInvariance:
    """Every way of chunking and forwarding a scan reports the same scan."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        block_size=st.sampled_from([1, 3, 64, 256, 10_000]),
        threshold=st.sampled_from(sorted(THRESHOLDS)),
        copies=st.sampled_from([1, 2]),
        window=st.sampled_from(sorted(WINDOWS)),
        sampled=st.booleans(),
        mode=st.sampled_from(sorted(MODES)),
        faults=st.sampled_from(sorted(FAULTS)),
        world=st.sampled_from(sorted(WORLDS)),
    )
    def test_matches_the_reference_engine(
        self, block_size, threshold, copies, window, sampled, mode, faults,
        world,
    ):
        config = {
            "probes_per_target": copies,
            "timeseries_interval": 0.002 if sampled else 0.0,
            **WINDOWS[window], **MODES[mode], **FAULTS[faults],
            "world": world,
        }
        want = _reference((copies, window, sampled, mode, faults, world),
                          config)
        got = observe(block_size=block_size,
                      vector_min=THRESHOLDS[threshold], **config)
        assert got == want
        assert want["stats"]["sent"]

    def test_the_scan_produces_something_to_compare(self):
        want = observe(reference=True, timeseries_interval=0.002,
                       blocklist=BLOCKLIST, trace="sample:4")
        assert want["rows"] and want["traces"] and want["series"]["series"]
        assert want["stats"]["blocked"] > 0


class TestLoopWindow:
    """One place where the three ways a loop is burnt meet: the vector
    phase's exit, the scalar fast path's, and the reference walk."""

    @pytest.mark.parametrize("copies", [1, 5])
    def test_vector_exit_scalar_exit_and_reference_walk_agree(self, copies):
        config = dict(spec=LOOP_SPEC, probes_per_target=copies,
                      timeseries_interval=0.001)
        walk = observe(reference=True, **config)
        vector = observe(vector_min=ALWAYS, **config)
        scalar = observe(vector_min=NEVER, **config)
        # Rows, stats, merged metrics, series, traces and position.
        assert vector == walk
        assert scalar == walk
        (hops,) = [m for m in walk["metrics"]["metrics"]
                   if m["name"] == "probe_hops"]
        assert hops["count"] == 16 * copies == walk["position"] * copies
        assert hops["counts"][-1] == 15 * copies  # past 256 hops: the loops
        assert hops["sum"] == copies * (15 * 258 + 6)
        assert len(walk["rows"]) == 16 and walk["series"]["series"]


def _late_target():
    """The last target of the whole-window scan behind the healthy CPE."""
    topo = build_mini()
    scanner = Scanner(
        topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
        ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5),
    )
    return [target for target in scanner.targets()
            if MiniTopology.LAN_OK.contains(target)][-1]


LATE_TARGET = _late_target()
WAN_OK = MiniTopology.WAN_OK.address(0xDEADBEEF)
WAN_VULN = MiniTopology.WAN_VULN.address(0x1234)


def _swap(topo):  # a rotation step: each delegation moves to the other CPE
    topo.isp.delegate(MiniTopology.LAN_OK, WAN_VULN)
    topo.isp.delegate(MiniTopology.LAN_VULN, WAN_OK)


#: What can happen to the world between two chunks, by name.
EDITS = {
    "route-remove": lambda topo: topo.isp.table.remove(MiniTopology.LAN_OK),
    "route-add": lambda topo: topo.isp.delegate(MiniTopology.LAN_OK, WAN_OK),
    "transit-reroute": lambda topo: topo.core.table.add_blackhole(
        IPv6Prefix.from_string("2001:db8:1:68::/61")
    ),
    "rotation": _swap,
    # An address the scan has yet to probe starts answering.
    "bind": lambda topo: topo.network.bind(LATE_TARGET, topo.cpe_ok),
    # The way home changes: the ISP sends the vantage's replies into the
    # healthy CPE, whose default route sends them straight back.
    "home-loop": lambda topo: topo.isp.delegate(
        topo.vantage.primary_address.prefix(128), WAN_OK
    ),
}


class TestEditedBetweenPullAndChunk:
    """Lanes are computed at the pull and replayed chunks later; whatever
    moves the routes in between, the scan reports what the reference engine
    — which never looks ahead — reports."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        block_size=st.sampled_from([64, 256]),
        threshold=st.sampled_from(["always", "default"]),
        stride=st.sampled_from([7, 64, 100]),
        copies=st.sampled_from([1, 2]),
        sampled=st.booleans(),
        window=st.sampled_from(["whole", "blocklist", "heavy-blocklist"]),
        edits=st.lists(
            st.tuples(st.integers(min_value=1, max_value=240),
                      st.sampled_from(sorted(EDITS))),
            min_size=1, max_size=4, unique_by=lambda point: point[0],
        ),
    )
    def test_matches_the_reference_engine(
        self, block_size, threshold, stride, copies, sampled, window, edits
    ):
        config = {
            "probes_per_target": copies,
            "timeseries_interval": 0.002 if sampled else 0.0,
            **WINDOWS[window],
        }
        points = [(at, EDITS[name]) for at, name in edits]
        want = _reference(
            (copies, sampled, window, tuple(edits)),
            dict(config, hook=editing_hook(points, stride=1)),
        )
        got = observe(block_size=block_size,
                      vector_min=THRESHOLDS[threshold],
                      hook=editing_hook(points, stride), **config)
        assert got == want

    @pytest.mark.parametrize("name", sorted(EDITS))
    def test_every_edit_changes_the_scan_or_the_stamp(self, name):
        plain = observe(reference=True)
        topo = build_mini()
        generation = topo.network.generation
        edited = observe(reference=True,
                         hook=editing_hook([(40, EDITS[name])], stride=1))
        EDITS[name](topo)
        assert topo.network.generation != generation  # drop the lanes
        if name not in ("route-add", "transit-reroute"):  # no-ops at 40
            assert edited["rows"] != plain["rows"]

    @pytest.mark.skipif(columnar._np is None, reason="counts vector phases")
    def test_stale_lanes_are_reforwarded_not_replayed(self, monkeypatch):
        forwarded = []
        vector_phase = columnar._vector_phase

        def spy(network, fib, vantage, values, hop_limits):
            forwarded.append(len(values))
            return vector_phase(network, fib, vantage, values, hop_limits)

        monkeypatch.setattr(columnar, "_vector_phase", spy)
        points = [(100, EDITS["rotation"])]
        got = observe(hook=editing_hook(points, stride=64))
        # One block of 256, forwarded at the pull; the edit lands after 100
        # probes and the next chunk re-forwards the 156 that are left.
        assert forwarded == [256, 156]
        assert got == observe(reference=True,
                              hook=editing_hook(points, stride=1))
        # Fewer than the threshold left: the rest goes probe by probe.
        del forwarded[:]
        points = [(200, EDITS["rotation"])]
        got = observe(hook=editing_hook(points, stride=64))
        assert forwarded == [256]
        assert got == observe(reference=True,
                              hook=editing_hook(points, stride=1))

    def test_a_rotation_step_on_a_built_deployment(self):
        """``isp.rotation`` proper, mid-scan, on a Table II block."""
        key = "in-jio-broadband"

        def scan(reference: bool):
            world = build_deployment([profile_by_key(key)], scale=16000.0,
                                     seed=7)
            world.network.flow_cache = not reference
            rotate = editing_hook(
                [(300, lambda w: rotate_delegations(w, w.isps[key], 0.5,
                                                    seed=2))],
                stride=1 if reference else 64,
            )
            return observe(topo=world, spec=world.isps[key].scan_spec,
                           block_size=1 if reference else None, hook=rotate,
                           max_probes=700)

        want, got = scan(True), scan(False)
        assert got == want
        assert want["rows"]


class TestStraddledBlocks:
    def test_a_heavily_vetoed_chunk_draws_on_three_blocks(self, monkeypatch):
        drawn = []
        inject_block = columnar.inject_block

        def spy(network, block, vantage, clocks=None):
            drawn.append(len({id(lanes) for lanes, _ in block.runs}))
            return inject_block(network, block, vantage, clocks)

        monkeypatch.setattr(columnar, "inject_block", spy)
        got = observe(block_size=64, blocklist=HEAVY_BLOCKLIST)
        assert max(drawn) >= 3
        assert got == observe(reference=True, blocklist=HEAVY_BLOCKLIST)
        assert got["stats"]["blocked"] == 192 and got["rows"]


class TestHopBudgetOverrun:
    """``max_hops`` under the loop length: the lane that overran raises when
    its own chunk replays it — never at the pull, a block early."""

    @staticmethod
    def _run(stride, block_size=None, vector_min=None, **net):
        topo = build_mini(max_hops=30, **net)
        scanner = Scanner(
            topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
            # Seed 36 reaches its first looping target 46th.
            ScanConfig(scan_range=ScanRange.parse(SPEC), seed=36),
        )
        calls = []

        def hook(s):
            calls.append((s.result.stats.sent, s.position,
                          s.result.stats.validated))
            return s.result.stats.sent + stride

        scanner.on_progress = hook
        with engine(block_size, vector_min):
            with pytest.raises(NetworkError) as raised:
                scanner.run()
        stats = scanner.result.stats
        return (str(raised.value), calls, stats.sent, stats.validated,
                scanner.position, [r.to_dict() for r in scanner.result.results])

    @pytest.mark.parametrize("stride", [1, 5, 64, 1000])
    @pytest.mark.parametrize("block_size", [16, 256])
    def test_same_error_after_the_same_probes(self, stride, block_size):
        want = self._run(stride, block_size, flow_cache=False)
        assert "exceeded 30 hops" in want[0]
        # One target, then ``stride`` (a block at most) at a time: the
        # chunks before the one that holds the 46th target went out, each
        # seen by the hook.
        step = min(stride, block_size)
        assert want[2] == 1 + (44 // step) * step
        assert [call[0] for call in want[1]] == list(
            range(1, want[2] + 1, step)
        )
        assert self._run(stride, block_size) == want
        assert self._run(stride, block_size, ALWAYS) == want
        assert self._run(stride, block_size, NEVER) == want


class TestSelection:
    """Vector phase vs per-probe ``inject``: one constant, compared with the
    length of the *pulled block* — however its probes are cut into chunks."""

    @staticmethod
    def _vector_blocks(monkeypatch, **config):
        """Lane counts of the vector phases one scan entered, plus how
        often it asked for the compiled FIB at all."""
        entered, asked = [], []
        vector_phase, compiled = columnar._vector_phase, Network.columnar_fib

        def phase_spy(network, fib, vantage, values, hop_limits):
            entered.append(len(values))
            return vector_phase(network, fib, vantage, values, hop_limits)

        def fib_spy(network):
            asked.append(network.total_injected)
            return compiled(network)

        monkeypatch.setattr(columnar, "_vector_phase", phase_spy)
        monkeypatch.setattr(Network, "columnar_fib", fib_spy)
        observe(**config)
        return entered, asked

    def test_threshold_sits_between_the_measured_sides(self):
        assert 16 < columnar.VECTOR_MIN_PROBES <= 64

    @pytest.mark.parametrize("probes", [2, 4, 16, 31, 32])
    def test_burst_sized_shards_never_enter_the_vector_phase(
        self, monkeypatch, probes
    ):
        # admission_burst's shards are 2-32 probes: blocks under the
        # threshold, which never so much as ask for the FIB to be compiled.
        assert self._vector_blocks(monkeypatch, max_probes=probes) == ([], [])

    def test_a_64_target_block_enters_it_once_when_numpy_is_present(
        self, monkeypatch
    ):
        # sweep_periphery's chunks: a progress hook cuts 1 + 63 probes, then
        # 64 at a time (checkpoint_every=64) — the block is forwarded once,
        # however finely its probes are cut.
        for stride in (1, 16, 64):
            entered, _ = self._vector_blocks(
                monkeypatch, max_probes=64, hook=editing_hook([], stride)
            )
            assert entered == ([64] if columnar._np is not None else [])

    @pytest.mark.parametrize("config,blocks", [
        ({}, [64, 64, 64, 64]),
        ({"max_probes": 100}, [64]),  # 64 + a 36-target tail, under it
        ({"max_probes": 200, "probes_per_target": 2}, [64, 64, 64]),  # + 8
        ({"blocklist": HEAVY_BLOCKLIST}, [64, 64, 64, 64]),
        # The threshold counts probes: a target's copies ride one lane, so
        # 16 looping targets x 4 copies repay the phase and x 3 do not.
        ({"spec": "2001:db8:1:60::/60-64", "probes_per_target": 4}, [16]),
        ({"spec": "2001:db8:1:60::/60-64", "probes_per_target": 3}, []),
    ])
    def test_one_vector_phase_per_pulled_block_of_64_or_more(
        self, monkeypatch, config, blocks
    ):
        entered, _ = self._vector_blocks(
            monkeypatch, block_size=64, hook=editing_hook([], 10), **config
        )
        assert entered == (blocks if columnar._np is not None else [])

    def test_reference_engine_never_enters_it(self, monkeypatch):
        entered = []
        monkeypatch.setattr(Network, "columnar_fib",
                            lambda network: entered.append(1))
        topo = build_mini(flow_cache=False)
        observe(topo=topo, block_size=256, vector_min=ALWAYS)
        assert entered == []
        assert topo.network.flow_hits == topo.network.flow_misses == 0


class TestCountedWork:
    """What a scan may do per probe, counted — not timed — on a Table II
    block cut the way the engine's ``checkpoint_every=64`` hook cuts it."""

    #: One block at ``BLOCK_SIZE`` 1024; at 256, two blocks and a tail
    #: under the threshold — the expectations below follow the constants.
    PROBES = 2 * 256 + 40

    def _blocks(self):
        """The target blocks ``Scanner._pull`` cuts the window into."""
        blocks, left = [], self.PROBES
        while left:
            blocks.append(min(scanner_module.BLOCK_SIZE, left))
            left -= blocks[-1]
        return blocks

    def _census(self, monkeypatch):
        from repro.core.probes.icmp import IcmpEchoProbe
        from repro.net.device import Device

        key = "in-jio-broadband"
        world = build_deployment([profile_by_key(key)], scale=16000.0, seed=7)
        scanner = Scanner(
            world.network, world.vantage, ProbeSpec.for_seed(5).build(),
            ScanConfig(scan_range=ScanRange.parse(world.isps[key].scan_spec),
                       seed=5, max_probes=self.PROBES),
        )
        # The worker's hook: control at every multiple of 64 probes.
        scanner.on_progress = lambda s: (s.result.stats.sent // 64 + 1) * 64
        seen = {"builds": 0, "injects": 0, "traces": 0, "phases": [],
                "chunks": [], "ejected": 0, "rows": 0, "flow_entries": 0,
                "drains": 0, "replayed": 0, "classify": 0, "make_error": 0,
                "with_hop_limit": 0, "results": 0, "settled": 0, "busy": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                seen[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(IcmpEchoProbe, "build", "builds")
        counting(IcmpEchoProbe, "classify", "classify")
        counting(Device, "_make_error", "make_error")
        counting(Packet, "with_hop_limit", "with_hop_limit")
        counting(ProbeResult, "__init__", "results")
        counting(Network, "inject", "injects")
        counting(Network, "_drain", "drains")
        counting(Device, "flow_entry", "flow_entries")
        counting(DeliveryTrace, "__init__", "traces")
        counting(columnar._Chunk, "settle", "settled")
        vector_phase, inject_block = (columnar._vector_phase,
                                      columnar.inject_block)

        def phase_spy(network, fib, vantage, values, hop_limits):
            seen["phases"].append(len(values))
            columns = vector_phase(network, fib, vantage, values, hop_limits)
            # Delivery and forwarding-hook ejections: the lanes whose
            # replay re-enters the scalar engine's drain.
            seen["replayed"] += int((columns[0] == columnar._EJECT).sum())
            # The lanes whose replay needs state: every one not silent.
            seen["busy"] += int((columns[0] != columnar._SILENT).sum())
            return columns

        def block_spy(network, block, vantage, clocks=None):
            outcomes = inject_block(network, block, vantage, clocks)
            seen["chunks"].append(len(block))
            seen["ejected"] += len(outcomes.ejected)
            seen["rows"] += len(outcomes.rows)
            return outcomes

        monkeypatch.setattr(columnar, "_vector_phase", phase_spy)
        monkeypatch.setattr(columnar, "inject_block", block_spy)
        result = scanner.run()
        assert result.stats.sent == self.PROBES
        assert scanner.metrics.histogram(
            "probe_hops", bounds=HOP_BUCKETS).count == self.PROBES
        return seen, result

    def test_packets_exist_only_for_probes_something_stateful_looks_at(
        self, monkeypatch
    ):
        seen, result = self._census(monkeypatch)
        assert seen["chunks"] == [1, 63] + [64] * 7 + [40]
        # An ``inject`` result — packet, DeliveryTrace — exists per probe
        # the scalar engine finished, and for no other.
        assert seen["builds"] == seen["traces"] == seen["ejected"]
        assert result.stats.received <= seen["ejected"] + seen["rows"]
        if columnar._np is None:
            assert seen["phases"] == [] and seen["rows"] == 0
            assert seen["injects"] == seen["ejected"] == self.PROBES
            return
        # One vector phase per pulled block, not per chunk; whole
        # injections only for a block under the threshold; four probes in
        # five on a periphery block die silently and cost no object.
        blocks = self._blocks()
        under = [n for n in blocks if n < columnar.VECTOR_MIN_PROBES]
        assert seen["phases"] == [
            n for n in blocks if n >= columnar.VECTOR_MIN_PROBES
        ]
        assert seen["injects"] == sum(under)
        assert seen["ejected"] + seen["rows"] < self.PROBES // 3
        # An error lane is settled from its vector-phase verdict: no flow
        # cache lookup, and the drain only for delivery and hook lanes (and
        # inside whole injections).
        assert seen["drains"] == seen["replayed"] + seen["injects"]
        assert seen["rows"] > seen["ejected"]
        # The replay's per-lane step runs once per forwarded lane that is
        # not silent, and for no silent one.
        assert seen["settled"] == seen["busy"] > 0
        if not under:
            assert seen["flow_entries"] == 0

    def test_error_lanes_settled_home_make_no_objects(self, monkeypatch):
        """An error lane whose error goes home by a return plan is a row
        from the replay to the result: no probe built or classified, no
        error made or copied, no ``ProbeResult``."""
        seen, result = self._census(monkeypatch)
        if columnar._np is None:
            pytest.skip("without numpy no block is forwarded as lanes")
        assert seen["ejected"] == seen["injects"] == 0  # no delivery lane
        assert seen["rows"] == result.stats.received > 0
        for call in ("builds", "classify", "make_error", "with_hop_limit",
                     "results", "traces"):
            assert seen[call] == 0, call

    @pytest.mark.parametrize("window,passes", [
        ("2001:db8:1::/54-64", 2),  # 64 host bits: one IID hash + the tag
        ("2001:db8::/50-60", 3),  # 68 host bits: two IID hashes + the tag
    ])
    def test_a_sweep_pulls_its_targets_as_words(
        self, monkeypatch, window, passes
    ):
        """A 1,024-target sweep's pull path — derive, tag, forward — makes
        no :class:`IPv6Addr`, and hashes each block in one kernel call per
        pass over its words."""
        topo = build_mini()
        scanner = Scanner(
            topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
            ScanConfig(scan_range=ScanRange.parse(window), seed=5),
        )
        blocks = -(-scanner.config.scan_range.count
                   // scanner_module.BLOCK_SIZE)
        topo.network.columnar_fib()  # compiled outside the count
        made, kernel = [], []
        post_init = IPv6Addr.__post_init__
        words_block = SipKey.hash_words_block

        def counted_addr(address):
            made.append(address.value)
            post_init(address)

        def counted_kernel(key, lo, hi, *suffix):
            kernel.append(len(lo))
            return words_block(key, lo, hi, *suffix)

        monkeypatch.setattr(IPv6Addr, "__post_init__", counted_addr)
        monkeypatch.setattr(SipKey, "hash_words_block", counted_kernel)
        runs = scanner._pull().take(2048)
        pulled = [lanes.values[lane] for lanes, run in runs for lane in run]
        assert len(pulled) == 1024 and made == []
        if siphash._np is None:
            assert kernel == []
            return
        assert len(kernel) == passes * blocks
        assert sum(kernel) == passes * 1024
        # The stream still reads as the scalar oracle's addresses.
        monkeypatch.undo()
        assert list(scanner.targets()) == [IPv6Addr(value) for value in pulled]


#: ``(sent, position, blocked, vetoes of 2001:db8:1::/58, vetoes of
#: 2001:db8:1:80::/57)`` at every ``on_progress`` call of a
#: ``HEAVY_BLOCKLIST`` scan, and ``(position, blocked)`` at its end, by
#: (hook stride, block size, copies) — recorded from the parent commit,
#: whose pull handed its targets out one at a time.
GOLDEN_VETOES = {
    (5, 64, 1): ([
        (1, 1, 0, 0, 0), (6, 24, 18, 6, 12), (11, 50, 39, 13, 26),
        (16, 65, 49, 14, 35), (21, 94, 73, 22, 51), (26, 113, 87, 28, 59),
        (31, 136, 105, 31, 74), (36, 153, 117, 36, 81),
        (41, 168, 127, 40, 87), (46, 188, 142, 45, 97),
        (51, 201, 150, 47, 103), (56, 219, 163, 53, 110),
        (61, 244, 183, 59, 124), (64, 256, 192, 64, 128),
    ], (256, 192)),
    (40, 64, 1): ([
        (1, 1, 0, 0, 0), (41, 168, 127, 40, 87), (64, 256, 192, 64, 128),
    ], (256, 192)),
    (6, 32, 2): ([
        (2, 1, 0, 0, 0), (8, 17, 13, 4, 9), (14, 30, 23, 7, 16),
        (20, 48, 38, 12, 26), (26, 54, 41, 13, 28), (32, 65, 49, 14, 35),
        (38, 77, 58, 17, 41), (44, 96, 74, 22, 52), (50, 109, 84, 27, 57),
        (56, 117, 89, 28, 61), (62, 136, 105, 31, 74),
        (68, 142, 108, 33, 75), (74, 155, 118, 36, 82),
        (80, 167, 127, 40, 87), (86, 175, 132, 42, 90),
        (92, 188, 142, 45, 97), (98, 195, 146, 47, 99),
        (104, 203, 151, 48, 103), (110, 213, 158, 49, 109),
        (116, 225, 167, 54, 113), (122, 244, 183, 59, 124),
        (128, 256, 192, 64, 128),
    ], (256, 192)),
}

#: Shapes a chunk's runs take, by name: a sampler pulls a target at a time
#: (one run per block, joined), copies repeat each lane, vetoes make a run
#: an index column.
RUN_SHAPES = {
    "plain": {},
    "sampled": {"timeseries_interval": 0.002},
    "two-copies": {"probes_per_target": 2},
    "three-copies": {"probes_per_target": 3},
    "heavy-blocklist": {"blocklist": HEAVY_BLOCKLIST},
}


def _recording(bind, log):
    """``bind`` (an :func:`editing_hook`) whose hook first logs, by
    ``sent``, the hop histogram and the pacer's wait histogram as a reader
    sees them at that call: counts, count, sum and last-value memo."""

    def wrapped(topo):
        hook = bind(topo)

        def record(scanner):
            log[scanner.result.stats.sent] = [
                (h.counts[:], h.count, h.sum, h._last)
                for h in (
                    scanner.metrics.histogram("probe_hops",
                                              bounds=HOP_BUCKETS),
                    scanner.metrics.histogram("pacer_wait_virtual_seconds",
                                              bounds=WAIT_BUCKETS),
                )
            ]
            return hook(scanner)

        return record

    return wrapped


class TestLaneRuns:
    """A chunk is runs of lanes from the pull to the histogram; however the
    runs are cut, they replay as the sequential oracle."""

    def _matches(self, config, edits, every):
        """The scan cut every ``every`` probes (and at ``edits``) observes
        what the reference engine does, and its histograms read as the
        reference's at every hook call."""
        logged: dict = {}
        want = observe(reference=True,
                       hook=_recording(editing_hook(edits, 1), logged),
                       **config)
        for threshold in ("always", "default"):
            seen: dict = {}
            got = observe(vector_min=THRESHOLDS[threshold],
                          hook=_recording(editing_hook(edits, every), seen),
                          **config)
            assert got == want, threshold
            assert seen and {sent: logged[sent] for sent in seen} == seen
        assert want["rows"]

    # Cadences 1 and 7 cut on, just before and just after busy lanes.
    @pytest.mark.parametrize("shape", sorted(RUN_SHAPES))
    @pytest.mark.parametrize("every", [1, 7, 64, 512])
    def test_runs_cut_by_the_checkpoint_cadence_match_the_oracle(
        self, shape, every
    ):
        self._matches(RUN_SHAPES[shape], [], every)

    @pytest.mark.parametrize("shape", ["plain", "two-copies",
                                       "heavy-blocklist"])
    @pytest.mark.parametrize("every", [1, 7, 64])
    def test_a_route_edit_mid_block_reforwards_its_busy_index(
        self, monkeypatch, shape, every
    ):
        """Routes edited after a block's busy index was built: what is left
        of the block is forwarded, and indexed, afresh."""
        forwarded = []
        vector_phase = columnar._vector_phase

        def spy(network, fib, vantage, values, hop_limits):
            forwarded.append(len(values))
            return vector_phase(network, fib, vantage, values, hop_limits)

        monkeypatch.setattr(columnar, "_vector_phase", spy)
        self._matches(RUN_SHAPES[shape], [(37, EDITS["rotation"]),
                                          (90, EDITS["route-remove"])], every)
        if columnar._np is not None:
            # Each of the two fast scans forwards at the pull and again
            # after at least one of the edits.
            assert len(forwarded) >= 4

    @pytest.mark.parametrize("stride,block_size,copies", sorted(GOLDEN_VETOES))
    def test_position_and_vetoes_at_every_hook_equal_the_parent(
        self, stride, block_size, copies
    ):
        topo = build_mini()
        scanner = Scanner(
            topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
            ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5,
                       blocklist=HEAVY_BLOCKLIST, probes_per_target=copies),
        )
        seen = []

        def hook(s):
            vetoes = {m["labels"]["rule"]: m["value"]
                      for m in s.metrics.to_dict()["metrics"]
                      if m["name"] == "scanner_blocklist_vetoes"}
            seen.append((s.result.stats.sent, s.position, s.blocked_count,
                         vetoes.get("2001:db8:1::/58", 0),
                         vetoes.get("2001:db8:1:80::/57", 0)))
            return s.result.stats.sent + stride

        scanner.on_progress = hook
        with engine(block_size=block_size):
            scanner.run()
        calls, end = GOLDEN_VETOES[stride, block_size, copies]
        assert seen == calls
        assert (scanner.position, scanner.blocked_count) == end

    def test_a_loop_chunk_whose_error_bucket_runs_dry(self):
        """Sixteen copies of each looping target at a megaprobe a second,
        one chunk: the looping CPE, where every loop runs out of hop limit,
        has its error bucket (100) run dry in the middle of the chunk, and
        every suppressed error, token and refill instant is the sequential
        walk's."""
        config = dict(spec=LOOP_SPEC, probes_per_target=16, rate_pps=1e6)
        want = observe(reference=True, **config)
        got = observe(vector_min=ALWAYS, **config)
        assert got == want
        dry = {name: suppressed
               for name, *_, tokens, _last, suppressed, _bounces
               in want["devices"] if suppressed}
        assert set(dry) == {"cpe-vuln"} and dry["cpe-vuln"] > 100, dry
        assert want["rows"]


class _Stop(Exception):
    pass


class TestInterruptedScan:
    """Whatever ends the loop, the scan detaches what it attached."""

    def test_interrupt_finishes_and_detaches_the_sampler(self):
        topo = build_mini()
        schedule = FAULTS["route-set"]["fault_schedule"]
        scanner = Scanner(
            topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
            ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5,
                       rate_pps=2000.0, timeseries_interval=0.002,
                       fault_schedule=schedule),
        )

        def stop_at_40(s):
            if s.result.stats.sent >= 40:
                raise _Stop
            return 40

        scanner.on_progress = stop_at_40
        with pytest.raises(_Stop):
            scanner.run()
        sampler = scanner.sampler
        assert scanner.pacer.sampler is None  # the pacer is disarmed
        assert sampler.boundary == float("inf")  # finish() ran
        # ...and flushed the closing bucket: the series accounts for every
        # probe sent before the interrupt.
        sent = sampler.series.named("scanner_probes_sent")
        assert sum(sent.values()) == scanner.result.stats.sent == 40
        assert topo.network.faults is None  # the injector was restored
        assert topo.network.flow_cache is True


#: ``checkpoint_written`` (position, status) per shard of the 2-shard mini
#: campaign below, captured from the parent commit (three loops, hook after
#: every target) for each ``checkpoint_every``.
GOLDEN_CADENCE = {
    ("plain", 16): (
        [(p, "partial") for p in range(16, 129, 16)] + [(128, "done")],
    ) * 2,
    ("plain", 64): ([(64, "partial"), (128, "partial"), (128, "done")],) * 2,
    ("plain", 512): ([(128, "done")],) * 2,
    ("blocklist", 16): (
        [(19, "partial"), (36, "partial"), (53, "partial"), (72, "partial"),
         (89, "partial"), (107, "partial"), (128, "partial"), (128, "done")],
        [(17, "partial"), (37, "partial"), (54, "partial"), (71, "partial"),
         (88, "partial"), (104, "partial"), (120, "partial"), (128, "done")],
    ),
    ("blocklist", 64): (
        [(72, "partial"), (128, "done")],
        [(71, "partial"), (128, "done")],
    ),
    ("blocklist", 512): ([(128, "done")],) * 2,
    ("two-copies", 16): (
        [(p, "partial") for p in range(8, 129, 8)] + [(128, "done")],
    ) * 2,
    ("two-copies", 64): (
        [(p, "partial") for p in range(32, 129, 32)] + [(128, "done")],
    ) * 2,
    ("two-copies", 512): ([(128, "done")],) * 2,
}
CADENCE_CONFIGS = {
    "plain": {},
    "blocklist": {"blocklist": BLOCKLIST},
    "two-copies": {"probes_per_target": 2},
}


class TestCadence:
    """Checkpoint cadence is behaviour: same count, same positions."""

    @pytest.mark.parametrize("shape,every", sorted(GOLDEN_CADENCE))
    def test_checkpoint_positions_equal_the_parent_commit(
        self, tmp_path, shape, every
    ):
        campaign = Campaign(
            TopologySpec.mini(),
            {"wide": ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5,
                                **CADENCE_CONFIGS[shape])},
            probe=ProbeSpec.for_seed(5), shards=2,
            checkpoint_dir=str(tmp_path / "ck"), checkpoint_every=every,
        )
        events = campaign.run().events.of_type("checkpoint_written")
        for shard, golden in enumerate(GOLDEN_CADENCE[shape, every]):
            job_id = f"wide.s{shard:02d}of02"
            written = [(e["position"], e["status"]) for e in events
                       if e["job_id"] == job_id]
            assert written == golden, job_id

    def test_hook_sees_exact_state_at_every_chunk_end(self):
        """``position`` / ``blocked`` at a mid-block chunk end describe the
        probes sent so far, not the block the targets came from."""
        seen = {}

        def record(stride):
            calls = seen[stride] = []

            def hook(s):
                stats = s.result.stats
                calls.append((stats.sent, s.position, stats.blocked,
                              stats.validated, len(s.result.results)))
                return stats.sent + stride

            return hook

        for stride in (1, 7):
            topo = build_mini()
            scanner = Scanner(
                topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
                ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5,
                           blocklist=BLOCKLIST),
            )
            scanner.on_progress = record(stride)
            scanner.run()
        every_target = {call[0]: call for call in seen[1]}
        assert len(seen[1]) == 256 - seen[1][-1][2]  # one call per target
        assert seen[7][-1] == seen[1][-1]
        for call in seen[7]:
            assert call == every_target[call[0]]
        assert any(call[2] for call in seen[7][:-1])  # vetoes mid-block
