"""The one send pipeline: invariance, engine selection, cadence, cleanup.

``Scanner.run`` is a single chunked loop; which forwarding engine a chunk
takes is decided inside ``Network.inject_block`` from what it can observe.
Nothing a scan reports may depend on how it was chunked or forwarded, so
one generated matrix compares every configuration to the reference engine
(``Network(flow_cache=False)``, one target per chunk) on ordered rows,
stats, metrics, series and traces.  The rest pins what the merge of the
three old loops must not have changed: where chunks are cut for the
progress hook (checkpoint cadence), which side of the size threshold the
benchmark's shard shapes fall on, and what an interrupted scan leaves
behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocklist import Blocklist
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine import Campaign, ProbeSpec
from repro.faults import (
    LOSS_BURST,
    ROUTE_SET,
    ROUTER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.net import columnar
from repro.net.network import Network
from repro.net.spec import TopologySpec
from repro.net.testbed import MiniTopology
from tests.pipeline import ALWAYS, NEVER, SPEC, observe
from tests.topo import build_mini

BLOCKLIST = Blocklist(blocked=["2001:db8:1:60::/60", "2001:db8:1:a0::/61"])

WINDOWS = {
    "whole": {},
    "blocklist": {"blocklist": BLOCKLIST},
    "skip+cap": {"blocklist": BLOCKLIST, "skip": 17, "max_probes": 100},
    "cap": {"max_probes": 33},
}
MODES = {
    "plain": {},
    "wire": {"wire_mode": True},
    "trace": {"trace": "sample:4"},
    "retransmit": {"retransmit": 2, "retransmit_backoff": 0.0002},
    "adaptive": {"adaptive_rate": True, "adaptive_window": 4},
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
    )
    def test_matches_the_reference_engine(
        self, block_size, threshold, copies, window, sampled, mode, faults
    ):
        config = {
            "probes_per_target": copies,
            "timeseries_interval": 0.002 if sampled else 0.0,
            **WINDOWS[window], **MODES[mode], **FAULTS[faults],
        }
        want = _reference((copies, window, sampled, mode, faults), config)
        got = observe(block_size=block_size,
                      vector_min=THRESHOLDS[threshold], **config)
        assert got == want
        assert want["stats"]["sent"]

    def test_the_scan_produces_something_to_compare(self):
        want = observe(reference=True, timeseries_interval=0.002,
                       blocklist=BLOCKLIST, trace="sample:4")
        assert want["rows"] and want["traces"] and want["series"]["series"]
        assert want["stats"]["blocked"] > 0


class TestSelection:
    """Vector phase vs per-probe ``inject``: one constant, both sides."""

    @staticmethod
    def _vector_blocks(monkeypatch, **config):
        """Chunk lengths that entered the vector phase during one scan."""
        entered = []
        compiled = Network.columnar_fib  # only the vector phase asks for it

        def spy(network):
            entered.append(network.total_injected)
            return compiled(network)

        monkeypatch.setattr(Network, "columnar_fib", spy)
        observe(**config)
        return entered

    def test_threshold_sits_between_the_measured_sides(self):
        assert 16 < columnar.VECTOR_MIN_PROBES <= 64

    @pytest.mark.parametrize("probes", [2, 4, 16, 31, 32])
    def test_burst_sized_shards_never_enter_the_vector_phase(
        self, monkeypatch, probes
    ):
        # admission_burst's shards are 2-32 probes, each its own chunk.
        assert self._vector_blocks(monkeypatch, max_probes=probes) == []

    def test_a_64_probe_chunk_enters_it_when_numpy_is_present(
        self, monkeypatch
    ):
        # sweep_periphery's chunks: checkpoint_every=64 cuts 64-probe chunks.
        entered = self._vector_blocks(monkeypatch, max_probes=64)
        assert entered == ([0] if columnar._np is not None else [])

    def test_reference_engine_never_enters_it(self, monkeypatch):
        entered = []
        monkeypatch.setattr(Network, "columnar_fib",
                            lambda network: entered.append(1))
        topo = build_mini(flow_cache=False)
        observe(topo=topo, block_size=256, vector_min=ALWAYS)
        assert entered == []
        assert topo.network.flow_hits == topo.network.flow_misses == 0


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
