"""Fresh ≡ restored, and the rules of the pool that relies on it.

``TopologySpec.checkout`` hands a scan a world some earlier scan already
used, with its scan state put back by ``Network.restore``.  That is only
sound if the restored world is *indistinguishable* from a fresh build, so
the fresh build is the oracle throughout:

* a census by reflection — every attribute reachable from ``vars(network)``
  and each ``vars(device)`` of a scanned-then-restored world equals the
  never-scanned twin's, so a per-scan field added later without a reset
  fails here and not in a digest three changes on;
* the same answers — ``tests/pipeline.observe`` on a restored network
  equals ``observe`` on a fresh one across windows, modes and engine
  thresholds, on the fast and the reference engine, and for generated
  scan histories;
* campaigns — cold pool, warm pool and emptied pool give one digest, one
  set of merged stats and one checkpoint sequence on every executor.

The second half counts what the pool does (builds, overlaps, drops, idle
devices) rather than timing it.
"""

from __future__ import annotations

import enum
import json
import random
import re
import sys
import threading
from typing import Dict, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.net.spec as spec_module
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine import (
    Campaign,
    ProbeSpec,
    ShardPlanner,
    WorkerInterrupted,
    execute_job,
)
from repro.engine.executor import ProcessPoolBackend
from repro.faults import (
    LOSS_BURST,
    ROUTE_SET,
    ROUTER_CRASH,
    FaultEvent,
    FaultSchedule,
)
from repro.net.addr import IPv6Prefix
from repro.net.device import Device
from repro.net.network import Network, NetworkError
from repro.net.spec import BuiltTopology, TopologySpec
from repro.net.testbed import MiniTopology
from repro.service import CampaignSpec
from tests.pipeline import ALWAYS, SPEC, build_world, observables, observe
from tests.test_pipeline import MODES, WINDOWS
from tests.topo import build_mini


@pytest.fixture(autouse=True)
def empty_pool():
    """Every test meets — and leaves — a pool with nothing idle in it."""
    spec_module._POOL.drop()
    yield
    spec_module._POOL.drop()


@pytest.fixture
def builds(monkeypatch):
    """The specs ``TopologySpec.build`` was called on, in order."""
    built = []
    build = TopologySpec.build

    def counted(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(TopologySpec, "build", counted)
    return built


def scan(built: BuiltTopology, probe: ProbeSpec, window: str = SPEC,
         **config) -> Dict[str, object]:
    """One scan of ``window`` on ``built``; everything it promises."""
    config.setdefault("seed", 5)
    scanner = Scanner(
        built.network, built.vantage, probe.build(),
        ScanConfig(scan_range=ScanRange.parse(window), **config),
    )
    return observables(scanner, scanner.run())


# -- (i) the census ------------------------------------------------------------


def _mini_world() -> BuiltTopology:
    """``build_mini`` as the engine consumes it."""
    topo = build_mini()
    return BuiltTopology(topo.network, topo.vantage, topo)


def _bounce_limited_mini() -> BuiltTopology:
    """``mini`` whose vulnerable CPE stops a loop after ten bounces.

    No ``TopologySpec`` kind builds such a CPE (only the Table XII bench
    does), and it is the only device whose forwarding keeps a counter.
    """
    topo = build_world("bounce-limited")
    return BuiltTopology(topo.network, topo.vantage, topo)


def _window(built: BuiltTopology) -> str:
    handle = built.handle
    if isinstance(handle, MiniTopology):
        return SPEC
    if getattr(handle, "edges", None):
        return handle.edges[0].scan_spec
    (block,) = handle.isps.values()
    return block.scan_spec


#: name -> a way to build that world afresh, any number of times.
WORLDS = {
    "mini": TopologySpec.mini().build,
    # Every hop draws from ``network.rng``.
    "mini-lossy": TopologySpec.mini(loss_rate=0.05).build,
    "mini-bounce-limited": _bounce_limited_mini,
    "loop-dense": TopologySpec.deployment(
        profiles=["cn-unicom-broadband"], scale=32000.0, seed=7).build,
    "mobile": TopologySpec.deployment(
        profiles=["cn-mobile-mobile"], scale=64000.0, seed=7).build,
    "leak-demo": TopologySpec.leak_demo(seed=7).build,
}

#: (class, attribute) the census leaves out.  ``_columnar_fib`` is the
#: compiled half of the artifact: the scanned twin's vector phase asked
#: for it and the fresh twin never did.  (Identities are left out by
#: construction: a device met as a value is recorded by name.)
NOT_COMPARED = {("Network", "_columnar_fib")}

#: Everything ``Network.restore`` and ``Device.reset_scan_state`` put back.
SCAN_STATE = {
    "network.clock", "network.rng", "network.link_loss", "network.fault_rng",
    "network.fault_drops", "network.total_hops", "network.total_injected",
    "network.flow_hits", "network.flow_misses", "network.active_trace",
    "device.error_limiter._tokens", "device.error_limiter._last",
    "device.errors_suppressed", "device.neighbor_cache._entries",
    "device.neighbor_cache.hits", "device.neighbor_cache.misses",
    "device.neighbor_cache.solicitations", "device._flow_cache",
    "device._flow_stamp", "device._loop_bounces",
}

_ATOMS = (type(None), bool, int, float, str, bytes, enum.Enum)


def census(network: Network) -> Dict[str, object]:
    """``{path: value}`` over everything reachable from ``vars(network)``
    and every ``vars(device)``, containers and objects walked through."""
    flat: Dict[str, object] = {}
    trail = set()

    def walk(path: str, value: object, root: bool = False) -> None:
        if isinstance(value, _ATOMS):
            flat[path] = value
        elif isinstance(value, random.Random):
            flat[path] = value.getstate()
        elif isinstance(value, Device) and not root:
            flat[path] = f"<device {value.name}>"
        elif isinstance(value, (set, frozenset)):
            flat[path] = sorted(map(repr, value))
        else:
            assert id(value) not in trail, f"cycle at {path}"
            trail.add(id(value))
            if isinstance(value, dict):
                flat[path] = f"<dict of {len(value)}>"
                for key, item in value.items():
                    walk(f"{path}[{key!r}]", item)
            elif isinstance(value, (list, tuple)):
                flat[path] = f"<sequence of {len(value)}>"
                for index, item in enumerate(value):
                    walk(f"{path}[{index}]", item)
            else:
                kind = type(value).__name__
                flat[path] = f"<{kind}>"
                names = [
                    name for cls in type(value).__mro__
                    for name in getattr(cls, "__slots__", ())
                ] + list(getattr(value, "__dict__", ()))
                for name in names:
                    if (kind, name) not in NOT_COMPARED:
                        walk(f"{path}.{name}", getattr(value, name))
            trail.discard(id(value))

    walk("network", network, root=True)
    for name, device in network.devices.items():
        walk(f"device[{name!r}]", device, root=True)
    return flat


def differing(a: Dict[str, object], b: Dict[str, object]) -> set:
    missing = object()
    return {
        path for path in a.keys() | b.keys()
        if a.get(path, missing) != b.get(path, missing)
    }


def exercise(built: BuiltTopology) -> None:
    """Write every kind of scan state there is onto ``built``."""
    network, window = built.network, _window(built)
    icmp = ProbeSpec.for_seed(5)  # echo at hop limit 255: the loops
    scan(built, icmp, window, max_probes=192)
    scan(built, ProbeSpec.for_seed(5, kind="tcp", port=80), window,
         max_probes=96)
    scan(built, ProbeSpec.for_seed(5, kind="udp", port=9), window,
         max_probes=96)  # a closed port
    if isinstance(built.handle, MiniTopology):
        # 128 probes at one CPE: its error bucket runs dry.
        scan(built, icmp, f"{MiniTopology.LAN_OK}-64", probes_per_target=8)
    # A SYN to an open port: the SYN-ACK's ISN is drawn from network.rng.
    # (Window scans aim at random IIDs and never reach a listener.)
    listener = next(
        (d for _, d in sorted(network.devices.items()) if d.tcp_services),
        None,
    )
    if listener is not None:
        syn = ProbeSpec.for_seed(5, kind="tcp",
                                 port=min(listener.tcp_services)).build()
        inbox, _ = network.inject(
            syn.build(built.vantage.primary_address,
                      listener.primary_address),
            built.vantage,
        )
        assert inbox
    scan(built, icmp, window, max_probes=96, fault_schedule=FaultSchedule(
        seed=3, events=(
            FaultEvent(kind=LOSS_BURST, start=0.0, end=60.0, rate=0.3),
        ),
    ))
    # What a scan killed inside a fault window, mid-probe, leaves behind.
    network.link_loss[None] = 0.5
    network.active_trace = object()  # type: ignore[assignment]


def _twins(world: str, reference: bool):
    """Two builds of one world, sealed alike; the second one scanned."""
    fresh, used = WORLDS[world](), WORLDS[world]()
    for built in (fresh, used):
        built.network.flow_cache = built.network.flow_cache and not reference
        built.network.seal()
    exercise(used)
    return fresh, used


class TestCensus:
    @pytest.mark.parametrize("reference", [False, True],
                             ids=["fast", "reference"])
    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_a_restored_world_is_the_fresh_one_attribute_for_attribute(
        self, world, reference
    ):
        fresh, used = _twins(world, reference)
        assert differing(census(fresh.network), census(used.network))
        assert used.network.restore()
        assert differing(
            census(fresh.network), census(used.network)
        ) == set()

    def test_the_scans_write_exactly_the_listed_scan_state(self):
        """Every field ``restore()`` puts back gets written by the census's
        scans — so deleting a reset line cannot pass unnoticed — and
        nothing else does: the artifact half really is read-only."""
        written = set()
        for world in WORLDS:
            fresh, used = _twins(world, reference=False)
            for path in differing(census(fresh.network),
                                  census(used.network)):
                path = re.sub(r"\[[^\]]*\]", "", path)  # drop subscripts
                written.add(next(
                    (field for field in SCAN_STATE
                     if path == field or path.startswith(field + ".")),
                    path,
                ))
        assert written == SCAN_STATE


# -- (ii), (iii) the same answers ----------------------------------------------

#: (window, mode, vector threshold): a reduced tests/test_pipeline.py matrix.
CELLS = [
    (window, mode, threshold)
    for window in ("whole", "skip+cap")
    for mode in sorted(MODES)
    for threshold in (ALWAYS, None)
]


def _cell_config(cell) -> Dict[str, object]:
    window, mode, threshold = cell
    return {
        "timeseries_interval": 0.002, "vector_min": threshold,
        **WINDOWS[window], **MODES[mode],
    }


class TestSameAnswers:
    @pytest.mark.parametrize("reference", [False, True],
                             ids=["fast", "reference"])
    @pytest.mark.parametrize("index", range(len(CELLS)))
    def test_observe_after_another_cell_and_a_restore_equals_observe_fresh(
        self, index, reference
    ):
        config = _cell_config(CELLS[index])
        other = _cell_config(CELLS[(index + 7) % len(CELLS)])
        topo = build_mini(flow_cache=not reference)
        topo.network.seal()
        observe(reference=reference, topo=topo, **other)
        assert topo.network.restore()
        got = observe(reference=reference, topo=topo, **config)
        assert got == observe(reference=reference, **config)
        assert got["rows"] and got["series"]["series"]
        assert got["stats"]["virtual_start"] == 0.0

    _SCANS = st.tuples(
        # The last window is one CPE's delegation: eight copies a target
        # (below) drain its error bucket, so a bucket left drained shows.
        st.sampled_from([SPEC, "2001:db8:2::/56-64", "2001:db8:0::/60-64",
                         f"{MiniTopology.LAN_OK}-64"]),
        st.sampled_from([255, 64, 3, 2]),
        st.sampled_from(["icmp", "tcp", "udp"]),
        st.sampled_from([25_000.0, 1_000.0, 40.0]),
        st.sampled_from([1, 8]),
    )

    _DRAIN = (f"{MiniTopology.LAN_OK}-64", 255, "icmp", 25_000.0, 8)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(last=_SCANS, history=st.lists(_SCANS, max_size=3))
    @example(last=_DRAIN, history=[_DRAIN])  # twice dry, from full each time
    def test_rows_and_stats_do_not_depend_on_what_was_scanned_before(
        self, last, history
    ):
        def run(built, window, hop_limit, kind, rate, copies):
            probe = ProbeSpec.for_seed(5, kind=kind, hop_limit=hop_limit,
                                       port=80)
            return scan(built, probe, window, rate_pps=rate, max_probes=128,
                        probes_per_target=copies)

        used = TopologySpec.mini().build()
        used.network.seal()
        for earlier in history:
            run(used, *earlier)
            assert used.network.restore()
        got = run(used, *last)
        want = run(TopologySpec.mini().build(), *last)
        assert got["rows"] == want["rows"]
        assert got["stats"] == want["stats"]


# -- (iv) campaigns: cold, warm and emptied pools ------------------------------


def _campaign_run(tmp_path, name, shards, executor):
    result = Campaign(
        TopologySpec.mini(),
        {"wide": ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5)},
        probe=ProbeSpec.for_seed(5),
        shards=shards,
        executor=executor,
        workers=2,
        checkpoint_dir=str(tmp_path / name),
        checkpoint_every=16,
    ).run()
    stats = result.stats.to_dict()
    stats.pop("wall_seconds")
    checkpoints: Dict[str, list] = {}
    for event in result.events.of_type("checkpoint_written"):
        checkpoints.setdefault(event["job_id"], []).append(
            (event["position"], event["status"])
        )
    return result.results["wide"].dedup_digest(), stats, checkpoints


class TestCampaigns:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_two_runs_in_one_process_equal_a_run_on_an_emptied_pool(
        self, tmp_path, builds, shards, executor
    ):
        first = _campaign_run(tmp_path, "first", shards, executor)
        cold = len(builds)
        second = _campaign_run(tmp_path, "second", shards, executor)
        if executor != "process":  # (its workers build, out of our sight)
            assert 1 <= cold <= min(shards, 2)
            assert len(builds) == cold  # the second run was all hits
        spec_module._POOL.drop()
        emptied = _campaign_run(tmp_path, "emptied", shards, executor)
        assert first == second == emptied
        digest, stats, checkpoints = first
        assert stats["sent"] == 256 and len(checkpoints) == shards


# -- the pool's rules, counted -------------------------------------------------


def _job(spec: Optional[TopologySpec] = None, **kwargs):
    """One whole-window shard job of ``spec`` (mini unless given)."""
    (job,) = ShardPlanner(1).plan(
        ScanConfig(scan_range=ScanRange.parse(SPEC), seed=5, **kwargs),
        spec or TopologySpec.mini(), ProbeSpec.for_seed(5), label="wide",
    )
    return job


def _rows(outcome):
    return [r.to_dict() for r in outcome.result.results]


@pytest.fixture
def oracle():
    """The whole-window shard's rows on a world nobody scanned before."""
    return _rows(execute_job(_job(), prebuilt=_mini_world()))


def _idle():
    return [
        built for shelf in spec_module._POOL._idle.values() for built in shelf
    ]


class TestPoolRules:
    def _run(self, spec, shards=2, **kwargs):
        return Campaign(
            spec, {"wide": ScanConfig(scan_range=ScanRange.parse(SPEC),
                                      seed=5)},
            probe=ProbeSpec.for_seed(5), shards=shards, **kwargs,
        ).run()

    def test_build_once_per_spec_not_twice_per_campaign(self, builds):
        self._run(TopologySpec.mini())
        assert len(builds) == 1  # two shards, one world
        self._run(CampaignSpec.from_dict(json.loads(json.dumps({
            "tenant": "t", "name": "n", "scan_range": SPEC,
            "topology": "mini", "topology_params": {"seed": 1},
        }))).topology_spec())
        assert len(builds) == 1  # an equal spec, however it was spelt
        self._run(TopologySpec.mini(seed=2))
        assert builds == [TopologySpec.mini(), TopologySpec.mini(seed=2)]

    def test_concurrent_shards_each_hold_a_world_of_their_own(
        self, builds, monkeypatch
    ):
        in_use, overlaps, lock = set(), [], threading.Lock()
        run = Scanner.run

        def exclusive(scanner):
            key = id(scanner.network)
            with lock:
                if key in in_use:
                    overlaps.append(key)
                in_use.add(key)
            try:
                return run(scanner)
            finally:
                with lock:
                    in_use.discard(key)

        monkeypatch.setattr(Scanner, "run", exclusive)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = self._run(TopologySpec.mini(), shards=4,
                               executor="thread", workers=2)
        finally:
            sys.setswitchinterval(interval)
        assert result.stats.sent == 256
        assert 1 <= len(builds) <= 2
        assert overlaps == []
        assert len(_idle()) == len(builds)

    def test_many_threads_borrowing_and_returning_keep_the_books(self):
        """More borrowers than cores, switching every microsecond: nobody
        is ever handed a world somebody else holds, and the pool's device
        count is exactly what is idle in it."""
        specs = [TopologySpec.mini(seed=seed) for seed in (1, 2, 3)]
        held, clashes, lock = set(), [], threading.Lock()

        def borrow(worker: int) -> None:
            for turn in range(60):
                with specs[(worker + turn) % 3].checkout() as built:
                    key = id(built.network)
                    with lock:
                        if key in held:
                            clashes.append(key)
                        held.add(key)
                    built.network.advance(1.0)  # scan state, restored
                    with lock:
                        held.discard(key)

        threads = [
            threading.Thread(target=borrow, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert clashes == []
        idle = _idle()
        assert len({id(built) for built in idle}) == len(idle)
        # A miss only happens with every world of that spec lent out.
        assert all(
            len(shelf) <= 8 for shelf in spec_module._POOL._idle.values()
        )
        assert spec_module._POOL.devices == sum(
            len(built.network.devices) for built in idle
        )
        assert all(built.network.clock == 0.0 for built in idle)

    def test_an_interrupted_shard_drops_its_world(self, builds, oracle):
        job = _job()
        job.interrupt_after = 70
        with pytest.raises(WorkerInterrupted):
            execute_job(job)
        assert _idle() == []
        assert _rows(execute_job(_job())) == oracle
        assert len(builds) == 2

    @pytest.mark.parametrize("event", [
        FaultEvent(kind=ROUTE_SET, start=0.002, end=0.004, device="isp",
                   prefix=str(MiniTopology.LAN_OK),
                   next_hop=str(MiniTopology.WAN_VULN.address(0x1234))),
        FaultEvent(kind=ROUTER_CRASH, start=0.002, end=0.003,
                   device="cpe-ok"),
        FaultEvent(kind=LOSS_BURST, start=0.002, end=0.003, rate=0.4),
    ], ids=lambda event: event.kind)
    def test_a_scan_that_armed_a_fault_injector_drops_its_world(
        self, builds, oracle, event
    ):
        schedule = FaultSchedule(seed=3, events=(event,))
        faulted = execute_job(_job(fault_schedule=schedule, rate_pps=2000.0))
        assert faulted.result.stats.sent == 256
        assert _idle() == []
        assert _rows(execute_job(_job())) == oracle
        assert len(builds) == 2

    def test_a_world_edited_inside_the_checkout_is_dropped(
        self, builds, oracle
    ):
        spec = TopologySpec.mini()
        with spec.checkout() as built:
            isp = built.network.devices["isp"]
            prefix = IPv6Prefix.from_string("2001:db8:9::/48")
            isp.table.add_blackhole(prefix)
            isp.table.remove(prefix)  # back as it was; the stamp is not
        assert _idle() == []
        assert _rows(execute_job(_job())) == oracle
        assert len(builds) == 2
        assert len(_idle()) == 1  # that one was returned

    def test_idle_devices_stay_under_the_budget_but_for_the_newest(
        self, monkeypatch
    ):
        monkeypatch.setattr(spec_module, "POOL_DEVICE_BUDGET", 14)
        pool = spec_module._POOL
        minis = [TopologySpec.mini(seed=seed) for seed in range(1, 5)]
        for spec in minis:  # 6 devices each: the third evicts the first
            with spec.checkout():
                pass
            assert pool.devices <= 14
        assert list(pool._idle) == minis[2:]
        # Two at once of one spec count twice.
        with minis[3].checkout(), minis[3].checkout():
            pass
        assert list(pool._idle) == [minis[3]] and pool.devices == 12
        # A world larger than the whole budget is kept — alone — so the
        # rest of its campaign's shards still find it ...
        big = TopologySpec.deployment(
            profiles=["cn-unicom-broadband"], scale=32000.0, seed=7)
        with big.checkout() as built:
            size = len(built.network.devices)
        assert size > 14
        assert list(pool._idle) == [big] and pool.devices == size
        with big.checkout() as again:
            assert again is built
        # ... and goes when something newer comes back.
        with minis[0].checkout():
            pass
        assert list(pool._idle) == [minis[0]] and pool.devices == 6

    def test_restore_vouches_only_for_what_it_can(self):
        network = build_mini().network
        assert network.restore() is False  # never sealed
        network.seal()
        assert network.restore() is True
        network.generation += 1
        assert network.restore() is False  # the stamp moved
        used = build_mini()
        used.network.inject(
            ProbeSpec.for_seed(5).build().build(
                used.vantage.primary_address, used.ue.ue_address),
            used.vantage,
        )
        with pytest.raises(NetworkError, match="before it carries traffic"):
            used.network.seal()

    def test_restore_refuses_while_an_injector_is_attached(self):
        from repro.faults import FaultInjector

        network = build_mini().network
        network.seal()
        injector = FaultInjector(network, FaultSchedule(seed=1, events=(
            FaultEvent(kind=LOSS_BURST, start=0.0, end=1.0, rate=0.5),
        )))
        injector.arm()
        network.advance(0.5)
        assert network.restore() is False and network.clock == 0.5
        injector.restore()
        assert network.restore() is True and network.clock == 0.0


# -- the spec as a key ---------------------------------------------------------


def _through_the_api(spec: TopologySpec) -> TopologySpec:
    """``spec`` as a JSON submission names it."""
    body = json.dumps({
        "tenant": "t", "name": "n", "scan_range": SPEC,
        "topology": spec.kind, "topology_params": dict(spec.params),
    })
    return CampaignSpec.from_dict(json.loads(body)).topology_spec()


class TestSpecIdentity:
    @pytest.mark.parametrize("spec", [
        TopologySpec.mini(seed=4, flow_cache=False),
        TopologySpec.deployment(profiles=["cn-unicom-broadband"],
                                scale=32000.0, seed=7),
        TopologySpec.deployment(scale=64000.0),
        TopologySpec.internet(seed=3, n_tail_ases=4,
                              edge_plan=[(0, "CN", 12, 2), (1, "US", 8, 0)]),
    ], ids=lambda spec: spec.kind)
    def test_a_json_round_trip_is_the_same_key(self, spec):
        again = _through_the_api(spec)
        assert again == spec and hash(again) == hash(spec)
        assert {spec: 1}[again] == 1

    def test_lists_and_mappings_are_canonicalised_recursively(self):
        spelt = TopologySpec("deployment", (
            ("profiles", ["cn-unicom-broadband"]), ("seed", 7),
        ))
        assert spelt == TopologySpec(
            "deployment", {"seed": 7, "profiles": ("cn-unicom-broadband",)})
        assert hash(spelt) == hash(TopologySpec(
            "deployment", [["profiles", ["cn-unicom-broadband"]],
                           ["seed", 7]]))
        nested = TopologySpec("x", {"a": {"z": [1, [2]], "b": 0}})
        assert nested.params == (("a", (("b", 0), ("z", (1, (2,))))),)

    def test_both_spellings_build_the_same_world(self):
        spec = TopologySpec.deployment(
            profiles=["cn-unicom-broadband"], scale=32000.0, seed=7)
        (one,) = spec.build().handle.isps.values()
        (two,) = _through_the_api(spec).build().handle.isps.values()
        assert one.scan_spec == two.scan_spec
        assert one.truths and one.truths == two.truths


# -- forkserver workers --------------------------------------------------------


class TestProcessWorkers:
    def test_an_unknown_kind_fails_the_shard_in_the_worker(self):
        """A spec no builder knows fails its shard in the worker with the
        builder's own error, shipped back to the parent, rather than
        hanging or building something else."""
        job = _job(TopologySpec("no-such-kind", {"seed": 1}))
        ((_, failure),) = ProcessPoolBackend(workers=1).run_jobs([job])
        assert isinstance(failure, ValueError)
        assert "unknown topology kind 'no-such-kind'" in str(failure)
