"""The four workloads of the spine, their oracles and their checks.

Every workload drives the daemon the way the service tests host it — a
``ScanService`` and a ``ServiceServer`` on 127.0.0.1 (loopback, not a real
link) in this process, ``max_workers=1``, executor ``serial`` — and all
load comes from this process through ``ServiceClient`` in closed loops:
the next request goes out when the previous reply is in.  Campaigns are
submitted to an idle scheduler and then drained with ``run_until_idle``,
so lease order, and with it every simulated statistic, is a function of
the seed alone.

A run is a set-up (timed as ``setup_s``) and then *rounds*: one round is
the workload's fixed unit of work on a fresh service root, and a run
repeats rounds for the seconds it was given.  A round cuts its timed
interval into *pieces* — the same labels and the same work in every round
— so that the runner can take each piece from the round in which the
machine disturbed it least.  The program only ever sees the generated
``CampaignSpec`` dicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.target import ScanRange
from repro.engine.campaign import Campaign
from repro.isp.builder import build_deployment
from repro.isp.profiles import profile_by_key
from repro.net.addr import IPv6Addr
from repro.service import (
    ApiError,
    CampaignSpec,
    ScanService,
    ServiceClient,
    ServiceServer,
    TenantPolicy,
)
from repro.store import query as store_query

from benchmarks.e2e.trace import Tracer, install

Spec = Dict[str, object]
Row = Dict[str, object]
#: Measurements by label; see ``Round.pieces``.
Samples = Dict[str, List[float]]


# -- shared plumbing -----------------------------------------------------------


class Daemon:
    """One ``ScanService`` on a fresh root under ``workdir``."""

    def __init__(
        self,
        workdir: Path,
        seed: int,
        default_policy: Optional[TenantPolicy] = None,
    ) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="svc-", dir=workdir))
        self.service = ScanService(
            str(self.root), default_policy=default_policy, max_workers=1,
            seed=seed, scope="e2e",
        )

    @contextlib.contextmanager
    def serve(self) -> Iterator[ServiceClient]:
        server = ServiceServer(self.service)
        # What ``server.start()`` does, but polling for shutdown every 50 ms
        # and not every 500: ``stop()`` waits out one poll, once a round.
        thread = threading.Thread(
            target=server.httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="service-http", daemon=True,
        )
        thread.start()
        try:
            yield ServiceClient(server.address, timeout=120.0)
        finally:
            server.stop()
            thread.join()

    def service_events(self) -> List[Dict[str, object]]:
        """``logs/service.ndjson`` as the scheduler wrote it on exit."""
        path = self.root / "logs" / "service.ndjson"
        return [json.loads(line) for line in path.read_text().splitlines()]

    def virtual_seconds(self) -> float:
        """Σ simulated scan seconds over every shard this daemon ran, from
        the shards' final checkpoints."""
        spans = []
        for path in self.root.glob("tenants/*/ckpt/*/shard-*.json"):
            stats = json.loads(path.read_text())["result"]["stats"]
            spans.append(stats["virtual_end"] - stats["virtual_start"])
        # fsum: campaign ids depend on which client's submission landed
        # first, and the total must not depend on the order of the terms.
        return math.fsum(spans)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class Failures:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.reasons.append(reason)
        return ok

    def request(self, call, *args):
        """One API request; a non-2xx reply is a failed operation."""
        self.attempted += 1
        try:
            return call(*args)
        except ApiError as exc:
            self.reasons.append(f"{call.__name__}{args[:1]}: {exc}")
            return None


def rows_sha256(rows: Sequence[Row]) -> str:
    """Order-independent digest of API rows, the recipe of
    ``ScanResult.dedup_digest``."""
    lines = sorted(
        f"{r['responder']}|{r['target']}|{r['kind']}|{r['icmp_type']}|{r['icmp_code']}"
        for r in rows
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Round:
    """What one round measured and verified."""

    cpu_s: float
    #: The timed interval cut into consecutive pieces: seconds by label.
    #: Pieces under one label are the same work (one request, repeated);
    #: every round of a run has the same labels, as many pieces under each,
    #: and does the same work under them.  Together the pieces are the
    #: round's wall seconds.
    pieces: Samples
    #: Units of the workload's headline work, and the label prefix of the
    #: pieces that do it.
    work: float
    work_phase: str
    #: Latencies (ms) of the workload's headline operation, labelled the
    #: same way; or, where the operation is a whole phase of the round,
    #: ``op_phases``: the label prefix of its pieces, and the ms its latency
    #: counts for each second they take.
    ops: Samples
    #: Workload-specific figures (named as in README.md), for people.
    detail: Dict[str, float]
    #: The timed phases, on the ``time.perf_counter`` axis.
    windows: List[Tuple[float, float]]
    campaigns: int
    #: Simulated outputs that may not move between rounds, runs or commits.
    digest: str
    virtual_s: float
    counts: Dict[str, int]
    failures: Failures
    #: What only the harness saw, for ``trace.layer_metrics``.
    facts: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    op_phases: Dict[str, float] = field(default_factory=dict)

    def phase_s(self, prefix: str) -> float:
        return sum(
            sum(v) for k, v in self.pieces.items() if k.startswith(prefix)
        )

    @property
    def wall_s(self) -> float:
        return self.phase_s("")


@dataclass
class CampaignTimes:
    """Per-campaign seconds from the service's own event log."""

    #: submit → terminal (what the tenant waits) and lease → terminal
    #: (what the campaign itself took), by campaign id.
    total: Dict[str, float]
    running: Dict[str, float]
    #: How long each campaign held the one worker: from the terminal event
    #: of the campaign before it (its own lease, for the first) to its own.
    #: Consecutive, so they add up to first lease → last terminal.
    turn: Dict[str, float]
    #: Σ submit → lease: time work waited for the fleet.
    lease_wait: float


def campaign_times(events: Sequence[Dict[str, object]]) -> CampaignTimes:
    submitted: Dict[str, float] = {}
    leased: Dict[str, float] = {}
    times = CampaignTimes({}, {}, {}, 0.0)
    previous: Optional[float] = None
    for event in events:
        cid = event.get("id")
        if event["type"] == "service_submitted":
            submitted[cid] = event["t"]
        elif event["type"] == "service_leased":
            leased[cid] = event["t"]
            times.lease_wait += event["t"] - submitted[cid]
        elif event["type"] == "service_terminal":
            times.total[cid] = event["t"] - submitted[cid]
            times.running[cid] = event["t"] - leased[cid]
            times.turn[cid] = event["t"] - (
                leased[cid] if previous is None else previous
            )
            previous = event["t"]
    return times


def log_pieces(events: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """A campaign cut at every event of its own log: seconds by label, from
    the log's creation to its last event.

    The campaign's own events (``campaign_started``, ``shard_finished``,
    ``store_committed`` …) carry ``t``, seconds since the log was created; a
    piece runs from one to the next and is labelled ``<seq> <type>`` of the
    event that ends it.  The events the shards' workers logged (every
    ``checkpoint_every`` probes a ``checkpoint_written``, then
    ``segment_sealed``) carry ``worker_t``, seconds since the shard began,
    and cut the shard into pieces ``<job id>/<k>`` of their own.  Under the
    serial executor they reach the log when every shard is done, so the
    piece that ends with the first ``shard_finished`` spans all the shards,
    and is left what they did not take."""
    pieces: Dict[str, float] = {}
    shard_clock: Dict[str, float] = {}
    clock = in_shards = 0.0
    around_shards = None
    for event in events:
        if "worker_t" in event:
            job, at = event["job_id"], event["worker_t"]
            took = at - shard_clock.get(job, 0.0)
            pieces[f"{job}/{event['worker_seq']:03d}"] = took
            shard_clock[job] = at
            in_shards += took
        else:
            label = f"{event['seq']:03d} {event['type']}"
            pieces[label] = event["t"] - clock
            clock = event["t"]
            if in_shards and around_shards is None:
                around_shards = label
    if around_shards is not None:
        pieces[around_shards] -= in_shards
    return pieces


def drain_pieces(
    specs: Sequence[Spec], ids: Sequence[Optional[str]],
    times: CampaignTimes, drain_s: float, prefix: str, logs: Path,
) -> Samples:
    """The drain phase cut at every event the program logged.  The service's
    log gives each campaign its turn on the worker: the wait for its lease
    since the campaign before it ended, then lease to terminal, of which the
    campaign's own log (in ``logs``) covers the ``log_pieces`` and not the
    rest (topology spec, queue transitions).  Labels begin with the name the
    campaign's spec gave it (ids and lease order may differ between rounds).
    What is left of the phase — scheduler start to first lease, last terminal
    to idle — is the last piece."""
    pieces: Samples = {}
    for spec, cid in zip(specs, ids):
        if cid not in times.turn:
            continue
        label, rest = f"{prefix}{spec['name']}/", times.running[cid]
        pieces[label + "(lease)"] = [times.turn[cid] - rest]
        lines = (logs / f"{cid}.ndjson").read_text().splitlines()
        for key, seconds in log_pieces(map(json.loads, lines)).items():
            pieces[label + key] = [seconds]
            rest -= seconds
        pieces[label + "(rest)"] = [rest]
    pieces[f"{prefix}(rest)"] = [drain_s - sum(times.turn.values())]
    return pieces


def submit_all(
    client: ServiceClient, specs: Sequence[Spec], failures: Failures,
    clients: int = 1,
) -> Tuple[List[Optional[str]], List[float], List[float]]:
    """Submit ``specs`` from ``clients`` closed-loop connections.  Returns,
    aligned with ``specs``, the campaign ids (None where refused) and the
    per-request ms; and the ``perf_counter`` times the replies came in."""
    ids: List[Optional[str]] = [None] * len(specs)
    latencies = [0.0] * len(specs)
    replied: List[float] = []

    def loop(indices: Sequence[int]) -> None:
        for i in indices:
            started = time.perf_counter()
            record = failures.request(client.submit, specs[i])
            done = time.perf_counter()
            latencies[i] = (done - started) * 1e3
            replied.append(done)
            if record is not None:
                ids[i] = record["campaign_id"]

    if clients == 1:
        loop(range(len(specs)))
    else:
        threads = [
            threading.Thread(
                target=loop, args=(range(k, len(specs), clients),)
            )
            for k in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return ids, latencies, sorted(replied)


@contextlib.contextmanager
def measured(tracer: Optional[Tracer]) -> Iterator[None]:
    """The part of a round the per-layer numbers describe."""
    if tracer is None:
        yield
    else:
        with install(tracer):
            yield


@dataclass
class Context:
    seed: int
    workdir: Path
    smoke: bool = False


class Workload:
    """Interface of a workload; ``name`` and ``why`` go to BENCHMARK.json."""

    name = ""
    why = ""

    def setup(self, ctx: Context):
        """Everything before the first timed request; returns the state
        rounds share.  Timed as ``setup_s`` and repeated, so it owns no
        process-wide state; the state has ``close()``."""
        raise NotImplementedError

    def round(self, ctx: Context, state, tracer: Optional[Tracer]) -> Round:
        raise NotImplementedError


class _Plain:
    """Set-up state with nothing to release."""

    def close(self) -> None:
        pass


# -- sweeps --------------------------------------------------------------------


@dataclass
class SweepState(_Plain):
    specs: List[Spec]
    #: Per spec: the ground-truth last-hop addresses and the window size.
    truths: List[frozenset]
    counts: List[int]


class Sweep(Workload):
    """Tenants sweep ``deployment`` blocks; one campaign per block."""

    keys: Tuple[str, ...] = ()
    scale = 1000.0
    smoke_scale = 32000.0
    #: None leaves the spec's default (64) in place.
    checkpoint_every: Optional[int] = None

    def setup(self, ctx: Context) -> SweepState:
        scale = self.smoke_scale if ctx.smoke else self.scale
        rng = random.Random(f"{self.name}/{ctx.seed}")
        tenants = ["tenant-a", "tenant-b"]
        rng.shuffle(tenants)
        state = SweepState([], [], [])
        for i, key in enumerate(self.keys):
            # The oracle: the same seeded world built here, independently of
            # the daemon, and the devices a full sweep of it must expose.
            block = build_deployment(
                [profile_by_key(key)], scale=scale, seed=ctx.seed
            ).isps[key]
            spec: Spec = {
                "tenant": tenants[i % len(tenants)],
                "name": key,
                "scan_range": block.scan_spec,
                "topology": "deployment",
                "topology_params": {
                    "profiles": [key], "scale": scale, "seed": ctx.seed,
                },
                "seed": rng.randrange(1 << 31),
            }
            if self.checkpoint_every is not None:
                spec["checkpoint_every"] = self.checkpoint_every
            state.specs.append(spec)
            state.truths.append(
                frozenset(str(t.last_hop) for t in block.truths)
            )
            state.counts.append(ScanRange.parse(block.scan_spec).count)
        return state

    def round(self, ctx: Context, state: SweepState,
              tracer: Optional[Tracer]) -> Round:
        failures = Failures()
        daemon = Daemon(ctx.workdir, ctx.seed)
        with contextlib.ExitStack() as stack:
            stack.callback(daemon.close)
            with measured(tracer):
                client = stack.enter_context(daemon.serve())
                t0, c0 = time.perf_counter(), time.process_time()
                ids, _, _ = submit_all(client, state.specs, failures)
                t1 = time.perf_counter()
                daemon.service.run_until_idle()
                t2, c2 = time.perf_counter(), time.process_time()

            sent = 0
            rows: List[Row] = []
            failures.check(None not in ids, "submissions lost")
            for cid, truths, count in zip(ids, state.truths, state.counts):
                if cid is None:
                    continue
                status = failures.request(client.status, cid) or {}
                result = status.get("result") or {}
                failures.check(
                    status.get("state") == "done"
                    and result.get("sent") == count,
                    f"{cid}: state {status.get('state')}, "
                    f"sent {result.get('sent')} of {count}",
                )
                sent += int(result.get("sent", 0))
                got = failures.request(client.results, cid) or []
                failures.check(
                    {r["responder"] for r in got} == truths
                    and result.get("validated") == len(truths),
                    f"{cid}: responders differ from the ground truth",
                )
                rows.extend(got)
            times = campaign_times(daemon.service_events())
            virtual_s = daemon.virtual_seconds()
            pieces = {"submit": [t1 - t0]}
            pieces.update(drain_pieces(
                state.specs, ids, times, t2 - t1, "campaign/",
                daemon.root / "logs",
            ))
        return Round(
            cpu_s=c2 - c0,
            pieces=pieces,
            work=sent,
            work_phase="",
            ops={},
            # A campaign's turn on the worker, not submit to terminal (that
            # is mostly the wait behind campaigns leased earlier, and lease
            # order changes with the seed), and per 1,000 probes: the windows
            # differ 8x in size, so the median of the raw times would be
            # whichever campaign the seed happens to put in the middle.
            op_phases={
                f"campaign/{spec['name']}/": 1e3 / (count / 1000)
                for spec, count in zip(state.specs, state.counts)
            },
            detail={"probes_per_s": sent / (t2 - t0)},
            windows=[(t0, t1), (t1, t2)],
            campaigns=len(ids),
            digest=rows_sha256(rows),
            virtual_s=virtual_s,
            counts={"probes": sent, "rows": len(rows), "campaigns": len(ids)},
            failures=failures,
            facts={"lease_wait_s": times.lease_wait},
            tracer=tracer,
        )


class SweepPeriphery(Sweep):
    name = "sweep_periphery"
    why = (
        "Table II sweep with default spec fields: ~20% hits, short paths, "
        "Destination-Unreachable; scanner per-probe cost and checkpointing "
        "dominate, forwarding does little"
    )
    keys = (
        "cn-mobile-mobile", "cn-unicom-mobile", "in-vodafone-mobile",
        "us-att-mobile", "in-jio-broadband", "us-att-broadband",
    )
    scale = 16000.0


class SweepLoops(Sweep):
    name = "sweep_loops"
    why = (
        "loop-dense CN broadband blocks at hop limit 255: most probes end in "
        "Time-Exceeded after a long loop, so forwarding and topology rebuild "
        "dominate and checkpointing does not"
    )
    keys = (
        "cn-mobile-broadband", "cn-telecom-broadband", "cn-unicom-broadband",
    )
    scale = 8000.0
    #: Often enough to cut a shard into pieces of ~0.1 s, seldom enough that
    #: checkpointing stays under a tenth of the work.
    checkpoint_every = 512


# -- admission burst -----------------------------------------------------------

#: Windows of the ``mini`` topology that answer (4 to 64 probes each).
BURST_WINDOWS = (
    "2001:db8:1:40::/58-64",
    "2001:db8:1:60::/60-64",
    "2001:db8:0::/61-64",
    "2001:db8:2:4::/62-64",
    "2001:db8:1:50::/60-64",
)
BURST_TENANTS = ("mapper", "census", "audit", "survey")
PRIORITIES = ("interactive", "normal", "batch")


@dataclass
class BurstState(_Plain):
    specs: List[Spec]
    #: Per window: the rows a standalone ``Campaign`` of it stores.
    oracle: Dict[str, List[Row]]


class AdmissionBurst(Workload):
    name = "admission_burst"
    why = (
        "dozens of 4-64 probe campaigns from 4 tenants: queue saves, "
        "leasing, per-lease topology build, store commit and tenant "
        "retention dominate; a scanner change must show no movement"
    )
    per_tenant = 12
    smoke_per_tenant = 5
    clients = 2

    def setup(self, ctx: Context) -> BurstState:
        rng = random.Random(f"{self.name}/{ctx.seed}")
        per_tenant = self.smoke_per_tenant if ctx.smoke else self.per_tenant
        scan_seeds = {w: rng.randrange(1 << 31) for w in BURST_WINDOWS}
        specs: List[Spec] = []
        for t, tenant in enumerate(BURST_TENANTS):
            for i in range(per_tenant):
                window = BURST_WINDOWS[(i + t) % len(BURST_WINDOWS)]
                specs.append({
                    "tenant": tenant,
                    "name": f"{tenant}-{i}",
                    "scan_range": window,
                    "topology": "mini",
                    "topology_params": {"seed": ctx.seed},
                    "seed": scan_seeds[window],
                    "priority": PRIORITIES[(i + t) % len(PRIORITIES)],
                })
        rng.shuffle(specs)
        oracle: Dict[str, List[Row]] = {}
        for window in BURST_WINDOWS:
            spec = CampaignSpec.from_dict(
                next(s for s in specs if s["scan_range"] == window)
            )
            result = Campaign(
                spec.topology_spec(), {spec.name: spec.scan_config()},
                shards=spec.shards,
            ).run()
            oracle[window] = [
                r.to_dict() for r in result.results[spec.name].results
            ]
        return BurstState(specs, oracle)

    def round(self, ctx: Context, state: BurstState,
              tracer: Optional[Tracer]) -> Round:
        failures = Failures()
        specs = state.specs
        per_tenant = len(specs) // len(BURST_TENANTS)
        daemon = Daemon(
            ctx.workdir, ctx.seed,
            default_policy=TenantPolicy(max_queued=per_tenant),
        )
        with contextlib.ExitStack() as stack:
            stack.callback(daemon.close)
            with measured(tracer):
                client = stack.enter_context(daemon.serve())
                t0, c0 = time.perf_counter(), time.process_time()
                ids, submit_ms, replied = submit_all(
                    client, specs, failures, clients=self.clients
                )
                t1 = time.perf_counter()
                daemon.service.run_until_idle()
                t2, c2 = time.perf_counter(), time.process_time()

            listing = failures.request(client.list_campaigns) or []
            failures.check(
                None not in ids and len(set(ids)) == len(specs)
                and {c["campaign_id"] for c in listing} == set(ids),
                "campaign ids lost or duplicated",
            )
            sent = 0
            expected_rows: List[Row] = []
            snapshots: Dict[str, Dict[str, int]] = {}
            for tenant in BURST_TENANTS:
                store = daemon.service.stores.open(tenant)
                snapshots[tenant] = {
                    name: snap.rows for name, snap in store.snapshots.items()
                }
            for record in listing:
                window = record["spec"]["scan_range"]
                result = record.get("result") or {}
                want = state.oracle[window]
                stored = snapshots[record["spec"]["tenant"]].get(
                    f"round-{record['campaign_id']}"
                )
                failures.check(
                    record["state"] == "done"
                    and result.get("sent") == ScanRange.parse(window).count
                    and stored == len(want),
                    f"{record['campaign_id']}: state {record['state']}, "
                    f"{stored} rows stored, standalone run stores {len(want)}",
                )
                sent += int(result.get("sent", 0))
                expected_rows.extend(want)
            rows: List[Row] = []
            for tenant in BURST_TENANTS:
                store = daemon.service.stores.open(tenant)
                rows.extend(r.to_dict() for r in store.iter_rows())
            digest = rows_sha256(rows)
            failures.check(
                digest == rows_sha256(expected_rows),
                "stored rows differ from the standalone campaigns' rows",
            )
            times = campaign_times(daemon.service_events())
            virtual_s = daemon.virtual_seconds()
            # The submit phase is cut at every other reply (two clients are
            # in flight, so a single request is not an interval of its own).
            cuts = [t0] + replied[self.clients - 1:-1:self.clients] + [t1]
            pieces = {
                f"submit/{k:02d}": [hi - lo]
                for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
            }
            pieces.update(drain_pieces(
                specs, ids, times, t2 - t1, "drain/", daemon.root / "logs",
            ))
        done_s = sorted(times.total.values()) or [0.0]
        # A submission costs what the queue it joins costs to save, so
        # twelve neighbours in the submission order are near enough the same
        # operation to share a label, and with it enough samples for a floor.
        ops: Samples = {}
        for i, ms in enumerate(submit_ms):
            ops.setdefault(f"submit/{i // 12:02d}", []).append(ms)
        return Round(
            cpu_s=c2 - c0,
            pieces=pieces,
            work=len(ids),
            work_phase="drain/",
            ops=ops,
            detail={
                "accepts_per_s": len(ids) / (t1 - t0),
                "submit_p50_ms": statistics.median(submit_ms),
                "campaigns_per_s": len(ids) / (t2 - t1),
                "campaign_p50_s": statistics.median(done_s),
                "campaign_p95_s": percentile(done_s, 0.95),
            },
            windows=[(t0, t1), (t1, t2)],
            campaigns=len(ids),
            digest=digest,
            virtual_s=virtual_s,
            counts={"probes": sent, "rows": len(rows), "campaigns": len(ids)},
            failures=failures,
            facts={
                "lease_wait_s": times.lease_wait,
                "submit_p95_ms": percentile(submit_ms, 0.95),
            },
            tracer=tracer,
        )


# -- results read --------------------------------------------------------------


@dataclass
class ReadState:
    daemon: Daemon
    ids: List[str]
    #: Per campaign, the rows of a reference full read taken in set-up.
    reference: Dict[str, List[Row]]
    #: Prefixes to query and how many reference rows fall under each.
    prefixes: List[Tuple[str, int]]
    virtual_s: float

    def close(self) -> None:
        self.daemon.close()


class ResultsRead(Workload):
    name = "results_read"
    why = (
        "two stored campaigns are only read: full /results, ?limit=100 and "
        "prefix queries; a store change that helps ingest but hurts decode "
        "moves this against the sweeps"
    )
    blocks = (("in-airtel-mobile", 16000.0), ("cn-mobile-broadband", 8000.0))
    smoke_blocks = (("in-airtel-mobile", 64000.0),
                    ("cn-mobile-broadband", 32000.0))
    full_reads, limited_reads, queries = 30, 150, 12
    smoke_reads = (2, 6, 2)
    limit = 100
    tenant = "reader"

    def setup(self, ctx: Context) -> ReadState:
        rng = random.Random(f"{self.name}/{ctx.seed}")
        daemon = Daemon(ctx.workdir, ctx.seed)
        failures = Failures()
        specs: List[Spec] = []
        for key, scale in (self.smoke_blocks if ctx.smoke else self.blocks):
            block = build_deployment(
                [profile_by_key(key)], scale=scale, seed=ctx.seed
            ).isps[key]
            specs.append({
                "tenant": self.tenant,
                "name": key,
                "scan_range": block.scan_spec,
                "topology": "deployment",
                "topology_params": {
                    "profiles": [key], "scale": scale, "seed": ctx.seed,
                },
                "seed": rng.randrange(1 << 31),
                "shards": 4,
                "checkpoint_every": 0,
            })
        with daemon.serve() as client:
            ids, _, _ = submit_all(client, specs, failures)
            daemon.service.run_until_idle()
            reference = {
                cid: failures.request(client.results, cid) or []
                for cid in ids if cid is not None
            }
        if failures.reasons:
            daemon.close()
            raise RuntimeError(f"set-up failed: {failures.reasons}")
        # Query prefixes: the /56 around seeded sample targets, so every
        # query matches something and the index has something to prune.
        targets = sorted(
            IPv6Addr.from_string(r["target"]).value
            for rows in reference.values() for r in rows
        )
        prefixes = []
        n_queries = self.smoke_reads[2] if ctx.smoke else self.queries
        for value in rng.sample(targets, n_queries):
            low = value >> 72 << 72
            matching = sum(1 for t in targets if low <= t < low + (1 << 72))
            prefixes.append((f"{IPv6Addr(low)}/56", matching))
        return ReadState(
            daemon, ids, reference, prefixes, daemon.virtual_seconds()
        )

    def round(self, ctx: Context, state: ReadState,
              tracer: Optional[Tracer]) -> Round:
        failures = Failures()
        daemon, ids = state.daemon, state.ids
        full, limited, _ = (
            self.smoke_reads if ctx.smoke
            else (self.full_reads, self.limited_reads, self.queries)
        )
        full_rows = 0
        limited_ms: Samples = {}
        query_rows = 0
        segments = segments_opened = 0
        # One piece per request, its check included: cut after each.  The
        # label says which request it is, so repeats of one share a label.
        pieces: Samples = {}
        with measured(tracer), daemon.serve() as client:
            t0, c0 = time.perf_counter(), time.process_time()
            mark = t0

            def cut(label: str) -> float:
                nonlocal mark
                now = time.perf_counter()
                pieces.setdefault(label, []).append(now - mark)
                mark = now
                return now

            for i in range(full):
                cid = ids[i % len(ids)]
                rows = failures.request(client.results, cid)
                failures.check(
                    rows == state.reference[cid],
                    f"full read {i} of {cid} differs from the first read",
                )
                full_rows += len(rows or ())
                t1 = cut(f"full/{i % len(ids)}")
            for i in range(limited):
                started = time.perf_counter()
                rows = failures.request(
                    client.results, ids[i % len(ids)], self.limit
                )
                limited_ms.setdefault(f"limited/{i % len(ids)}", []).append(
                    (time.perf_counter() - started) * 1e3
                )
                failures.check(
                    rows is not None and len(rows) == self.limit,
                    f"limited read {i} returned {len(rows or ())} rows",
                )
                t2 = cut(f"limited/{i % len(ids)}")
            for prefix, expected in state.prefixes:
                store = daemon.service.stores.open(self.tenant)
                opened_before = (
                    tracer.totals().get("store.segment.iter_rows", [0])[0]
                    if tracer is not None else 0
                )
                with (tracer.span("store.query.query") if tracer is not None
                      else contextlib.nullcontext()):
                    matched = sum(1 for _ in store_query(store, prefix=prefix))
                if tracer is not None:
                    segments += len(store.segments)
                    segments_opened += (
                        tracer.totals()["store.segment.iter_rows"][0]
                        - opened_before
                    )
                failures.check(
                    matched == expected,
                    f"query {prefix}: {matched} rows, full read has {expected}",
                )
                query_rows += matched
                t3 = cut(f"query/{prefix}")
            c3 = time.process_time()
        all_rows = [r for cid in ids for r in state.reference[cid]]
        return Round(
            cpu_s=c3 - c0,
            pieces=pieces,
            work=full_rows,
            work_phase="full/",
            ops=limited_ms,
            detail={
                "rows_per_s": full_rows / (t1 - t0),
                "limited_read_ms": statistics.median(
                    ms for samples in limited_ms.values() for ms in samples
                ),
                "query_rows_per_s": query_rows / (t3 - t2),
            },
            windows=[(t0, t3)],
            campaigns=0,
            digest=rows_sha256(all_rows),
            virtual_s=state.virtual_s,
            counts={
                "rows": len(all_rows), "rows_read": full_rows,
                "rows_queried": query_rows, "campaigns": len(ids),
            },
            failures=failures,
            facts={
                "query_segments": segments,
                "query_segments_opened": segments_opened,
            },
            tracer=tracer,
        )


WORKLOADS: Tuple[Workload, ...] = (
    SweepPeriphery(), SweepLoops(), AdmissionBurst(), ResultsRead(),
)
