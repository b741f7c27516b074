"""The XMap scan engine.

Ties the pieces together: the permutation walks the sub-prefix window in
pseudorandom order (spreading load across target networks, §IV-E), the
target generator fills IIDs, the blocklist vetoes excluded space, the pacer
enforces the probe rate on the virtual clock, the probe module builds and
validates packets, and the engine aggregates :class:`ProbeResult` records.

``wire_mode`` round-trips every probe and reply through the byte-level
codecs, proving the packets the engine reasons about are exactly what a
raw socket would carry; the fast path hands packet objects to the simulator
directly.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.blocklist import Blocklist
from repro.core.permutation import make_permutation
from repro.core.probes.base import ProbeModule, ReplyKind, error_kind
from repro.core.ratelimit import VirtualPacer
from repro.core.rows import (
    KEY_SIZE,
    KIND_CODE,
    KINDS,
    ROW,
    ProbeResult,
    Rows,
    digest_text,
)
from repro.core.stats import ScanStats
from repro.core.target import IidStrategy, ScanRange, TargetGenerator
from repro.core.validate import Validator
from repro.net import columnar
from repro.net.addr import IPv6Addr, IPv6Prefix
from repro.net.columnar import Lanes, Outcomes, Probes, destinations
from repro.net.device import Device
from repro.net.network import Network
from repro.net.packet import Icmpv6Type, Packet
from repro.telemetry.metrics import (
    HOP_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.telemetry.trace import ProbeTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.adaptive import RetransmitPolicy
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.store.sink import ResultSink
    from repro.telemetry.trace import ProbeTrace


#: Targets per block: how many permutation indices :meth:`Scanner.targets`
#: turns into addresses (and primed validation tags) and forwards as one
#: :class:`~repro.net.columnar.Lanes` at once, and the most targets one
#: chunk of :meth:`Scanner.run` hands to the network.  The vector work pays
#: numpy's fixed per-call cost once per route-length table per hop
#: iteration however many lanes it holds, so the block is sized for it.
#: Scan-only time of the e2e sweeps (``Scanner.run`` over every shard,
#: pooled worlds, seed 7, least of 15 interleaved sweeps, 2-vCPU VM), in ms
#: by block: ``sweep_loops`` 73.5 at 256, 61.4 at 512, 54.6 at 1024, 52.7
#: at 2048, 52.9 at 4096; ``sweep_periphery`` 57.8, 51.7, 50.0, 50.0,
#: 50.2.  1024 is the smallest within a few per cent of the best (the loop
#: shards' last ≈ 170 targets are the rest).  What grows with it: a
#: topology edit between two chunks re-forwards what is left of the block
#: (``Lanes.forward(start)``), up to this many lanes per edit; and the
#: lanes and primed tags of a block stay resident until the next.
BLOCK_SIZE = 1024


@dataclass
class ScanResult:
    """All validated replies from one scan plus engine statistics.

    ``results`` keeps the replies as packed rows (:class:`Rows`): the
    scanner appends them, :meth:`merge`, :meth:`dedup_digest`, the
    checkpoint log and the segment writer read the bytes, and a reader that
    iterates or indexes it gets :class:`ProbeResult` objects.  Any sequence
    of results passed in is packed.
    """

    range: ScanRange
    results: Rows = field(default_factory=Rows)
    stats: ScanStats = field(default_factory=ScanStats)
    #: Dedup-key cache for :meth:`merge`: the key set plus the row count it
    #: was built against.  Rebuilding the set per merge call made an
    #: N-shard campaign merge O(N²) in total results; the cache makes the
    #: whole merge loop single-pass.  Out-of-band appends to ``results``
    #: are detected by the count stamp and trigger a rebuild.
    _dedup_cache: Optional[Set[bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _dedup_stamp: int = field(
        default=-1, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.results, Rows):
            self.results = Rows(self.results)

    def unique_responders(self) -> Set[IPv6Addr]:
        return {r.responder for r in self.results}

    def unique_slash64s(self) -> Set[IPv6Prefix]:
        return {r.responder.slash64 for r in self.results}

    def metadata(self) -> Dict[str, object]:
        """ZMap-style scan metadata summary (for logs and status files)."""
        return {
            "range": str(self.range),
            "sub_prefixes": self.range.count,
            "sent": self.stats.sent,
            "blocked": self.stats.blocked,
            "received": self.stats.received,
            "validated": self.stats.validated,
            "hit_rate": self.stats.hit_rate,
            "unique_responders": len(self.unique_responders()),
            "virtual_seconds": self.stats.virtual_seconds,
            "virtual_pps": self.stats.virtual_pps,
            "wall_seconds": self.stats.wall_seconds,
        }

    def by_kind(self) -> Dict[ReplyKind, int]:
        return dict(Counter(result.kind for result in self.results))

    def last_hops(self) -> List[ProbeResult]:
        """Replies that expose a last-hop device (ICMPv6 errors)."""
        return [r for r in self.results if r.kind.is_error]

    def merge(self, other: "ScanResult") -> "ScanResult":
        """Fold another shard's results into this one (in place).

        Replies deduplicate on their packed key (responder, target, kind:
        :data:`~repro.core.rows.KEY_SIZE` bytes) — the key the in-scan
        dedup uses — so merging the shards of one logical scan yields
        exactly the unsharded reply set; stats merge per
        :meth:`ScanStats.merge`.
        """
        if str(other.range) != str(self.range):
            raise ValueError(
                f"cannot merge scan of {other.range} into scan of {self.range}"
            )
        seen = self._dedup_keys()
        rows = self.results.rows
        for row in other.results.rows:
            key = row[:KEY_SIZE]
            if key not in seen:
                seen.add(key)
                rows.append(row)
        self._dedup_stamp = len(rows)
        self.stats.merge(other.stats)
        return self

    def _dedup_keys(self) -> Set[bytes]:
        """The cached dedup-key set, rebuilt only if ``results`` changed
        behind the cache's back (e.g. the scanner appending mid-scan)."""
        keys = self._dedup_cache
        rows = self.results.rows
        if keys is None or self._dedup_stamp != len(rows):
            keys = {row[:KEY_SIZE] for row in rows}
            self._dedup_cache = keys
            self._dedup_stamp = len(rows)
        return keys

    def dedup_digest(self) -> str:
        """Order-independent SHA-256 over the deduplicated reply set: of
        the sorted ``responder|target|kind|type|code`` lines
        (:func:`~repro.core.rows.digest_text`)."""
        return hashlib.sha256(digest_text(self.results.rows)).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view, invertible via :meth:`from_dict` (checkpoints)."""
        return {
            "range": str(self.range),
            "results": self.results.dicts(),
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScanResult":
        return cls(
            range=ScanRange.parse(str(data["range"])),
            results=Rows(
                ProbeResult.from_dict(item)  # type: ignore[arg-type]
                for item in data.get("results", [])  # type: ignore[union-attr]
            ),
            stats=ScanStats.from_dict(data.get("stats", {})),  # type: ignore[arg-type]
        )


@dataclass
class ScanConfig:
    """Everything that parameterises one scan."""

    scan_range: ScanRange
    rate_pps: float = 25_000.0  # the paper's good-citizen budget (§IV-E)
    seed: int = 0
    iid_strategy: IidStrategy = IidStrategy.RANDOM
    fixed_iid: int = 1
    shard: int = 0
    shards: int = 1
    #: Shard-stream positions (permutation indices, blocked ones included)
    #: to skip before probing — the checkpoint/resume offset.
    skip: int = 0
    #: Copies of the probe sent per target (ZMap's ``--probes``): raises
    #: recall on lossy paths at proportional bandwidth cost.
    probes_per_target: int = 1
    max_probes: Optional[int] = None
    blocklist: Optional[Blocklist] = None
    wire_mode: bool = False
    #: Collect per-scan telemetry counters/histograms into
    #: :attr:`Scanner.metrics`.  Off buys back the (small) registry cost.
    collect_metrics: bool = True
    #: Probe-lifecycle tracing spec: ``"off"``, ``"all"``, or ``"sample:N"``
    #: (see :class:`repro.telemetry.trace.ProbeTracer`).
    trace: str = "off"
    #: Deterministic chaos: a :class:`repro.faults.schedule.FaultSchedule`
    #: armed against the network for the duration of the scan (None = no
    #: fault layer at all — the default costs nothing on the hot path).
    fault_schedule: Optional["FaultSchedule"] = None
    #: AIMD rate control (ZMap/XMap-style): multiplicative decrease when
    #: the validated-reply rate collapses below its EMA baseline, additive
    #: increase back toward ``rate_pps`` (factors: the class constants of
    #: :class:`~repro.core.adaptive.AdaptiveRateController`).
    #: Off by default; when off the scan is bit-identical to today.
    adaptive_rate: bool = False
    #: Targets per AIMD observation window.
    adaptive_window: int = 256
    #: Retransmission policy: max retries for a target whose probes (all
    #: ``probes_per_target`` copies) produced zero validated replies.
    #: 0 disables retransmission entirely (the default).
    retransmit: int = 0
    #: Base virtual-seconds backoff before the first retry (doubles per
    #: attempt, plus :attr:`~repro.core.adaptive.RetransmitPolicy.JITTER`).
    retransmit_backoff: float = 0.01
    #: Virtual seconds per time-series bucket (0 disables sampling).  The
    #: sampler rides the pacer's clock and snapshots counter deltas into
    #: :attr:`Scanner.sampler`; shard workers export the series and the
    #: campaign merges them bit-identically (see telemetry/timeseries.py).
    timeseries_interval: float = 0.0


#: The kind code (:data:`~repro.core.rows.KIND_CODE`) of an arrived ICMPv6
#: error by its ``(type, code)``: :func:`~repro.core.probes.base.error_kind`
#: of every code of the two types it attributes; any other pair is not a
#: reply to a probe.  Ints all through — an enum member hashes in Python.
_ROW_KIND_CODES: Dict[Tuple[int, int], int] = {
    (int(icmp_type), code): KIND_CODE[error_kind(icmp_type, code)]
    for icmp_type in (Icmpv6Type.DEST_UNREACHABLE, Icmpv6Type.TIME_EXCEEDED)
    for code in range(256)
}

#: Run of one pulled block's lanes: a ``range`` of them, or an index
#: column (a list without numpy) where the blocklist vetoed some.
Run = Tuple[Lanes, Sequence[int]]


class _Pull:
    """A scan's target stream (:meth:`Scanner._pull`), handed out as runs.

    The one owner of ``skip`` / ``max_probes`` / blocklist vetoes.
    ``config.skip`` fast-forwards past already-scanned positions of this
    shard's stream (checkpoint resume) without evaluating the blocklist or
    generating addresses for them.  Permutation indices are pulled up to
    :data:`BLOCK_SIZE` at a time so IID hashing, validation-tag priming
    and forwarding run through their vectorised block paths — the block's
    probes are forwarded as they are pulled, as :class:`Lanes`, from the
    addresses and the probe module's declared hop limit.  The block is a
    :class:`~repro.core.target.TargetBlock`: its addresses stay ints (and,
    with numpy, uint64 word columns) from derivation to the lanes (the
    blocklist walks its prefix trie on the int), and an :class:`IPv6Addr`
    is made only where something reads one: :meth:`Scanner.targets`, a
    packet, a trace span.

    :meth:`take` hands out the next targets as runs of one block's lanes
    (:data:`Run`).  ``position``, ``blocked_count`` and the veto counters
    advance with what is handed out: after each :meth:`take` — a chunk
    end, a checkpoint — they describe exactly the targets handed out so
    far, the vetoes among them and none after the last one.  The next
    block is pulled only when a target past this one's is asked for, and
    indices past a ``max_probes`` stop are never consumed.
    """

    def __init__(self, scanner: "Scanner") -> None:
        config = scanner.config
        self.scanner = scanner
        self.blocklist = config.blocklist
        self.veto_counters: Dict[tuple, object] = {}  # (reason, rule) -> Counter
        self.produced = 0
        self.indices = make_permutation(
            config.scan_range.count, seed=config.seed,
        ).indices(config.shard, config.shards)
        scanner.blocked_count = 0
        scanner.position = sum(1 for _index in islice(self.indices,
                                                      config.skip))
        self.lanes: Optional[Lanes] = None
        self.allowed: Sequence[int] = ()  # the block's unvetoed lanes
        self.cursor = 0  # of them, handed out
        self.base = scanner.position  # stream position of lane 0
        self.vetoes: List[tuple] = []  # (lane, reason, rule), in order
        self.vetoes_counted = 0

    def take(self, n: int) -> List[Run]:
        """The next runs, of ``n`` targets in all; fewer only where the
        stream ends."""
        runs: List[Run] = []
        while n > 0:
            if self.cursor == len(self.allowed):
                if not self._next_block():
                    break
                continue  # a block may be vetoed whole
            stop = min(self.cursor + n, len(self.allowed))
            run = self.allowed[self.cursor:stop]
            self._hand_out(int(run[-1]) + 1)
            n -= stop - self.cursor
            self.produced += stop - self.cursor
            self.cursor = stop
            runs.append((self.lanes, run))
        return runs

    def _hand_out(self, upto: int) -> None:
        """Lanes before ``upto`` of the block are handed out or vetoed."""
        scanner = self.scanner
        scanner.position = self.base + upto
        vetoes = self.vetoes
        while (self.vetoes_counted < len(vetoes)
               and vetoes[self.vetoes_counted][0] < upto):
            _lane, reason, rule = vetoes[self.vetoes_counted]
            self.vetoes_counted += 1
            scanner.blocked_count += 1
            counter = self.veto_counters.get((reason, rule))
            if counter is None:
                counter = self.veto_counters[reason, rule] = (
                    scanner.metrics.counter("scanner_blocklist_vetoes",
                                            reason=reason, rule=rule)
                )
            counter.inc()  # type: ignore[union-attr]

    def _next_block(self) -> bool:
        """Finish this block (the vetoes after its last target), then pull
        the next; False at the end of the stream."""
        if self.indices is None:  # the stream has ended
            return False
        scanner = self.scanner
        if self.lanes is not None:
            self._hand_out(len(self.lanes.values))
        max_probes = scanner.config.max_probes
        want = BLOCK_SIZE
        if max_probes is not None:
            want = min(want, max_probes - self.produced)
        indices = list(islice(self.indices, max(0, want)))
        if not indices:
            self.lanes = self.indices = None
            return False
        block = scanner.generator.addresses_block(indices)
        prime = getattr(getattr(scanner.probe, "validator", None), "prime",
                        None)
        if prime is not None:
            prime(block)
        self.lanes = Lanes(scanner.network, scanner.vantage, block,
                           scanner.probe.hop_limit,
                           max(1, scanner.config.probes_per_target))
        self.base = scanner.position
        self.cursor = self.vetoes_counted = 0
        self.vetoes = []
        self.allowed = range(len(block))
        if self.blocklist is not None:
            allowed = []
            for lane, value in enumerate(block.values):
                decision = self.blocklist.check(value)
                if decision.allowed:
                    allowed.append(lane)
                else:
                    self.vetoes.append((lane, decision.reason,
                                        str(decision.rule)))
            if self.vetoes:
                self.allowed = (
                    allowed if columnar._np is None
                    else columnar._np.array(allowed, dtype=columnar._np.int64)
                )
        return True


def _joined(runs: List[Run]) -> List[Run]:
    """``runs`` with each stretch of consecutive runs of one block joined
    into one run (a chunk pulled a target at a time is such a stretch)."""
    groups: List[Tuple[Lanes, List[Sequence[int]]]] = []
    for lanes, run in runs:
        if groups and groups[-1][0] is lanes:
            groups[-1][1].append(run)
        else:
            groups.append((lanes, [run]))
    return [(lanes, pieces[0] if len(pieces) == 1 else _concatenated(pieces))
            for lanes, pieces in groups]


def _concatenated(pieces: List[Sequence[int]]) -> Sequence[int]:
    if isinstance(pieces[0], range):  # a block's ranges follow each other
        return range(pieces[0].start, pieces[-1].stop)
    if columnar._np is None:
        return [lane for piece in pieces for lane in piece]
    return columnar._np.concatenate(pieces)


class Scanner:
    """XMap: scans a sub-prefix window of the (simulated) IPv6 Internet."""

    def __init__(
        self,
        network: Network,
        vantage: Device,
        probe: ProbeModule,
        config: ScanConfig,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[ProbeTracer] = None,
        sink: Optional["ResultSink"] = None,
    ) -> None:
        self.network = network
        self.vantage = vantage
        self.probe = probe
        self.config = config
        self.generator = TargetGenerator(
            config.scan_range,
            strategy=config.iid_strategy,
            seed=config.seed,
            fixed_iid=config.fixed_iid,
        )
        #: Telemetry registry: an explicit one wins; otherwise fresh per
        #: scan, or the shared no-op registry when collection is off.
        if metrics is not None:
            self.metrics = metrics
        elif config.collect_metrics:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = NULL_REGISTRY  # type: ignore[assignment]
        #: Probe-lifecycle tracer (off unless configured/injected).
        self.tracer = tracer if tracer is not None else ProbeTracer.from_spec(
            config.trace
        )
        self.pacer = VirtualPacer(network, config.rate_pps,
                                  metrics=self.metrics)
        #: Virtual-clock series sampler (None unless configured).  Created
        #: here, started when the scan loop starts, driven by the pacer.
        self.sampler = None
        if config.timeseries_interval > 0 and self.metrics.enabled:
            from repro.telemetry.timeseries import SeriesSampler

            self.sampler = SeriesSampler(
                self.metrics,
                config.timeseries_interval,
                shards=max(1, config.shards),
            )
        #: Streaming result sink.  When set, validated replies are emitted
        #: to the sink as they are produced *instead of* accumulating in
        #: ``result.results`` — peak resident rows are then bounded by the
        #: sink's own buffering (one segment block for a
        #: :class:`~repro.store.sink.SegmentSink`), not the reply volume.
        self.sink = sink
        self.blocked_count = 0
        #: Shard-stream positions consumed so far (skipped + blocked +
        #: probed) — what a checkpoint records as the resume offset.
        self.position = 0
        #: Result being accumulated by :meth:`run` (live view for hooks).
        self.result: Optional[ScanResult] = None
        #: The armed :class:`~repro.faults.injector.FaultInjector` while a
        #: fault schedule is active (the engine worker harvests its
        #: records); None when the scan runs without a fault layer.
        self.fault_injector: Optional["FaultInjector"] = None
        #: Called at chunk ends of :meth:`run`, where ``position`` and the
        #: stats describe exactly the probes sent; the orchestration engine
        #: hangs periodic checkpointing and failure injection here.  It
        #: returns the ``stats.sent`` count at which it next needs control
        #: (the scan cuts a chunk at the first target boundary reaching it);
        #: None means after the next target.
        self.on_progress: Optional[
            Callable[["Scanner"], Optional[float]]
        ] = None

    @classmethod
    def with_defaults(
        cls,
        network: Network,
        vantage: Device,
        scan_range: ScanRange | str,
        probe: ProbeModule | None = None,
        **config_kwargs,
    ) -> "Scanner":
        """Convenience constructor: echo probe, fresh validator, defaults."""
        if isinstance(scan_range, str):
            scan_range = ScanRange.parse(scan_range)
        if probe is None:
            from repro.core.probes.icmp import IcmpEchoProbe

            probe = IcmpEchoProbe(Validator(b"\x00" * 15 + b"\x01"))
        config = ScanConfig(scan_range=scan_range, **config_kwargs)
        return cls(network, vantage, probe, config)

    # -- target iteration ------------------------------------------------------

    def targets(self) -> Iterator[IPv6Addr]:
        """Probe addresses in permuted order (after blocklist filtering),
        pulled one at a time: while one is out, ``position`` and the veto
        counts describe the stream up to it."""
        take = self._pull().take
        while True:
            runs = take(1)
            if not runs:
                return
            ((lanes, run),) = runs
            yield IPv6Addr(lanes.values[run[0]])

    def _pull(self) -> "_Pull":
        """The target stream, handed out as runs of lanes (:class:`_Pull`)."""
        return _Pull(self)

    # -- resilience layer (all no-ops unless configured) -----------------------

    def _arm_faults(self) -> Optional["FaultInjector"]:
        """Arm the configured fault schedule, if any, against the network."""
        schedule = self.config.fault_schedule
        if schedule is None:
            return None
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            self.network, schedule, metrics=self.metrics,
            protected=(self.vantage.name,),
        )
        injector.arm()
        self.fault_injector = injector
        return injector

    def _hardening(self):
        """(AIMD controller, retransmit policy) per config — None when off."""
        config = self.config
        controller = policy = None
        if config.adaptive_rate:
            from repro.core.adaptive import AdaptiveRateController

            controller = AdaptiveRateController(self.pacer, config,
                                                self.metrics)
        if config.retransmit > 0:
            from repro.core.adaptive import RetransmitPolicy

            policy = RetransmitPolicy(config, self.metrics)
        return controller, policy

    def _retransmit(
        self,
        policy: "RetransmitPolicy",
        target: IPv6Addr,
        span: Optional["ProbeTrace"],
        account: Callable[[List[Packet], Optional["ProbeTrace"]], int],
    ) -> Tuple[int, int]:
        """Retry one silent target; returns (sent, validated) of the retries."""
        network = self.network
        source = self.vantage.primary_address
        h_hops = self.metrics.histogram("probe_hops", bounds=HOP_BUCKETS)
        sent = validated = 0
        for attempt in range(policy.limit):
            delay = policy.backoff(attempt)
            network.advance(delay)
            send_at = self.pacer.pace()
            packet = self.probe.build(source, target)
            if self.config.wire_mode:
                packet = Packet.decode(packet.encode())
            sent += 1
            policy.on_retransmit(delay)
            if span is not None:
                span.add("retransmit", send_at, attempt=attempt,
                         backoff=delay)
            network.active_trace = span
            ((inbox, delivery),) = network.inject_block([packet], self.vantage)
            network.active_trace = None
            h_hops.observe(delivery.hops)
            validated = account(inbox, span)
            if validated:
                policy.on_recovery()
                break
        return sent, validated

    # -- the scan loop -----------------------------------------------------------

    def _accounting(self, result: ScanResult) -> Tuple[
        Callable[[List[Packet], Optional["ProbeTrace"]], int],
        Callable[[Outcomes, Optional["ProbeTrace"]], int],
    ]:
        """The reply-accounting routines for one scan: classify → dedup →
        count → emit, for first sends and retransmits alike.

        ``account(replies, span)`` takes one target's reply packets and
        returns how many validated; stateless validation
        (``probe.classify``) comes before anything is counted as a result.
        ``settle(outcomes, span)`` accounts a whole chunk, its ejected
        lanes' replies and its rows in probe order — a row (an ICMPv6 error
        settled without packets) is validated by ``probe.validates_row``
        from its fields.  Either way a validated reply is packed once, its
        first :data:`~repro.core.rows.KEY_SIZE` bytes are the dedup key,
        and the row is what is emitted.
        """
        stats = result.stats
        metrics = self.metrics
        network = self.network
        classify = self.probe.classify
        validates_row = self.probe.validates_row
        wire = self.config.wire_mode
        sink = self.sink
        emit = sink.emit_row if sink is not None else result.results.rows.append
        pack = ROW.pack
        seen: Set[bytes] = set()
        # Hoisted so the per-reply cost is one bound-method call each; the
        # per-(kind,type,code) counters are cached because label lookups
        # build a dict key, too slow per reply.
        c_received = metrics.counter("scanner_replies_received")
        c_validated = metrics.counter("scanner_replies_validated")
        c_invalid = metrics.counter("scanner_replies_discarded",
                                    reason="validation-failed")
        c_duplicate = metrics.counter("scanner_replies_discarded",
                                      reason="duplicate")
        reply_counters: Dict[tuple, object] = {}

        def count(kind: ReplyKind, icmp_type: int, icmp_code: int,
                  n: int = 1) -> None:
            reply_key = (kind.value, icmp_type, icmp_code)
            counter = reply_counters.get(reply_key)
            if counter is None:
                counter = reply_counters[reply_key] = metrics.counter(
                    "scanner_replies", kind=kind.value,
                    icmp_type=icmp_type, icmp_code=icmp_code,
                )
            counter.inc(n)  # type: ignore[union-attr]

        def account(replies: List[Packet],
                    span: Optional["ProbeTrace"]) -> int:
            validated = 0
            for reply in replies:
                stats.received += 1
                c_received.inc()
                if wire:
                    reply = Packet.decode(reply.encode())
                classified = classify(reply)
                if classified is None:
                    stats.discarded += 1
                    c_invalid.inc()
                    if span is not None:
                        span.add("verdict", network.clock,
                                 outcome="validation-failed")
                    continue
                kind = classified.kind
                row = pack(
                    classified.target.to_bytes(),
                    classified.responder.to_bytes(),
                    KIND_CODE[kind],
                    classified.icmp_type & 0xFF,
                    classified.icmp_code & 0xFF,
                )
                key = row[:KEY_SIZE]
                if key in seen:
                    stats.discarded += 1
                    c_duplicate.inc()
                    if span is not None:
                        span.add("verdict", network.clock,
                                 outcome="duplicate")
                    continue
                seen.add(key)
                validated += 1
                stats.validated += 1
                c_validated.inc()
                count(kind, classified.icmp_type, classified.icmp_code)
                if span is not None:
                    span.add(
                        "verdict", network.clock, outcome="validated",
                        kind=kind.value,
                        responder=str(classified.responder),
                    )
                emit(row)
            return validated

        kind_codes = _ROW_KIND_CODES

        def account_rows(rows) -> int:
            invalid = duplicates = 0
            tally: Dict[tuple, int] = {}  # (kind code, type, code) -> rows
            for _i, responder, target, icmp_type, code, _quoted, _limit in rows:
                kind_code = kind_codes.get((icmp_type, code))
                if kind_code is None or not validates_row(target):
                    invalid += 1
                    continue
                row = pack(target.to_bytes(16, "big"), responder.to_bytes(),
                           kind_code, icmp_type, code)
                key = row[:KEY_SIZE]
                if key in seen:
                    duplicates += 1
                    continue
                seen.add(key)
                reply_key = (kind_code, icmp_type, code)
                tally[reply_key] = tally.get(reply_key, 0) + 1
                emit(row)
            received = len(rows)
            validated = received - invalid - duplicates
            for (kind_code, icmp_type, code), n in tally.items():
                count(KINDS[kind_code], icmp_type, code, n)
            stats.received += received
            c_received.inc(received)
            if invalid or duplicates:
                stats.discarded += invalid + duplicates
                c_invalid.inc(invalid)
                c_duplicate.inc(duplicates)
            stats.validated += validated
            c_validated.inc(validated)
            return validated

        def settle(outcomes: Outcomes, span: Optional["ProbeTrace"]) -> int:
            rows = outcomes.rows
            if not outcomes.ejected:  # a chunk of rows and silence
                return account_rows(rows) if rows else 0
            answered = [(i, inbox) for i, (inbox, _trace)
                        in outcomes.ejected.items() if inbox]
            if not rows:
                return sum(account(inbox, span) for _i, inbox in answered)
            validated = start = 0
            for i, inbox in answered:  # interleaved in probe order
                stop = start
                while stop < len(rows) and rows[stop][0] < i:
                    stop += 1
                validated += account_rows(rows[start:stop])
                validated += account(inbox, span)
                start = stop
            return validated + account_rows(rows[start:])

        return account, settle

    def run(self) -> ScanResult:
        """Scan the window: permute → forward → pace → send → validate.

        One loop over *chunks* of targets.  A chunk's targets arrive with
        their lanes — the block they were pulled in went through the
        forwarding engine's vector phase then — and are paced in one go
        (device-side ICMPv6 limiters read the virtual clock, so every
        probe's send time rides along).  :meth:`Network.inject_block`
        finishes the chunk in probe order, building the packet of a probe
        only if its lane ejected to the scalar engine (``wire_mode`` and a
        traced target build every probe first), and the replies go through
        the one accounting routine.  ``sent`` is flushed and
        :attr:`on_progress` runs at chunk ends only.  A chunk ends at the
        first of:

        * :data:`BLOCK_SIZE` targets;
        * the series sampler's next bucket boundary: the chunk is cut before
          a target whose sends could reach it, so a bucket only ever closes
          at a chunk's first send, with every earlier probe accounted;
        * the ``sent`` count at which the progress hook next needs control;
        * the end of the adaptive-rate controller's window, so a rate
          decision paces exactly the targets after it;
        * one target, when the scan must see a target's replies before
          pacing the next (probe tracing, retransmission).

        A chunk's own cost beyond its lanes is kept small, because the
        progress hook's checkpoint cadence can cut a chunk every few dozen
        probes: a run of lanes replays off its block's busy index (no numpy
        for its silent lanes), the hop histogram only queues the chunk's
        hop column (:meth:`~repro.telemetry.metrics.Histogram.observe_many`
        folds the queue when something reads it), and a chunk of nothing but
        rows and silence is settled without walking its ejected lanes.
        """
        config = self.config
        network = self.network
        vantage = self.vantage
        result = ScanResult(range=config.scan_range)
        self.result = result
        stats = result.stats
        stats.virtual_start = network.clock
        started = time.perf_counter()
        source = vantage.primary_address
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer.enabled
        sampler = self.sampler
        pacer = self.pacer
        c_sent = metrics.counter("scanner_probes_sent")
        account, settle = self._accounting(result)
        observe_hops = metrics.histogram("probe_hops",
                                         bounds=HOP_BUCKETS).observe_many
        controller, policy = self._hardening()
        single = tracing or policy is not None

        # Hot-loop hoists: bound methods looked up once per scan.
        copies = max(1, config.probes_per_target)
        wire = config.wire_mode
        pace_block = pacer.pace_block
        next_send_time = pacer.bucket.next_send_time
        build = self.probe.build
        inject_block = network.inject_block
        take = self._pull().take
        # Errors come back as rows where the probe module can validate one
        # from its fields; ``wire_mode`` decodes every reply's bytes.
        rows_from = (source if self.probe.validates_row is not None
                     and not wire else None)

        def materialiser(runs: List[Run]) -> Callable[[int], Packet]:
            # Asked for by ``inject_block`` when something stateful has to
            # look at the chunk's probe ``i``; most die silently.  Holds the
            # runs, not the chunk's ``Probes``, which holds it: a cycle per
            # chunk would be left to the garbage collector.
            targets: List[int] = []

            def packet(i: int) -> Packet:
                if not targets:
                    targets.extend(destinations(runs))
                return build(source, IPv6Addr(targets[i]))

            return packet

        def snapshot() -> None:
            # Keep the trailing counters coherent so progress hooks (and
            # the checkpoints they write) see a consistent snapshot.
            stats.blocked = self.blocked_count
            stats.virtual_end = network.clock
            stats.wall_seconds = time.perf_counter() - started

        # The ``sent`` count the progress hook next needs control at: after
        # the first target until the hook has named a later point.
        sync = 0.0 if self.on_progress is not None else math.inf
        injector = self._arm_faults()
        if sampler is not None:
            # Pin the bucket origin to this scan's starting clock (prebuilt
            # serial networks keep their clock across shards) and let the
            # pacer cut bucket boundaries between probes.
            sampler.start(network.clock)
            pacer.sampler = sampler
        try:
            while True:
                # Targets up to the hook's sync point and the controller's
                # window end: one at least, a block at most.
                left = sync - stats.sent
                if controller is not None:
                    left = min(left, controller.window_left())
                want = 1 if single else max(1, math.ceil(
                    min(BLOCK_SIZE, left / copies)
                ))
                runs: List[Run] = []
                taken = 0
                clocks: List[float] = []
                span = None
                while taken < want:
                    if (
                        sampler is not None
                        and taken
                        # Worst-case last send of the next target's copies:
                        # the bucket's next send plus one saturated
                        # inter-send gap per copy (bursts only come sooner).
                        and next_send_time(network.clock)
                        + copies / pacer.rate >= sampler.boundary
                    ):
                        break
                    # That rule reads the clock between targets; without a
                    # sampler the chunk is pulled, then paced, in one go.
                    pulled = take(1 if sampler is not None else want - taken)
                    if not pulled:
                        break
                    count = sum([len(run) for _lanes, run in pulled])
                    runs += pulled
                    taken += count
                    if tracing:  # hence single: ``pulled`` is the chunk
                        lanes, run = pulled[0]
                        target = IPv6Addr(lanes.values[run[0]])
                        span = tracer.begin(target)
                        if span is not None:
                            span.add("generated", network.clock,
                                     target=str(target),
                                     position=self.position)
                            if config.blocklist is not None:
                                span.add("blocklist_check", network.clock,
                                         verdict="allowed")
                    sends = pace_block(count * copies)
                    if span is not None:
                        for copy, send_at in enumerate(sends):
                            span.add("paced_send", send_at, copy=copy)
                    clocks += sends
                if not runs:
                    break  # the stream is exhausted
                if len(runs) > 1:
                    runs = _joined(runs)
                if wire:  # every probe crosses the codec, silent or not
                    packet = [
                        Packet.decode(build(source, IPv6Addr(value)).encode())
                        for value in destinations(runs)
                    ].__getitem__
                else:
                    packet = materialiser(runs)
                probes = Probes(runs, packet, rows_from)
                network.active_trace = span
                outcomes = inject_block(probes, vantage, clocks)
                network.active_trace = None
                sent = taken * copies  # ``len(probes)``
                stats.sent += sent
                c_sent.inc(sent)
                observe_hops(outcomes.hops)
                validated = settle(outcomes, span)
                if single:  # the chunk is one target
                    if policy is not None and not validated:
                        resent, validated = self._retransmit(
                            policy, IPv6Addr(next(destinations(runs))), span,
                            account
                        )
                        stats.sent += resent
                        c_sent.inc(resent)
                        sent += resent
                    if span is not None:
                        tracer.finish(span)
                if controller is not None:
                    controller.record(sent, validated)
                if self.on_progress is not None:
                    snapshot()
                    sync = self.on_progress(self) or 0.0
        finally:
            if sampler is not None:
                pacer.sampler = None
                sampler.finish(network.clock)
            if injector is not None:
                injector.restore()

        snapshot()
        metrics.gauge("scanner_stream_position").set(self.position)
        metrics.gauge("virtual_clock_seconds").set(network.clock)
        return result

    # ``benchmarks/e2e/trace.py`` wraps ``vars(Scanner)["run_batched"]`` and
    # that directory is frozen for this change; nothing else may call this.
    # The next ``benchmark`` PR drops the TARGETS row and this alias together.
    run_batched = run
