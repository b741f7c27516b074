"""The campaign runner: many ranges × many shards, with retry and resume.

A *campaign* is the paper's operational unit — §IV-E scans twelve ISPs'
delegated windows back to back over 48 hours.  ``Campaign`` sequences any
number of :class:`~repro.core.scanner.ScanConfig` ranges through an
executor backend: each range is split into shards by the
:class:`~repro.engine.planner.ShardPlanner`, shards run (serially or in a
thread/process pool), failures retry with exponential backoff, and shard
results merge back — cross-shard reply dedup included — into one
:class:`~repro.core.scanner.ScanResult` per range plus aggregate
:class:`~repro.core.stats.ScanStats`.

With a checkpoint directory the campaign is interruptible: completed shards
are never re-executed on resume (zero probes re-sent), and partially
scanned shards fast-forward to their checkpointed stream position.

Telemetry: every campaign owns a structured
:class:`~repro.telemetry.events.EventLog` (campaign start/finish, shard
completion with shard coordinates, retries, backoff waits, checkpoint
writes ingested from workers) and folds the per-shard
:class:`~repro.telemetry.metrics.MetricsRegistry` snapshots shipped back
on each :class:`~repro.engine.worker.ShardOutcome` into one campaign-wide
registry — so a 4-shard process-pool scan reports the same probe/reply/
veto counters as its single-shot equivalent.  A
:class:`~repro.engine.monitor.ProgressMonitor` renders its status lines as
a subscriber of that log.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.scanner import ScanConfig, ScanResult
from repro.core.stats import ScanStats
from repro.engine.checkpoint import CheckpointStore
from repro.engine.executor import Executor, WatchdogTimeout, make_executor
from repro.engine.monitor import ProgressMonitor
from repro.engine.planner import ProbeSpec, ShardJob, ShardPlanner
from repro.engine.supervisor import Supervisor, SupervisorPolicy
from repro.engine.worker import ShardOutcome
from repro.net.spec import BuiltTopology, TopologySpec
from repro.telemetry.events import EventLog
from repro.telemetry.health import HealthEngine, HealthReport
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.timeseries import SeriesSet


class CampaignError(RuntimeError):
    """A shard exhausted its retries, or resume state is inconsistent."""

    def __init__(self, message: str, failures: Optional[Dict[str, Exception]] = None):
        super().__init__(message)
        self.failures = failures or {}


class CampaignAborted(RuntimeError):
    """An injected abort tripped at a shard boundary; nothing committed.

    Unlike the supervisor's SIGTERM drain — which *commits* whatever
    completed as a degraded partial snapshot — an abort leaves the store
    untouched: completed shards' checkpoints and sealed (uncommitted)
    segments persist on disk, so re-running the same campaign with
    ``resume=True`` skips every finished shard and converges to a store
    bit-identical to an uninterrupted run.  This is the primitive a
    scheduling daemon uses to preempt or drain a lease it intends to
    resume later.
    """


@dataclass
class CampaignResult:
    """Merged per-range results plus campaign-wide accounting."""

    results: Dict[str, ScanResult]  # label -> merged, deduped result
    outcomes: List[ShardOutcome] = field(default_factory=list)
    stats: ScanStats = field(default_factory=ScanStats)
    wall_seconds: float = 0.0
    #: Campaign-wide metrics: every shard's registry snapshot merged.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Sampled probe-lifecycle traces from all shards (plain dicts).
    traces: List[Dict[str, object]] = field(default_factory=list)
    #: The campaign's structured event log (None only if never run).
    events: Optional[EventLog] = None
    #: The :mod:`repro.store` snapshot this run committed (store mode only).
    snapshot: Optional[str] = None
    #: ``ResultStore.info()`` taken right after the commit (store mode only).
    store_info: Optional[Dict[str, object]] = None
    #: Shard time series merged per-bucket (None unless the configs set a
    #: ``timeseries_interval``); bit-identical across executor backends.
    timeseries: Optional[SeriesSet] = None
    #: Health verdicts over :attr:`timeseries` (None unless enabled).
    health: Optional[HealthReport] = None
    #: Flight-recorder bundles written during this run (paths).
    flight_bundles: List[str] = field(default_factory=list)
    #: Shards the supervisor parked (:meth:`ParkedShard.to_dict` dicts, in
    #: parking order); always empty without a supervisor.
    degraded: List[Dict[str, object]] = field(default_factory=list)
    #: True when a SIGTERM drain cut the campaign short (graceful exit:
    #: completed shards committed, undispatched shards parked as drained).
    drained: bool = False

    @property
    def sent_this_run(self) -> int:
        """Probes actually sent by this invocation (checkpoint skips are 0)."""
        return sum(outcome.sent_this_run for outcome in self.outcomes)

    @property
    def shards_from_checkpoint(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_checkpoint)

    def metadata(self) -> Dict[str, object]:
        return {
            "campaign": self.events.campaign_id if self.events else "",
            "ranges": len(self.results),
            "shards": len(self.outcomes),
            "shards_from_checkpoint": self.shards_from_checkpoint,
            "sent": self.stats.sent,
            "sent_this_run": self.sent_this_run,
            "validated": self.stats.validated,
            "hit_rate": self.stats.hit_rate,
            "wall_seconds": self.wall_seconds,
            "snapshot": self.snapshot or "",
            "degraded": len(self.degraded),
            "drained": self.drained,
        }


class Campaign:
    """Orchestrates sharded scans of one or many ranges.

    ``configs`` maps labels to scan configs (a bare sequence gets labelled
    by range).  ``probe`` defaults per range to the probe a single-shot
    ``discover()`` of that config's seed would use, so engine campaigns and
    legacy scans produce identical reply sets.
    """

    def __init__(
        self,
        topology: TopologySpec,
        configs: Union[Mapping[str, ScanConfig], Sequence[ScanConfig]],
        probe: Optional[ProbeSpec] = None,
        shards: int = 1,
        executor: Union[str, Executor] = "serial",
        workers: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 256,
        resume: bool = False,
        monitor: Optional[ProgressMonitor] = None,
        max_retries: int = 2,
        backoff_base: float = 0.1,
        prebuilt: Optional[BuiltTopology] = None,
        events: Optional[EventLog] = None,
        shard_timeout: Optional[float] = None,
        store_dir: Optional[str] = None,
        snapshot: Optional[str] = None,
        health: bool = False,
        flight_dir: Optional[str] = None,
        supervisor: Optional[SupervisorPolicy] = None,
        abort_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        if isinstance(configs, Mapping):
            self.configs: Dict[str, ScanConfig] = dict(configs)
        else:
            self.configs = {str(c.scan_range): c for c in configs}
        if not self.configs:
            raise ValueError("a campaign needs at least one scan range")
        self.topology = topology
        self.probe = probe
        self.shards = shards
        self.workers = workers
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.monitor = monitor
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        #: Degraded-mode supervision (see :mod:`repro.engine.supervisor`);
        #: None — the default — runs the stock fail-fast retry loop.
        self.supervisor_policy = supervisor
        #: Set by :meth:`_prepare_result_store` on resume when this round's
        #: snapshot already committed (the crash happened after the manifest
        #: rewrite); :meth:`_commit_segments` then verifies instead of
        #: committing twice.
        self._snapshot_preexists = False
        #: Structured journal of everything the campaign does.  The monitor
        #: renders status lines as a subscriber, so the log is the single
        #: source of truth for progress reporting.
        # ``is not None``, not truthiness: an empty EventLog has len 0 and
        # would be silently replaced, orphaning the caller's subscribers.
        self.events = events if events is not None else EventLog()
        self.store_dir = store_dir
        #: The round name this run's segments commit under; every campaign
        #: run gets a distinct default so longitudinal rounds into one store
        #: never collide.
        self.snapshot = (
            (snapshot or f"round-{self.events.campaign_id}")
            if store_dir else None
        )
        #: Evaluate the stock health rules
        #: (:func:`~repro.telemetry.health.default_rules`) over the merged
        #: series after the run.
        self._health = health
        #: Crash telemetry, when ``flight_dir`` names a bundle directory.
        self.recorder: Optional[FlightRecorder] = None
        if flight_dir is not None:
            self.recorder = FlightRecorder(flight_dir)
            self.recorder.attach(self.events)
        if monitor is not None:
            self.events.subscribe(monitor.handle_event)
        #: Optional external preemption probe, polled at shard boundaries;
        #: returning True aborts the run (no commit) via
        #: :class:`CampaignAborted`.
        self.abort_check = abort_check
        self._abort = threading.Event()
        if isinstance(executor, Executor):
            self.executor = executor
        else:
            self.executor = make_executor(
                executor, workers=workers, prebuilt=prebuilt,
                shard_timeout=shard_timeout,
            )
        self.planner = ShardPlanner(shards)

    # -- preemption ----------------------------------------------------------

    def request_abort(self) -> None:
        """Ask the run to stop at the next shard boundary (no commit).

        Thread-safe; callable from any thread (a daemon's signal handler or
        scheduler loop).  The run raises :class:`CampaignAborted` once the
        in-flight shard batch completes.
        """
        self._abort.set()

    def _should_abort(self) -> bool:
        if self._abort.is_set():
            return True
        return self.abort_check is not None and bool(self.abort_check())

    def _abort_now(self, pending: int, completed: int) -> None:
        self.events.emit(
            "campaign_aborted", pending=pending, completed=completed
        )
        raise CampaignAborted(
            f"campaign aborted at shard boundary "
            f"({completed} shards done, {pending} pending)"
        )

    # -- planning ------------------------------------------------------------

    def plan(self) -> List[ShardJob]:
        """All shard jobs, range by range, in submission order."""
        jobs: List[ShardJob] = []
        for label, config in self.configs.items():
            probe = self.probe or ProbeSpec.for_seed(config.seed)
            jobs.extend(
                self.planner.plan(
                    config,
                    self.topology,
                    probe,
                    label=label,
                    checkpoint_dir=self.checkpoint_dir,
                    checkpoint_every=self.checkpoint_every,
                    store_dir=self.store_dir,
                    store_prefix=f"{self.snapshot}." if self.snapshot else "",
                )
            )
        return jobs

    def _prepare_store(self) -> None:
        if self.checkpoint_dir is None:
            return
        store = CheckpointStore(
            self.checkpoint_dir, on_event=lambda rec: self.events.ingest([rec])
        )
        manifest = {
            "ranges": sorted(self.configs),
            "shards": self.shards,
            "seeds": sorted({c.seed for c in self.configs.values()}),
        }
        existing = store.load_manifest()
        if self.resume:
            if existing is not None and (
                existing.get("ranges") != manifest["ranges"]
                or existing.get("shards") != manifest["shards"]
                or existing.get("seeds") != manifest["seeds"]
            ):
                raise CampaignError(
                    f"checkpoint directory {self.checkpoint_dir} belongs to a "
                    f"different campaign (manifest {existing!r}); refusing to "
                    "resume"
                )
        else:
            store.clear()
        store.write_manifest(manifest)

    def _prepare_result_store(self, metrics: MetricsRegistry):
        """Open (and validate) the result store before any probe is sent.

        Fail-fast: a corrupt manifest or a snapshot-name collision should
        abort the campaign *before* a 48-hour scan, not after it.  Returns
        the open :class:`~repro.store.store.ResultStore`, or None when the
        campaign runs storeless.
        """
        if self.store_dir is None:
            return None
        from repro.store.store import ResultStore, StoreError

        try:
            store = ResultStore(
                self.store_dir, metrics=metrics,
                on_event=lambda rec: self.events.ingest([rec]),
            )
        except StoreError as exc:
            raise CampaignError(f"result store unusable: {exc}") from exc
        assert self.snapshot is not None
        if self.snapshot in store.snapshots:
            if self.resume:
                # The previous invocation died *after* its manifest rewrite
                # landed: the round is already durable.  Workers will
                # re-seal byte-identical segments over the committed files
                # (their content is a pure function of the checkpoint
                # state), so the run proceeds and the commit step verifies
                # rather than double-committing.
                self._snapshot_preexists = True
                self.events.emit(
                    "store_snapshot_resumed", snapshot=self.snapshot
                )
                return store
            raise CampaignError(
                f"snapshot {self.snapshot!r} already exists in "
                f"{self.store_dir}; pick a different round name"
            )
        return store

    def _segment_prefix(self) -> str:
        """This round's segment-file namespace (for the orphan sweep)."""
        from repro.store.store import ResultStore

        assert self.snapshot is not None
        return ResultStore.segment_name(self.snapshot + ".")[: -len(".seg")]

    def _commit_segments(
        self,
        store,
        ordered: List[ShardOutcome],
        result: CampaignResult,
        supervisor: Optional[Supervisor] = None,
    ) -> None:
        """One manifest rewrite makes every shard's sealed segment — and the
        round's snapshot — visible atomically.  Workers only ever sealed
        files; nothing was queryable until now."""
        from repro.store.store import StoreError

        assert self.snapshot is not None
        if self._snapshot_preexists:
            # Already committed by the invocation that died after its
            # manifest rewrite; this run's re-sealed segments replaced the
            # committed files byte-for-byte.  Sweep any sealed-but-never-
            # committed leftovers in this round's namespace and move on.
            store.sweep_orphans(prefix=self._segment_prefix())
            result.snapshot = self.snapshot
            result.store_info = store.info()
            return
        metas = [o.segment for o in ordered if o.segment is not None]
        labels: Dict[str, List[str]] = {}
        for outcome in ordered:
            if outcome.segment is not None:
                labels.setdefault(outcome.label, []).append(
                    str(outcome.segment["name"])
                )
        snapshot_meta: Dict[str, object] = {
            "campaign": self.events.campaign_id,
            "shards": self.shards,
            "labels": labels,
        }
        if supervisor is not None and supervisor.parked:
            # A partial commit: the snapshot says so, queryably, forever.
            snapshot_meta["degraded"] = supervisor.degraded_ids
        try:
            store.commit(
                metas,
                snapshot=self.snapshot,
                snapshot_meta=snapshot_meta,
            )
        except StoreError as exc:
            raise CampaignError(
                f"committing shard segments failed: {exc}"
            ) from exc
        # Crash-recovery janitor: segments a *previous* invocation sealed
        # but never committed (killed between seal and manifest rewrite)
        # are garbage now that this round's commit landed.
        store.sweep_orphans(prefix=self._segment_prefix())
        result.snapshot = self.snapshot
        result.store_info = store.info()
        self.events.emit(
            "store_committed",
            snapshot=self.snapshot,
            segments=len(metas),
            rows=sum(int(m.get("rows", 0)) for m in metas),
        )

    # -- execution -----------------------------------------------------------

    def run(self, jobs: Optional[List[ShardJob]] = None) -> CampaignResult:
        """Run (or resume) the campaign; raises CampaignError on failure."""
        started = time.perf_counter()
        self._prepare_store()
        metrics = MetricsRegistry()
        recorder = self.recorder
        if recorder is not None:
            recorder.metrics = metrics
        result_store = self._prepare_result_store(metrics)
        if jobs is None:
            jobs = self.plan()

        self.events.emit(
            "campaign_started", shards=len(jobs), ranges=len(self.configs)
        )

        traces: List[Dict[str, object]] = []
        series: Optional[SeriesSet] = None
        attempts: Dict[str, int] = {job.job_id: 0 for job in jobs}
        outcomes: Dict[str, ShardOutcome] = {}
        pending = list(jobs)
        wave = 0
        supervisor = (
            Supervisor(self.supervisor_policy, events=self.events,
                       metrics=metrics)
            if self.supervisor_policy is not None
            else None
        )
        # SIGTERM scopes for the run: the recorder's dump-on-SIGTERM, with
        # the supervisor's drain handler installed inside it, so the first
        # SIGTERM requests a graceful drain and a second chains through to
        # the recorder's dump-and-die handler (operator escalation).  Both
        # are pass-through off the main thread, so a daemon's lease threads
        # never touch the process handler.
        sigterm = (
            recorder.sigterm_scope() if recorder is not None
            else contextlib.nullcontext()
        )
        drain = (
            supervisor.drain_scope() if supervisor is not None
            else contextlib.nullcontext()
        )
        with sigterm, drain:
            while pending:
                if self._should_abort():
                    self._abort_now(len(pending), len(outcomes))
                if supervisor is not None and supervisor.draining:
                    for job in pending:
                        supervisor.park_drained(
                            job.job_id, attempts[job.job_id]
                        )
                    pending = []
                    break
                if wave and self.backoff_base:
                    delay = self.backoff_base * (2 ** (wave - 1))
                    self.events.emit("backoff", wave=wave, delay=delay)
                    time.sleep(delay)
                retry: List[ShardJob] = []
                failures: Dict[str, Exception] = {}
                # With a supervisor (or an injected abort probe) on the
                # serial backend, dispatch one job at a time so a drain or
                # abort request takes effect between shards; pooled backends
                # dispatch the whole wave and stop at its barrier (in-flight
                # shards run to completion either way).
                interruptible = (
                    supervisor is not None
                    or self.abort_check is not None
                    or self._abort.is_set()
                )
                if interruptible and self.executor.name == "serial":
                    batches: List[List[ShardJob]] = [[j] for j in pending]
                else:
                    batches = [list(pending)]
                returns = []
                aborted_boundary = False
                for batch in batches:
                    if self._should_abort():
                        aborted_boundary = True
                        break
                    if supervisor is not None and supervisor.draining:
                        for job in batch:
                            supervisor.park_drained(
                                job.job_id, attempts[job.job_id]
                            )
                        continue
                    returns.extend(self.executor.run_jobs(batch))
                for job, outcome in returns:
                    attempts[job.job_id] += 1
                    if isinstance(outcome, Exception):
                        if isinstance(outcome, WatchdogTimeout):
                            # A hung worker the watchdog abandoned; it counts
                            # toward max_retries like any other shard failure.
                            metrics.counter("campaign_watchdog_kills").inc()
                            self.events.emit(
                                "watchdog_timeout",
                                job_id=job.job_id,
                                attempt=attempts[job.job_id],
                                error=str(outcome),
                            )
                        if supervisor is not None:
                            # Parked shards leave the rotation; the
                            # supervisor already journalled why.
                            again = supervisor.note_failure(
                                job.job_id, outcome,
                                attempts[job.job_id], self.max_retries,
                            ) == "retry"
                        else:
                            again = attempts[job.job_id] <= self.max_retries
                            if not again:
                                failures[job.job_id] = outcome
                        if again:
                            retry.append(job)
                            self.events.emit(
                                "shard_retry",
                                job_id=job.job_id,
                                attempt=attempts[job.job_id],
                                error=str(outcome),
                            )
                        continue
                    outcome.attempts = attempts[job.job_id]
                    outcomes[job.job_id] = outcome
                    metrics.merge_dict(outcome.metrics)
                    traces.extend(outcome.traces)
                    if outcome.timeseries is not None:
                        shard_series = SeriesSet.from_dict(outcome.timeseries)
                        if series is None:
                            series = shard_series
                        else:
                            series.merge(shard_series)
                        if recorder is not None:
                            recorder.series = series
                    if recorder is not None and outcome.traces:
                        recorder.add_traces(outcome.traces)
                    self.events.ingest(outcome.events)
                    self.events.emit(
                        "shard_finished",
                        job_id=job.job_id,
                        label=outcome.label,
                        shard=job.config.shard,
                        shards=job.config.shards,
                        sent_this_run=outcome.sent_this_run,
                        sent=outcome.result.stats.sent,
                        validated=outcome.result.stats.validated,
                        from_checkpoint=outcome.from_checkpoint,
                        attempts=outcome.attempts,
                        worker=outcome.worker,
                    )
                if failures:
                    self.events.emit(
                        "campaign_failed", failed=sorted(failures)
                    )
                    # The crash artifact: whatever telemetry tail exists at
                    # the moment the campaign gives up.  Trigger events
                    # (watchdog kills, quarantines) already dumped their own
                    # bundles; this path covers plain shard failures.
                    if recorder is not None:
                        recorder.dump("campaign_failed")
                    raise CampaignError(
                        "shards failed after retries: "
                        + ", ".join(sorted(failures)),
                        failures,
                    )
                if aborted_boundary:
                    # Completed batches were ingested above (their
                    # checkpoints and sealed segments are durable); the
                    # rest of the wave never dispatched.
                    self._abort_now(
                        len(jobs) - len(outcomes), len(outcomes)
                    )
                pending = retry
                wave += 1

        # Without a supervisor every job has an outcome here (or the run
        # raised); with one, parked shards are simply absent.
        ordered = [
            outcomes[job.job_id] for job in jobs if job.job_id in outcomes
        ]
        result = CampaignResult(results={})
        result.outcomes = ordered
        result.metrics = metrics
        result.traces = traces
        result.events = self.events
        for label, config in self.configs.items():
            merged = ScanResult(range=config.scan_range)
            for outcome in ordered:
                if outcome.label == label:
                    merged.merge(outcome.result)
            result.results[label] = merged
            result.stats.merge(merged.stats)
        result.timeseries = series
        if self._health and series is not None:
            report = HealthEngine().evaluate(series)
            report.emit(self.events)
            result.health = report
            metrics.counter("campaign_health_windows").inc(
                len(report.windows)
            )
        if supervisor is not None:
            result.degraded = [s.to_dict() for s in supervisor.parked]
            result.drained = supervisor.draining
            if supervisor.parked:
                self.events.emit(
                    "campaign_degraded",
                    shards=supervisor.degraded_ids,
                    completed=len(ordered),
                )
            if supervisor.draining:
                self.events.emit(
                    "campaign_drained",
                    completed=len(ordered),
                    parked=len(supervisor.parked),
                )
        if result_store is not None:
            self._commit_segments(
                result_store, ordered, result, supervisor=supervisor
            )
        result.wall_seconds = time.perf_counter() - started
        metrics.counter("campaign_shards_completed").inc(len(ordered))
        metrics.counter("campaign_shards_from_checkpoint").inc(
            result.shards_from_checkpoint
        )
        metrics.gauge("campaign_wall_seconds").set(result.wall_seconds)
        self.events.emit(
            "campaign_finished",
            wall_seconds=result.wall_seconds,
            sent=result.stats.sent,
            validated=result.stats.validated,
            shards=len(ordered),
        )
        if recorder is not None:
            result.flight_bundles = list(recorder.bundles)
        return result
