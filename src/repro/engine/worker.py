"""The shard execution entry point — runs in-process, in a thread, or in a
pool worker.

:func:`execute_job` is a module-level function taking one picklable
:class:`~repro.engine.planner.ShardJob`, so a
``concurrent.futures.ProcessPoolExecutor`` can ship it across process
boundaries.  Each invocation checks the simulator topology out of the
process's artifact pool by the job's :class:`~repro.net.spec.TopologySpec`
(the live ``Network`` is not picklable: a process builds a spec's world the
first time it meets it and scans the restored artifact from then on),
rebuilds the probe from its :class:`ProbeSpec`, fast-forwards past any
checkpointed progress via ``ScanConfig.skip``, runs the scanner, and
persists the shard's final (or, periodically, partial) state.  A
``prebuilt`` topology is a different promise: scan *that* network as it
stands — mutated or not, its clock running on from the last shard.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.scanner import Scanner, ScanResult
from repro.engine.checkpoint import DONE, PARTIAL, CheckpointStore, ShardState
from repro.engine.planner import ShardJob
from repro.net.spec import BuiltTopology
from repro.telemetry.events import WorkerEventBuffer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import ProbeTracer


class WorkerInterrupted(KeyboardInterrupt):
    """Injected worker death (failure injection / kill simulation).

    Subclasses :class:`KeyboardInterrupt` deliberately: like a real ^C or
    SIGKILL it must *not* be swallowed by the executors' per-shard
    ``except Exception`` retry handling — it aborts the whole campaign,
    leaving only what the checkpoint store already persisted.
    """


@dataclass
class ShardOutcome:
    """What one shard execution (or checkpoint skip) produced."""

    job: ShardJob
    result: ScanResult
    #: Probes actually sent by this invocation — 0 when the shard was
    #: restored from a completed checkpoint (the resume guarantee).
    sent_this_run: int
    from_checkpoint: bool = False
    resumed_at: int = 0  # stream position the scan fast-forwarded to
    attempts: int = 1
    worker: str = ""
    #: Exported :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot
    #: (picklable dict); None when the shard collected no metrics.
    metrics: Optional[Dict[str, object]] = None
    #: Sampled probe-lifecycle traces (picklable dicts).
    traces: List[Dict[str, object]] = field(default_factory=list)
    #: Worker-local structured events (checkpoint writes, restores, …)
    #: for the campaign's EventLog to ingest.
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Exported shard-local time series (picklable
    #: :meth:`~repro.telemetry.timeseries.SeriesSet.to_dict`); None when
    #: the job's config has no ``timeseries_interval``.
    timeseries: Optional[Dict[str, object]] = None
    #: Sealed :mod:`repro.store` segment metadata for this shard's rows
    #: (picklable dict from ``SegmentWriter.seal``); None when the job has
    #: no ``store_dir``.  The campaign parent commits these — workers never
    #: touch the store manifest, so there is nothing to race on.
    segment: Optional[Dict[str, object]] = None

    @property
    def label(self) -> str:
        return self.job.label


def _segment_writer(job: ShardJob, os_layer=None):
    """A :class:`~repro.store.segment.SegmentWriter` for this shard's rows.

    Each shard writes its own uniquely named file under the store's segment
    directory, so parallel workers never contend; a retried attempt seals
    over the same final name (atomic replace — last seal wins).  Only the
    campaign parent commits names into the manifest.
    """
    from repro.store.segment import SegmentWriter
    from repro.store.store import ResultStore

    assert job.store_dir is not None
    name = ResultStore.segment_name(f"{job.store_prefix}{job.job_id}")
    path = os.path.join(job.store_dir, ResultStore.SEGMENT_DIR, name)
    return SegmentWriter(path, os_layer=os_layer)


class _Cumulative:
    """A shard's result across attempts, advanced in O(new rows).

    The rows are the restored attempt's reply set plus what the running
    attempt has added (deduplicated on the scan's own key, as
    :meth:`ScanResult.merge` does); without a restored attempt they are the
    running scan's own list.  ``written`` counts the rows a checkpoint has
    already handed to the store.
    """

    def __init__(self, prior: Optional[ScanResult]) -> None:
        self._rows: Optional[ScanResult] = None  # its stats are not used
        self.written = 0
        if prior is not None:
            self._prior_stats = prior.stats
            self._rows = ScanResult(range=prior.range)
            self._rows.merge(prior)
            self.written = len(self._rows.results)
        self._folded = 0  # rows of the running attempt already in _rows

    def result(self, current: ScanResult) -> ScanResult:
        """The cumulative result as of now."""
        if self._rows is None:
            return current
        fresh = current.results[self._folded:]
        self._folded = len(current.results)
        self._rows.merge(ScanResult(range=current.range, results=fresh))
        return ScanResult(
            range=current.range,
            results=self._rows.results,
            stats=dataclasses.replace(self._prior_stats).merge(current.stats),
        )


def execute_job(
    job: ShardJob, prebuilt: Optional[BuiltTopology] = None
) -> ShardOutcome:
    """Run one shard to completion, honouring any checkpointed progress."""
    buffer = WorkerEventBuffer()
    if not job.checkpoint_dir:
        return _run_shard(job, prebuilt, buffer, None)
    store = CheckpointStore(job.checkpoint_dir, on_event=buffer.record)
    try:
        return _run_shard(job, prebuilt, buffer, store)
    finally:
        store.close()  # the shard's log stays open between checkpoints


def _run_shard(
    job: ShardJob,
    prebuilt: Optional[BuiltTopology],
    buffer: WorkerEventBuffer,
    store: Optional[CheckpointStore],
) -> ShardOutcome:
    prior = store.load_shard(job.job_id) if store is not None else None

    if prior is not None and prior.status == DONE:
        buffer.emit(
            "shard_restored", job_id=job.job_id, position=prior.position,
            worker=f"pid:{os.getpid()}",
        )
        segment_meta: Optional[Dict[str, object]] = None
        if job.store_dir:
            # A restored shard still contributes its rows to this run's
            # snapshot: re-seal them as a fresh segment for the parent to
            # commit (the checkpoint, not the store, is the durable copy).
            writer = _segment_writer(job)
            writer.append_many(prior.result.results)
            segment_meta = writer.seal()
            buffer.emit(
                "segment_sealed", job_id=job.job_id,
                segment=segment_meta["name"], rows=segment_meta["rows"],
                from_checkpoint=True,
            )
        return ShardOutcome(
            job=job,
            result=prior.result,
            sent_this_run=0,
            from_checkpoint=True,
            resumed_at=prior.position,
            worker=f"pid:{os.getpid()}",
            events=buffer.records,
            segment=segment_meta,
        )

    if prebuilt is not None:
        return _scan_shard(job, prebuilt, buffer, store, prior)
    # Held to the end of the shard: the host-fault clock, the final
    # checkpoint, the segment seal and the series export all still read
    # the network after the scan returns.
    with job.topology.checkout() as built:
        return _scan_shard(job, built, buffer, store, prior)


def _scan_shard(
    job: ShardJob,
    built: BuiltTopology,
    buffer: WorkerEventBuffer,
    store: Optional[CheckpointStore],
    prior: Optional[ShardState],
) -> ShardOutcome:
    """Scan what is left of the shard on ``built`` and persist the result."""
    probe = job.probe.build()
    skip = prior.position if prior is not None else 0
    config = dataclasses.replace(job.config, skip=skip)
    registry = MetricsRegistry() if config.collect_metrics else None
    tracer = ProbeTracer.from_spec(config.trace)
    # Host fault domain: a schedule with fs-error / fs-torn-write /
    # fs-crash events arms against this worker's durability syscalls — the
    # checkpoint store and segment writer below go through the shim, keyed
    # to the same virtual clock the network faults ride.
    host_injector = None
    host_os = None
    if config.fault_schedule is not None and (
        config.fault_schedule.host_events()
    ):
        from repro.faults.host import HostFaultInjector

        host_injector = HostFaultInjector(
            config.fault_schedule,
            clock=lambda: built.network.clock,
            metrics=registry,
        )
        host_os = host_injector.os_layer()
        if store is not None:
            store.os = host_os
    sink = None
    if job.store_dir and store is None:
        # No checkpointing: stream rows straight into the shard's segment so
        # peak resident rows stay bounded by the writer's block size.  With
        # checkpointing, rows must stay on the result for partial-state
        # persistence; the segment is written once at the end instead.
        from repro.store.sink import SegmentSink

        sink = SegmentSink(_segment_writer(job, host_os))
    scanner = Scanner(built.network, built.vantage, probe, config,
                      metrics=registry, tracer=tracer, sink=sink)
    cumulative = _Cumulative(prior.result if prior is not None else None)
    if skip:
        buffer.emit("shard_resumed", job_id=job.job_id, position=skip)

    def _write(status: str) -> ScanResult:
        """Checkpoint the shard: the store gets the rows since the last
        checkpoint with the cumulative position and stats.  Returns the
        cumulative result."""
        assert store is not None and scanner.result is not None
        total = cumulative.result(scanner.result)
        store.write_shard(
            ShardState(
                job_id=job.job_id,
                status=status,
                shard=config.shard,
                shards=config.shards,
                position=scanner.position,
                result=ScanResult(
                    range=total.range,
                    results=total.results[cumulative.written:],
                    stats=total.stats,
                ),
                whole=total if status == DONE else None,
            )
        )
        cumulative.written = len(total.results)
        return total

    kill_after = job.kill_after if skip == 0 else None  # resumes survive
    every = job.checkpoint_every if store is not None else 0
    # The first ``sent`` count at which an injected death fires, if any.
    stop_at = min(
        (n for n in (kill_after, job.interrupt_after) if n is not None),
        default=math.inf,
    )
    if every or stop_at != math.inf:
        next_checkpoint = every or math.inf

        def on_progress(s: Scanner) -> float:
            """Act on every point ``sent`` has reached; name the next one."""
            nonlocal next_checkpoint
            assert s.result is not None
            sent = s.result.stats.sent
            if kill_after is not None and sent >= kill_after:
                if store is not None:
                    _write(PARTIAL)
                # A real, unhandled process death — no exception, no cleanup;
                # the checkpoint just written is all that survives.
                os.kill(os.getpid(), signal.SIGKILL)
            if (
                job.interrupt_after is not None
                and sent >= job.interrupt_after
            ):
                if store is not None:
                    _write(PARTIAL)
                raise WorkerInterrupted(
                    f"{job.job_id}: injected worker death after {sent} probes"
                )
            if sent >= next_checkpoint:
                next_checkpoint = sent + every
                _write(PARTIAL)
            return min(next_checkpoint, stop_at)

        scanner.on_progress = on_progress

    try:
        result = scanner.run()
    except BaseException:
        if sink is not None:
            sink.writer.abort()  # leave only a .tmp, never a half-segment
        raise
    if scanner.fault_injector is not None:
        # Fault apply/revert records ride the worker's event stream home so
        # the campaign's EventLog journals the chaos timeline alongside
        # checkpoint writes and shard lifecycle events.
        for fault_record in scanner.fault_injector.records:
            buffer.record(fault_record)
    merged = _write(DONE) if store is not None else result
    segment_meta: Optional[Dict[str, object]] = None
    if sink is not None:
        sink.close()
        segment_meta = sink.meta
    elif job.store_dir:
        writer = _segment_writer(job, host_os)
        writer.append_many(merged.results)
        segment_meta = writer.seal()
    if segment_meta is not None:
        buffer.emit(
            "segment_sealed", job_id=job.job_id,
            segment=segment_meta["name"], rows=segment_meta["rows"],
        )
    if host_injector is not None:
        # Revert any still-open windows and ship the host-fault journal
        # home alongside the network fault records.  Faults stayed live
        # through the final checkpoint write and segment seal above —
        # those are exactly the writes worth failing.
        host_injector.restore()
        for fault_record in host_injector.records:
            buffer.record(fault_record)
    return ShardOutcome(
        job=job,
        result=merged,
        sent_this_run=result.stats.sent,
        resumed_at=skip,
        worker=f"pid:{os.getpid()}",
        metrics=registry.to_dict() if registry is not None else None,
        traces=tracer.to_dicts(),
        events=buffer.records,
        timeseries=(
            scanner.sampler.to_dict() if scanner.sampler is not None else None
        ),
        segment=segment_meta,
    )
