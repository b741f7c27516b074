"""Executor backends: serial, thread pool, and process pool.

All three run the same entry point (:func:`repro.engine.worker.execute_job`)
over a batch of shard jobs and return ``(job, outcome-or-exception)`` pairs
in submission order, so the campaign's retry logic is backend-agnostic:

* **serial** — one shard after another in the calling process, each
  checking the topology out of the process's artifact pool
  (:meth:`TopologySpec.checkout <repro.net.spec.TopologySpec.checkout>`),
  so a campaign's shards — and the next campaign over an equal spec — scan
  one built world.  The only backend that accepts a caller's own live
  topology (``prebuilt``): every shard scans *that* network as it stands,
  which is how ``reproduce_all`` sweeps one deployment and how the churn
  and leakage studies re-scan a world they have mutated;
* **thread** — a ``ThreadPoolExecutor``.  A ``Network`` is single-threaded
  state (clock, RNG), so a checkout is exclusive: concurrent shards each
  hold a world of their own (at most ``workers`` are built) and later
  shards reuse them.  Python threads don't parallelise the CPU-bound scan
  loop (the GIL), but this backend exercises the full fan-out/merge path
  cheaply and overlaps any blocking I/O;
* **process** — a ``ProcessPoolExecutor``; true parallelism.  Jobs are
  pickled; each worker builds the job's ``TopologySpec`` once and reuses the
  artifact across the jobs it is handed.  Workers come from a *forkserver*
  that has imported :mod:`repro.engine.worker` and nothing else: the daemon
  starts pools from lease threads, and a child forked from a threaded
  process inherits whatever locks other threads held (the artifact pool's
  among them) locked forever.  Nothing the parent did at run time crosses
  over — a topology kind registered there is unknown to a worker.
  Fault hooks are supported here too as long as they pickle — a module-level
  function or a frozen dataclass with ``__call__`` ships fine; a lambda or
  closure is rejected up front with a clear error.

The pooled backends optionally run under a **watchdog**: with a
``shard_timeout``, any shard still running past its deadline is abandoned —
its future cancelled, its worker process killed if needed — and reported as
a :class:`WatchdogTimeout`, an ordinary per-job failure the campaign's
retry machinery requeues like any other worker error.  A fresh pool is
created per ``run_jobs`` call, so a wave that lost workers to the watchdog
(or to a SIGKILL) starts the next wave with a healthy pool.

Ordinary exceptions are captured per job (the campaign retries them);
``KeyboardInterrupt`` — including the injected
:class:`~repro.engine.worker.WorkerInterrupted` — propagates immediately,
aborting the batch the way a real ^C would.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import pickle
from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.engine.planner import ShardJob
from repro.engine.worker import ShardOutcome, execute_job
from repro.net.spec import BuiltTopology

JobReturn = Tuple[ShardJob, Union[ShardOutcome, Exception]]

#: Test hook signature: called with the job just before it executes; raising
#: simulates a worker failing to start (the campaign's retry path).
FaultHook = Callable[[ShardJob], None]


class WatchdogTimeout(RuntimeError):
    """A shard overran its ``shard_timeout`` and was abandoned.

    Delivered as the per-job outcome (never raised out of ``run_jobs``), so
    the campaign treats a hung worker exactly like a crashed one: retry up
    to ``max_retries``, then fail the shard.
    """


def _hooked_execute(hook: FaultHook, job: ShardJob) -> ShardOutcome:
    """Run a fault hook then the job — module-level so process pools can
    pickle it (a bound method of a backend instance would drag the pool
    itself across the process boundary)."""
    hook(job)
    return execute_job(job)


def _await_with_watchdog(
    jobs: Sequence[ShardJob],
    futures: Sequence["concurrent.futures.Future"],
    timeout: Optional[float],
) -> Tuple[List[JobReturn], bool]:
    """Collect per-job outcomes, abandoning stragglers past ``timeout``.

    Returns ``(returns, timed_out)``; the caller decides how violently to
    tear down its pool when the watchdog fired.  ``KeyboardInterrupt`` from
    a future (injected worker death on the serial/thread path) propagates.
    """
    timed_out = False
    if timeout is not None:
        done, not_done = concurrent.futures.wait(futures, timeout=timeout)
        timed_out = bool(not_done)
        for future in not_done:
            future.cancel()
    returns: List[JobReturn] = []
    for job, future in zip(jobs, futures):
        if timeout is not None and not future.done():
            returns.append(
                (
                    job,
                    WatchdogTimeout(
                        f"shard {job.job_id} exceeded its {timeout:g}s "
                        "deadline; worker abandoned"
                    ),
                )
            )
            continue
        try:
            returns.append((job, future.result()))
        except concurrent.futures.CancelledError:
            returns.append(
                (
                    job,
                    WatchdogTimeout(
                        f"shard {job.job_id} cancelled before start "
                        f"({timeout:g}s batch deadline elapsed)"
                    ),
                )
            )
        except Exception as exc:  # noqa: BLE001 - retried by the campaign
            returns.append((job, exc))
    return returns, timed_out


class Executor(ABC):
    """Runs a batch of shard jobs; never raises for per-job Exceptions."""

    name = "?"

    @abstractmethod
    def run_jobs(self, jobs: Sequence[ShardJob]) -> List[JobReturn]:
        """Execute every job; outcomes/errors in submission order."""

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class SerialExecutor(Executor):
    """In-process, one shard at a time."""

    name = "serial"

    def __init__(
        self,
        prebuilt: Optional[BuiltTopology] = None,
        fault_hook: Optional[FaultHook] = None,
    ) -> None:
        self.prebuilt = prebuilt
        self.fault_hook = fault_hook

    def run_jobs(self, jobs: Sequence[ShardJob]) -> List[JobReturn]:
        returns: List[JobReturn] = []
        for job in jobs:
            try:
                if self.fault_hook is not None:
                    self.fault_hook(job)
                returns.append((job, execute_job(job, prebuilt=self.prebuilt)))
            except Exception as exc:  # noqa: BLE001 - retried by the campaign
                returns.append((job, exc))
        return returns


class ThreadPoolBackend(Executor):
    """Concurrent shards in threads; each checks out a topology of its own."""

    name = "thread"

    def __init__(
        self,
        workers: Optional[int] = None,
        fault_hook: Optional[FaultHook] = None,
        shard_timeout: Optional[float] = None,
    ) -> None:
        self.workers = workers
        self.fault_hook = fault_hook
        self.shard_timeout = shard_timeout

    def _task(self, job: ShardJob) -> ShardOutcome:
        if self.fault_hook is not None:
            self.fault_hook(job)
        return execute_job(job)

    def run_jobs(self, jobs: Sequence[ShardJob]) -> List[JobReturn]:
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-shard"
        )
        try:
            futures = [pool.submit(self._task, job) for job in jobs]
            returns, timed_out = _await_with_watchdog(
                jobs, futures, self.shard_timeout
            )
        finally:
            # Threads can't be killed: with a watchdog armed, never join —
            # a hung thread would hold shutdown hostage; the next wave gets
            # a fresh pool.  Without one, join as before.
            pool.shutdown(wait=self.shard_timeout is None)
        return returns


class ProcessPoolBackend(Executor):
    """Concurrent shards in worker processes (true parallelism)."""

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        fault_hook: Optional[FaultHook] = None,
        shard_timeout: Optional[float] = None,
    ) -> None:
        self.workers = workers
        self.fault_hook = fault_hook
        self.shard_timeout = shard_timeout

    def run_jobs(self, jobs: Sequence[ShardJob]) -> List[JobReturn]:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.engine.worker"])
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )
        timed_out = True  # assume the worst if collection itself blows up
        try:
            if self.fault_hook is not None:
                futures = [
                    pool.submit(_hooked_execute, self.fault_hook, job)
                    for job in jobs
                ]
            else:
                futures = [pool.submit(execute_job, job) for job in jobs]
            returns, timed_out = _await_with_watchdog(
                jobs, futures, self.shard_timeout
            )
        finally:
            if timed_out:
                # Hung workers hold the pool's shutdown hostage; kill them.
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.kill()
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        return returns


def make_executor(
    name: str,
    workers: Optional[int] = None,
    prebuilt: Optional[BuiltTopology] = None,
    fault_hook: Optional[FaultHook] = None,
    shard_timeout: Optional[float] = None,
) -> Executor:
    """Build an executor backend by name (``serial``/``thread``/``process``)."""
    if name == "serial":
        if shard_timeout is not None:
            raise ValueError(
                "the serial backend runs shards on the calling thread and "
                "cannot watchdog itself; use thread/process for shard_timeout"
            )
        return SerialExecutor(prebuilt=prebuilt, fault_hook=fault_hook)
    if prebuilt is not None:
        raise ValueError(
            f"a pre-built topology cannot be shared with the {name!r} "
            "backend; workers check out their own from the TopologySpec"
        )
    if name == "thread":
        return ThreadPoolBackend(
            workers=workers, fault_hook=fault_hook, shard_timeout=shard_timeout
        )
    if name == "process":
        if fault_hook is not None:
            try:
                pickle.dumps(fault_hook)
            except Exception as exc:
                raise ValueError(
                    f"the process backend ships fault hooks to pool workers "
                    f"and this one does not pickle ({exc}); use a "
                    "module-level function or a picklable callable object, "
                    "or the serial/thread backend"
                ) from exc
        return ProcessPoolBackend(
            workers=workers, fault_hook=fault_hook, shard_timeout=shard_timeout
        )
    raise ValueError(f"unknown executor backend {name!r}")
