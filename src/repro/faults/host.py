"""The host fault domain: storage failures under the scanner itself.

PR 4's :class:`~repro.faults.injector.FaultInjector` shakes the simulated
Internet; this module shakes the *host* — the disk under the result store
and the checkpoint directory, which real campaigns lose to far more often
than to packet loss (disk-full mid-segment, torn writes on power loss,
operator kill -9 between a seal and the manifest commit).

:class:`HostFaultInjector` runs a :class:`~repro.faults.schedule.
FaultSchedule`'s host-domain events (``fs-error`` / ``fs-torn-write`` /
``fs-crash``) on the same :class:`~repro.faults.windows.FaultWindows` core
as the network injector — one timeline on the **virtual clock**, one
journal, one revert-on-restore.  The difference is the attachment point:
instead of a ``Network`` it produces a :class:`FaultyOs` — an
:class:`~repro.store.oslayer.OsLayer` shim the store's writers call — so
scheduled windows intercept exactly the four durability syscalls the
crash-safety claims rest on.

Determinism: host faults draw no randomness at all.  Whether an operation
fails is a pure function of (virtual clock, op, path, bytes-written-so-
far), so the same schedule over the same scan reproduces the identical
failure — and the identical recovery — on every backend.

``fs-crash`` raises :class:`SimulatedCrash`, a ``BaseException`` like
``KeyboardInterrupt``: nothing on the worker path may swallow it, so it
propagates out exactly as far as a real process death would, leaving only
what was already durable.  The kill-anywhere harness
(:mod:`repro.faults.killtest`) goes one step further and uses real SIGKILL
through the other shim here, :class:`KillSwitchOs`; the in-process variant
is what makes the crash *windows* unit-testable.
"""

from __future__ import annotations

import errno
import os
import signal
from pathlib import Path
from typing import Callable, Dict, IO, Optional

from repro.faults.schedule import (
    FS_CRASH,
    FS_ERROR,
    FS_TORN_WRITE,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.windows import FaultWindows
from repro.store.oslayer import OsLayer, RealOs, get_default_os

_ERRNOS = {"EIO": errno.EIO, "ENOSPC": errno.ENOSPC}


class SimulatedCrash(BaseException):
    """An injected ``fs-crash``: the process is considered dead here.

    A ``BaseException`` deliberately (like
    :class:`~repro.engine.worker.WorkerInterrupted`): executor retry
    handling catches ``Exception`` only, so a simulated crash aborts the
    campaign the way a real SIGKILL would instead of being politely
    retried.
    """


class FaultyOs(OsLayer):
    """The shim an armed :class:`HostFaultInjector` hands to the store."""

    def __init__(self, injector: "HostFaultInjector", base: OsLayer) -> None:
        self.injector = injector
        self.base = base

    def write(self, handle: IO[bytes], data: bytes) -> None:
        event = self.injector.match("write", handle.name)
        if event is None:
            self.base.write(handle, data)
            return
        if event.kind == FS_TORN_WRITE:
            self.injector.tear(event, handle, data, self.base)
            return
        self.injector.fail(event, "write", handle.name)

    def fsync(self, handle: IO) -> None:
        event = self.injector.match("fsync", handle.name)
        if event is not None:
            self.injector.fail(event, "fsync", handle.name)
        self.base.fsync(handle)

    def replace(self, src: Path, dst: Path) -> None:
        crash = self.injector.match("before-rename", str(dst))
        if crash is not None:
            self.injector.crash(crash, "before-rename", str(dst))
        event = self.injector.match("rename", str(dst))
        if event is not None:
            self.injector.fail(event, "rename", str(dst))
        self.base.replace(src, dst)
        crash = self.injector.match("after-rename", str(dst))
        if crash is not None:
            self.injector.crash(crash, "after-rename", str(dst))

    def fsync_dir(self, path: Path) -> None:
        # Directory fsync is the fsync op's other face: an fs-error on
        # fsync whose path filter matches the directory degrades rename
        # durability — the satellite the store must *report*, not hide.
        event = self.injector.match("fsync", str(path))
        if event is not None:
            self.injector.fail(event, "fsync", str(path))
        self.base.fsync_dir(path)


class KillSwitchOs(RealOs):
    """Counts durability ops; SIGKILLs the calling process at op N,
    **before** performing it — no cleanup, no ``atexit``, no flushed
    buffers: the genuine article.

    Each process counts its own ops (forked pool workers start from the
    parent's count at fork time), so under the process backend the switch
    kills whichever process reaches the threshold first — a worker death
    the campaign retries, or a parent death the next ``--resume`` recovers.
    Either way the property under test is the same.
    """

    def __init__(self, kill_after: Optional[int] = None) -> None:
        self.ops = 0
        self.kill_after = kill_after

    def _tick(self) -> None:
        self.ops += 1
        if self.kill_after is not None and self.ops >= self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def write(self, handle: IO[bytes], data: bytes) -> None:
        self._tick()
        super().write(handle, data)

    def fsync(self, handle: IO) -> None:
        self._tick()
        super().fsync(handle)

    def replace(self, src: Path, dst: Path) -> None:
        self._tick()
        super().replace(src, dst)

    def fsync_dir(self, path: Path) -> None:
        self._tick()
        super().fsync_dir(path)


class HostFaultInjector(FaultWindows):
    """Drives a schedule's host-domain events against the OS layer.

    ``clock`` is a zero-argument callable returning the current *virtual*
    time — in a worker, ``lambda: network.clock`` — so host windows share
    the timeline (and the journal timestamps) of the network faults they
    ride alongside.
    """

    RECORD_FIELDS = ("op", "path")

    def __init__(
        self,
        schedule: FaultSchedule,
        clock: Callable[[], float],
        base: Optional[OsLayer] = None,
        metrics=None,
    ) -> None:
        super().__init__(schedule.host_events(), clock, metrics)
        self.base = base if base is not None else get_default_os()
        #: Per-torn-write-event bytes already allowed through (the tear
        #: point is cumulative over the window, not per call).
        self._torn: Dict[int, int] = {}

    def os_layer(self) -> FaultyOs:
        """The shim to install under a store/segment/checkpoint writer."""
        return FaultyOs(self, self.base)

    # An active host window has no effect of its own — :meth:`match` reads
    # the active list per operation — so applying one is a no-op and
    # reverting one only forgets its tear point.
    def _revert(self, event: FaultEvent) -> None:
        self._torn.pop(id(event), None)

    # -- op hooks ----------------------------------------------------------

    def match(self, op: str, path: str) -> Optional[FaultEvent]:
        """The first active event intercepting ``op`` on ``path``, if any."""
        clock = self.clock()
        if clock >= self.next_transition:
            self.sync(clock)
        if not self._active:
            return None
        for event in self._active:
            if event.path is not None and event.path not in path:
                continue
            if event.kind == FS_ERROR and event.op == op:
                return event
            if event.kind == FS_TORN_WRITE and op == "write":
                return event
            if event.kind == FS_CRASH and event.op == op:
                return event
        return None

    def fail(self, event: FaultEvent, op: str, path: str) -> None:
        """Inject an ``fs-error``: journal it and raise its errno."""
        assert event.err is not None
        self._injected(event, op, path, err=event.err)
        raise OSError(
            _ERRNOS[event.err], f"injected {event.err} on {op}", path
        )

    def tear(self, event: FaultEvent, handle: IO[bytes], data: bytes,
             base: OsLayer) -> None:
        """Inject an ``fs-torn-write``: bytes up to the tear point land,
        the rest vanish, and the crossing (and every later) write errors."""
        assert event.offset is not None
        passed = self._torn.get(id(event), 0)
        remaining = event.offset - passed
        if remaining > 0:
            chunk = data[: min(remaining, len(data))]
            base.write(handle, chunk)
            self._torn[id(event)] = passed + len(chunk)
            if len(chunk) == len(data):
                return  # still below the tear point: the write succeeds
        self._injected(event, "write", handle.name, torn_at=event.offset)
        raise OSError(
            errno.EIO,
            f"injected torn write at byte {event.offset}",
            handle.name,
        )

    def crash(self, event: FaultEvent, op: str, path: str) -> None:
        """Inject an ``fs-crash``: journal it and die (by BaseException)."""
        self._injected(event, op, path)
        raise SimulatedCrash(f"injected crash {op} of {path}")

    # -- journal -----------------------------------------------------------

    def _injected(self, event: FaultEvent, op: str, path: str,
                  **extra: object) -> None:
        record: Dict[str, object] = {
            "type": "host_fault_injected",
            "kind": event.kind,
            "op": op,
            "file": path,
            "t_virtual": self.clock(),
            "window": [event.start, event.end],
        }
        record.update(extra)
        self.records.append(record)
        self.metrics.counter("host_faults_injected", kind=event.kind,
                             op=op).inc()
