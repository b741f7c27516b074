"""Timing wrappers around the program's layer boundaries, from outside.

``install(tracer)`` patches the public callables at each layer boundary of
``repro`` (daemon, queue, tenants, topology build, planner, campaign,
worker, checkpoint, scanner, target generation, probes, validation,
pacing, forwarding, segments, store, event log, HTTP handler and client)
with wrappers that record a span per call, and restores every attribute on
exit — nothing under ``src/`` knows it is being measured, and an untraced
run executes no code from this module.

A span's *self time* is its duration minus the part its child spans
cover.  Children are found with a per-thread stack: the HTTP handler, the
scheduler and the lease threads are concurrent, so a span only ever nests
under a span of its own thread.  Per-probe callables (``hot=True``) are
aggregated into per-name totals only; every other span is also kept, with
its parent, thread and campaign id, and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (calls, total seconds, self seconds) per span name.
Totals = Dict[str, List[float]]


class _ThreadState:
    __slots__ = ("index", "stack", "totals", "counts", "spans", "campaign")

    def __init__(self, index: int) -> None:
        self.index = index
        #: Open spans, innermost last: [start, child seconds, span index].
        self.stack: List[list] = []
        self.totals: Totals = {}
        self.counts: Dict[str, float] = {}
        #: Kept spans: [name, start, end, parent index or -1, campaign].
        self.spans: List[list] = []
        self.campaign: Optional[str] = None


class Tracer:
    """Collects spans from every thread of one traced round."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: True while ``install`` has this tracer's wrappers in place.
        self.active = False

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    # -- recording ---------------------------------------------------------

    def _begin(self, state: _ThreadState, name: str) -> list:
        """Open a kept span on this thread; its record exists from now so
        children can name it as parent."""
        parent = -1
        for open_frame in reversed(state.stack):
            if open_frame[2] >= 0:
                parent = open_frame[2]
                break
        index = len(state.spans)
        state.spans.append([name, 0.0, 0.0, parent, state.campaign])
        frame = [self.clock(), 0.0, index]
        state.stack.append(frame)
        return frame

    def _end(self, state: _ThreadState, name: str, frame: list,
             busy: Optional[float] = None) -> None:
        end = self.clock()
        duration = end - frame[0]
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][1] += duration
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        if busy is None:
            total[1] += duration
            total[2] += duration - frame[1]
        else:
            total[1] += busy
            total[2] += busy
        if frame[2] >= 0:
            span = state.spans[frame[2]]
            span[1] = frame[0]
            span[2] = end

    def wrap(
        self,
        fn: Callable,
        name: str,
        hot: bool = False,
        cpu: bool = False,
        enter: Optional[Callable[[tuple], Optional[str]]] = None,
        leave: Optional[Callable[[object], Optional[str]]] = None,
        after: Optional[Callable[[Dict[str, float], tuple, object], None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span named ``name`` per call.

        ``hot`` marks a per-probe callable: its spans only feed the per-name
        totals.  ``cpu`` charges the name this thread's CPU seconds in place
        of elapsed ones (the span itself stays on the wall axis); it is for
        leaf spans at a thread hand-off, see ``TARGETS``.  ``enter(args)`` names the campaign the call (and everything
        nested in it) works for; ``leave(result)`` names it when only the
        result knows (a submission).  ``after(counts, args, result)`` bumps
        counters at the boundary, where the work happens.
        """
        if hot:
            assert not cpu, "cpu timing is for kept (coarse) spans"
            # Same accounting as _begin/_end, inlined: this runs several
            # times per probe and its cost is the tracing overhead.
            clock, state_of = self.clock, self._state

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                state = state_of()
                stack = state.stack
                frame = [clock(), 0.0, -1]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(state.counts, args, result)
                    return result
                finally:
                    duration = clock() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    total = state.totals.get(name)
                    if total is None:
                        total = state.totals[name] = [0, 0.0, 0.0]
                    total[0] += 1
                    total[1] += duration
                    total[2] += duration - frame[1]
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                state = self._state()
                outer_campaign = state.campaign
                if enter is not None:
                    state.campaign = enter(args)
                frame = self._begin(state, name)
                cpu_started = time.thread_time() if cpu else 0.0
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(state.counts, args, result)
                    if leave is not None:
                        state.spans[frame[2]][4] = leave(result)
                    return result
                finally:
                    self._end(
                        state, name, frame,
                        time.thread_time() - cpu_started if cpu else None,
                    )
                    state.campaign = outer_campaign

        traced.__e2e_traced__ = True
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the harness itself makes into a layer (a
        generator API, whose work happens while the caller iterates)."""
        state = self._state()
        frame = self._begin(state, name)
        try:
            yield
        finally:
            self._end(state, name, frame)

    # -- views -------------------------------------------------------------

    def totals(self) -> Totals:
        merged: Totals = {}
        for state in self._threads:
            for name, (calls, total, self_s) in state.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total
                into[2] += self_s
        return merged

    def counts(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for state in self._threads:
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def spans(self) -> List[Dict[str, object]]:
        """Every kept span as a JSON-ready dict; ids are ``thread:index``."""
        out: List[Dict[str, object]] = []
        for state in self._threads:
            for index, (name, start, end, parent, campaign) in enumerate(
                state.spans
            ):
                out.append({
                    "id": f"{state.index}:{index}",
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": (
                        None if parent < 0 else f"{state.index}:{parent}"
                    ),
                    "thread": state.index,
                    "campaign": campaign,
                })
        return out


def covered_seconds(
    spans: Sequence[Dict[str, object]],
    windows: Sequence[Tuple[float, float]],
) -> float:
    """Seconds of ``windows`` during which some root span was open on some
    thread — the part of the timed phase attributed to a layer."""
    intervals = sorted(
        (float(s["start"]), float(s["end"]))  # type: ignore[arg-type]
        for s in spans if s["parent"] is None
    )
    covered = 0.0
    for lo, hi in windows:
        cursor = lo
        for start, end in intervals:
            if end <= cursor:
                continue
            if start >= hi:
                break
            covered += max(0.0, min(end, hi) - max(start, cursor))
            cursor = max(cursor, min(end, hi))
    return covered


# -- what gets wrapped ---------------------------------------------------------


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bump(counts: Dict[str, float], name: str, by: float) -> None:
    counts[name] = counts.get(name, 0) + by


def _after_save(counts, args, _result) -> None:
    queue = args[0]
    _bump(counts, "service.queue.save_bytes", _size(queue.state_path))
    _bump(counts, "service.queue.save_records", len(queue.records))


def _after_write_shard(counts, args, _result) -> None:
    store, state = args[0], args[1]
    _bump(counts, "engine.checkpoint.bytes",
          _size(store.shard_path(state.job_id)))
    _bump(counts, "engine.checkpoint.rows", len(state.result.results))


def _after_execute(counts, _args, outcome) -> None:
    stats = outcome.result.stats
    _bump(counts, "core.scanner.probes", outcome.sent_this_run)
    _bump(counts, "core.scanner.replies", stats.received)
    _bump(counts, "core.scanner.validated", stats.validated)


def _after_inject(counts, _args, result) -> None:
    _bump(counts, "net.network.hops", result[1].hops)


def _after_inject_block(counts, args, results) -> None:
    _bump(counts, "net.columnar.probes", len(args[1]))
    _bump(counts, "net.network.hops", sum(t.hops for _, t in results))


def _after_seal(counts, _args, meta) -> None:
    _bump(counts, "store.segment.rows_written", meta["rows"])
    _bump(counts, "store.segment.bytes_written", meta["bytes"])


#: (module, class or None, attribute, span name, options).  One row per
#: wrapped callable; the span name's prefix is the layer (= module) it is
#: charged to.  ``execute_job`` is listed twice because the executor module
#: holds its own reference to it.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Dict[str, object]], ...] = (
    # The API is a hand-off between two threads of one interpreter: once the
    # handler has written the reply, the client thread holds the GIL to parse
    # it and the handler thread waits for it to finish its own span.  Elapsed
    # time there would charge the handler for the client's parsing, so the
    # two leaf spans of the hand-off are charged CPU seconds.
    ("repro.service.api", "ServiceClient", "_request", "service.api.client",
     {"cpu": True}),
    ("repro.service.daemon", "ScanService", "submit", "service.daemon.submit",
     {"leave": lambda record: record["campaign_id"]}),
    ("repro.service.daemon", "ScanService", "results", "service.daemon.results",
     {"enter": lambda args: args[1]}),
    ("repro.service.daemon", "ScanService", "_run_lease",
     "service.daemon.run_lease",
     {"enter": lambda args: args[1].record.campaign_id}),
    ("repro.service.daemon", "ScanService", "_finish", "service.daemon.finish",
     {"enter": lambda args: args[1]}),
    ("repro.service.queue", "CampaignQueue", "submit", "service.queue.submit",
     {"leave": lambda record: record.campaign_id}),
    ("repro.service.queue", "CampaignQueue", "next_lease",
     "service.queue.next_lease",
     {"leave": lambda record: record and record.campaign_id}),
    ("repro.service.queue", "CampaignQueue", "complete",
     "service.queue.complete", {}),
    ("repro.service.queue", "CampaignQueue", "save", "service.queue.save",
     {"after": _after_save}),
    ("repro.service.tenants", "TenantStores", "open", "service.tenants.open", {}),
    ("repro.service.tenants", "TenantStores", "enforce",
     "service.tenants.enforce", {}),
    ("repro.net.spec", "TopologySpec", "build", "net.spec.build", {}),
    ("repro.engine.planner", "ShardPlanner", "plan", "engine.planner.plan",
     {"after": lambda counts, _args, jobs:
      _bump(counts, "engine.planner.jobs", len(jobs))}),
    ("repro.engine.campaign", "Campaign", "run", "engine.campaign.run", {}),
    ("repro.engine.campaign", "Campaign", "_commit_segments",
     "engine.campaign.commit", {}),
    ("repro.engine.worker", None, "execute_job", "engine.worker.execute",
     {"after": _after_execute}),
    ("repro.engine.executor", None, "execute_job", "engine.worker.execute",
     {"after": _after_execute}),
    ("repro.engine.checkpoint", "CheckpointStore", "write_shard",
     "engine.checkpoint.write_shard", {"after": _after_write_shard}),
    ("repro.core.scanner", "Scanner", "run", "core.scanner.run", {}),
    ("repro.core.scanner", "Scanner", "run_batched", "core.scanner.run", {}),
    ("repro.core.target", "TargetGenerator", "address", "core.target.address",
     {"hot": True}),
    ("repro.core.target", "TargetGenerator", "addresses_block",
     "core.target.addresses_block",
     {"hot": True, "after": lambda counts, args, _result:
      _bump(counts, "core.target.block_addresses", len(args[1]))}),
    ("repro.core.probes.icmp", "IcmpEchoProbe", "build", "core.probes.build",
     {"hot": True}),
    ("repro.core.probes.icmp", "IcmpEchoProbe", "classify",
     "core.probes.classify", {"hot": True}),
    ("repro.core.validate", "Validator", "tag", "core.validate.tag",
     {"hot": True}),
    ("repro.core.ratelimit", "VirtualPacer", "pace", "core.ratelimit.pace",
     {"hot": True}),
    ("repro.net.network", "Network", "inject", "net.network.inject",
     {"hot": True, "after": _after_inject}),
    ("repro.net.network", "Network", "inject_block", "net.columnar.inject_block",
     {"hot": True, "after": _after_inject_block}),
    ("repro.store.segment", "SegmentWriter", "append", "store.segment.append",
     {"hot": True}),
    ("repro.store.segment", "SegmentWriter", "append_many",
     "store.segment.append_many", {}),
    ("repro.store.segment", "SegmentWriter", "seal", "store.segment.seal",
     {"after": _after_seal}),
    # ``iter_rows`` is a generator: the call only opens the segment (counted
    # here); the decoding it drives is timed a block at a time below.
    ("repro.store.segment", "SegmentReader", "iter_rows",
     "store.segment.iter_rows", {"hot": True}),
    ("repro.store.segment", "SegmentReader", "_decode_rows",
     "store.segment.decode",
     {"hot": True, "after": lambda counts, args, _result:
      _bump(counts, "store.segment.rows_decoded", args[2])}),
    ("repro.store.store", "ResultStore", "__init__", "store.store.open", {}),
    ("repro.store.store", "ResultStore", "commit", "store.store.commit",
     {"after": lambda counts, args, _result:
      _bump(counts, "store.store.manifest_bytes", _size(args[0].manifest_path))}),
    ("repro.telemetry.events", "EventLog", "write", "telemetry.events.write", {}),
)


def _traced_make_handler(tracer: Tracer, make_handler: Callable) -> Callable:
    """``service.api._make_handler`` builds the handler class per server, so
    its methods are wrapped on each class it returns."""

    def after_send(counts, args, _result) -> None:
        if args[1] >= 400:
            _bump(counts, "service.api.errors", 1)

    def after_header(counts, args, _result) -> None:
        if args[1] == "Content-Length":
            _bump(counts, "service.api.response_bytes", int(args[2]))

    def gated(original: Callable, name: str, **options) -> Callable:
        # The class outlives ``install`` (its server may serve the round's
        # checks afterwards), so its wrappers step aside once tracing ends.
        traced = tracer.wrap(original, name, **options)

        @functools.wraps(original)
        def call(*args, **kwargs):
            return (traced if tracer.active else original)(*args, **kwargs)

        return call

    def make(service):
        handler = make_handler(service)
        handler.do_GET = gated(handler.do_GET, "service.api.handle")
        handler.do_POST = gated(handler.do_POST, "service.api.handle")
        handler._send = gated(
            handler._send, "service.api.send", cpu=True, after=after_send
        )
        handler.send_header = gated(
            handler.send_header, "service.api.send_header", hot=True,
            after=after_header,
        )
        return handler

    make.__e2e_traced__ = True
    return make


def resolve_targets() -> List[Tuple[object, str, str, Dict[str, object]]]:
    """``TARGETS`` with each owner (class or module) imported."""
    resolved = []
    for module_name, class_name, attr, name, options in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        resolved.append((owner, attr, name, options))
    return resolved


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then put every
    original attribute back."""
    originals: List[Tuple[object, str, object]] = []
    api = importlib.import_module("repro.service.api")
    try:
        for owner, attr, name, options in resolve_targets():
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, **options))
        originals.append((api, "_make_handler", api._make_handler))
        api._make_handler = _traced_make_handler(tracer, api._make_handler)
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def wrapped_attributes() -> List[str]:
    """Targets currently holding a wrapper (empty outside ``install``)."""
    api = importlib.import_module("repro.service.api")
    found = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _options in resolve_targets()
        if getattr(vars(owner)[attr], "__e2e_traced__", False)
    ]
    if getattr(api._make_handler, "__e2e_traced__", False):
        found.append("repro.service.api._make_handler")
    return found


# -- per-layer metrics ---------------------------------------------------------

#: Every per-layer metric: (name, unit, better).  ``BENCHMARK.json``'s
#: ``per_layer`` list is this table (test_smoke.py checks they agree).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("service.api.requests", "count", "lower"),
    ("service.api.self_s", "s", "lower"),
    ("service.api.client_cpu_s", "s", "lower"),
    ("service.api.errors", "count", "lower"),
    ("service.api.response_bytes", "B", "lower"),
    ("service.api.submit_p95_ms", "ms", "lower"),
    ("service.daemon.submit_self_s", "s", "lower"),
    ("service.daemon.lease_wait_s", "s", "lower"),
    ("service.daemon.run_lease_self_s", "s", "lower"),
    ("service.daemon.finish_self_s", "s", "lower"),
    ("service.daemon.results_self_s", "s", "lower"),
    ("service.queue.submit_self_s", "s", "lower"),
    ("service.queue.next_lease_self_s", "s", "lower"),
    ("service.queue.complete_self_s", "s", "lower"),
    ("service.queue.save_calls", "count", "lower"),
    ("service.queue.save_s", "s", "lower"),
    ("service.queue.save_bytes", "B", "lower"),
    ("service.queue.records_per_save", "ratio", "lower"),
    ("service.tenants.open_calls", "count", "lower"),
    ("service.tenants.open_s", "s", "lower"),
    ("service.tenants.enforce_s", "s", "lower"),
    ("net.spec.build_calls", "count", "lower"),
    ("net.spec.build_s", "s", "lower"),
    ("net.spec.builds_per_campaign", "ratio", "lower"),
    ("engine.planner.plan_s", "s", "lower"),
    ("engine.planner.jobs", "count", "lower"),
    ("engine.campaign.run_self_s", "s", "lower"),
    ("engine.campaign.commit_s", "s", "lower"),
    ("engine.worker.execute_self_s", "s", "lower"),
    ("engine.checkpoint.writes", "count", "lower"),
    ("engine.checkpoint.write_s", "s", "lower"),
    ("engine.checkpoint.bytes", "B", "lower"),
    ("engine.checkpoint.rows_rewritten_per_row", "ratio", "lower"),
    ("core.scanner.run_self_s", "s", "lower"),
    ("core.scanner.probes", "count", "higher"),
    ("core.scanner.replies", "count", "higher"),
    ("core.scanner.validated_share", "ratio", "higher"),
    ("core.target.address_s", "s", "lower"),
    ("core.target.addresses", "count", "higher"),
    ("core.probes.build_s", "s", "lower"),
    ("core.probes.classify_s", "s", "lower"),
    ("core.validate.tag_s", "s", "lower"),
    ("core.validate.tags", "count", "lower"),
    ("core.ratelimit.pace_s", "s", "lower"),
    ("net.network.inject_calls", "count", "lower"),
    ("net.network.inject_s", "s", "lower"),
    ("net.network.hops", "count", "lower"),
    ("net.network.hops_per_probe", "ratio", "lower"),
    ("net.network.us_per_hop", "us", "lower"),
    ("net.columnar.block_calls", "count", "higher"),
    ("net.columnar.block_s", "s", "lower"),
    ("net.columnar.probe_share", "ratio", "higher"),
    ("store.segment.append_s", "s", "lower"),
    ("store.segment.seal_s", "s", "lower"),
    ("store.segment.rows_written", "count", "higher"),
    ("store.segment.bytes_written", "B", "lower"),
    ("store.segment.read_s", "s", "lower"),
    ("store.segment.rows_decoded", "count", "lower"),
    ("store.store.open_calls", "count", "lower"),
    ("store.store.open_s", "s", "lower"),
    ("store.store.commit_calls", "count", "lower"),
    ("store.store.commit_s", "s", "lower"),
    ("store.store.manifest_bytes", "B", "lower"),
    ("store.query.calls", "count", "lower"),
    ("store.query.self_s", "s", "lower"),
    ("store.query.segments_scanned_share", "ratio", "lower"),
    ("telemetry.events.write_s", "s", "lower"),
    ("trace.residual_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    windows: Sequence[Tuple[float, float]],
    campaigns: int,
    facts: Dict[str, float],
) -> Dict[str, float]:
    """One traced round's per-layer numbers (all but ``trace.overhead_share``,
    which needs the untraced rounds beside it).

    ``windows`` are the round's timed phases, ``campaigns`` how many ran in
    it, and ``facts`` what only the harness saw: ``lease_wait_s``,
    ``submit_p95_ms``, ``query_segments`` (segments the queried snapshots
    hold, summed over queries) and ``query_segments_opened``.
    """
    totals = tracer.totals()
    counts = tracer.counts()

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    probes = counts.get("core.scanner.probes", 0)
    hops = counts.get("net.network.hops", 0)
    rows_written = counts.get("store.segment.rows_written", 0)
    wall = sum(hi - lo for lo, hi in windows)
    inject_s = self_s("net.network.inject")
    values = {
        "service.api.requests": calls("service.api.handle"),
        "service.api.self_s": self_s(
            "service.api.handle", "service.api.send", "service.api.send_header"
        ),
        "service.api.client_cpu_s": self_s("service.api.client"),
        "service.api.errors": counts.get("service.api.errors", 0),
        "service.api.response_bytes": counts.get("service.api.response_bytes", 0),
        "service.api.submit_p95_ms": facts.get("submit_p95_ms", 0.0),
        "service.daemon.submit_self_s": self_s("service.daemon.submit"),
        "service.daemon.lease_wait_s": facts.get("lease_wait_s", 0.0),
        "service.daemon.run_lease_self_s": self_s("service.daemon.run_lease"),
        "service.daemon.finish_self_s": self_s("service.daemon.finish"),
        "service.daemon.results_self_s": self_s("service.daemon.results"),
        "service.queue.submit_self_s": self_s("service.queue.submit"),
        "service.queue.next_lease_self_s": self_s("service.queue.next_lease"),
        "service.queue.complete_self_s": self_s("service.queue.complete"),
        "service.queue.save_calls": calls("service.queue.save"),
        "service.queue.save_s": self_s("service.queue.save"),
        "service.queue.save_bytes": counts.get("service.queue.save_bytes", 0),
        "service.queue.records_per_save": _ratio(
            counts.get("service.queue.save_records", 0),
            calls("service.queue.save"),
        ),
        "service.tenants.open_calls": calls("service.tenants.open"),
        "service.tenants.open_s": self_s("service.tenants.open"),
        "service.tenants.enforce_s": self_s("service.tenants.enforce"),
        "net.spec.build_calls": calls("net.spec.build"),
        "net.spec.build_s": self_s("net.spec.build"),
        "net.spec.builds_per_campaign": _ratio(
            calls("net.spec.build"), campaigns
        ),
        "engine.planner.plan_s": self_s("engine.planner.plan"),
        "engine.planner.jobs": counts.get("engine.planner.jobs", 0),
        "engine.campaign.run_self_s": self_s("engine.campaign.run"),
        "engine.campaign.commit_s": self_s("engine.campaign.commit"),
        "engine.worker.execute_self_s": self_s("engine.worker.execute"),
        "engine.checkpoint.writes": calls("engine.checkpoint.write_shard"),
        "engine.checkpoint.write_s": self_s("engine.checkpoint.write_shard"),
        "engine.checkpoint.bytes": counts.get("engine.checkpoint.bytes", 0),
        "engine.checkpoint.rows_rewritten_per_row": _ratio(
            counts.get("engine.checkpoint.rows", 0), rows_written
        ),
        "core.scanner.run_self_s": self_s("core.scanner.run"),
        "core.scanner.probes": probes,
        "core.scanner.replies": counts.get("core.scanner.replies", 0),
        "core.scanner.validated_share": _ratio(
            counts.get("core.scanner.validated", 0), probes
        ),
        "core.target.address_s": self_s(
            "core.target.address", "core.target.addresses_block"
        ),
        "core.target.addresses": (
            calls("core.target.address")
            + counts.get("core.target.block_addresses", 0)
        ),
        "core.probes.build_s": self_s("core.probes.build"),
        "core.probes.classify_s": self_s("core.probes.classify"),
        "core.validate.tag_s": self_s("core.validate.tag"),
        "core.validate.tags": calls("core.validate.tag"),
        "core.ratelimit.pace_s": self_s("core.ratelimit.pace"),
        "net.network.inject_calls": calls("net.network.inject"),
        "net.network.inject_s": inject_s,
        "net.network.hops": hops,
        "net.network.hops_per_probe": _ratio(hops, probes),
        "net.network.us_per_hop": _ratio(
            (inject_s + self_s("net.columnar.inject_block")) * 1e6, hops
        ),
        "net.columnar.block_calls": calls("net.columnar.inject_block"),
        "net.columnar.block_s": self_s("net.columnar.inject_block"),
        "net.columnar.probe_share": _ratio(
            counts.get("net.columnar.probes", 0), probes
        ),
        "store.segment.append_s": self_s(
            "store.segment.append", "store.segment.append_many"
        ),
        "store.segment.seal_s": self_s("store.segment.seal"),
        "store.segment.rows_written": rows_written,
        "store.segment.bytes_written": counts.get(
            "store.segment.bytes_written", 0
        ),
        "store.segment.read_s": self_s(
            "store.segment.decode", "store.segment.iter_rows"
        ),
        "store.segment.rows_decoded": counts.get(
            "store.segment.rows_decoded", 0
        ),
        "store.store.open_calls": calls("store.store.open"),
        "store.store.open_s": self_s("store.store.open"),
        "store.store.commit_calls": calls("store.store.commit"),
        "store.store.commit_s": self_s("store.store.commit"),
        "store.store.manifest_bytes": counts.get(
            "store.store.manifest_bytes", 0
        ),
        "store.query.calls": calls("store.query.query"),
        "store.query.self_s": self_s("store.query.query"),
        "store.query.segments_scanned_share": _ratio(
            facts.get("query_segments_opened", 0),
            facts.get("query_segments", 0),
        ),
        "telemetry.events.write_s": self_s("telemetry.events.write"),
        "trace.residual_share": (
            1.0 - _ratio(covered_seconds(tracer.spans(), windows), wall)
        ),
    }
    return values
