"""Smoke tests of the benchmark harness itself.

Run explicitly (tier-1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py
"""

from __future__ import annotations

import json
import threading

import pytest

from benchmarks.e2e import compare, run, trace, workloads

SPEC = run.benchmark_json()


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)

    leaf = tracer.wrap(lambda: clock.work(2.0), "leaf", hot=True)

    def middle_body():
        clock.work(1.0)
        leaf()
        leaf()
        clock.work(0.5)

    middle = tracer.wrap(middle_body, "middle")

    def outer_body():
        clock.work(3.0)
        middle()
        clock.work(0.25)

    tracer.wrap(outer_body, "outer")()

    totals = tracer.totals()
    assert totals["leaf"] == [2, 4.0, 4.0]
    assert totals["middle"] == [1, 5.5, 1.5]
    assert totals["outer"] == [1, 8.75, 3.25]
    # Self times partition the root span: nothing counted twice or lost.
    assert sum(t[2] for t in totals.values()) == totals["outer"][1]
    # Hot spans feed totals only; kept spans know their parent.
    spans = {s["name"]: s for s in tracer.spans()}
    assert set(spans) == {"outer", "middle"}
    assert spans["middle"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None
    assert (spans["middle"]["start"], spans["middle"]["end"]) == (3.0, 8.5)


def test_recursive_span_does_not_double_count():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)

    def body(depth):
        clock.work(1.0)
        if depth:
            again(depth - 1)

    again = tracer.wrap(body, "again")
    again(2)
    assert tracer.totals()["again"][0] == 3
    assert tracer.totals()["again"][2] == 3.0  # self: one second per level


def test_threads_nest_only_under_their_own_spans():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    inner = tracer.wrap(lambda: clock.work(1.0), "worker.inner")
    worker_root = tracer.wrap(lambda: (clock.work(2.0), inner()), "worker.root")

    def scheduler_body():
        clock.work(1.0)
        # A span opened on another thread while this one is open is not this
        # span's child, however the two overlap in time.
        thread = threading.Thread(target=worker_root)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.work(0.5)

    tracer.wrap(scheduler_body, "scheduler")()
    totals = tracer.totals()
    assert totals["worker.root"] == [1, 3.0, 2.0]
    assert totals["worker.inner"] == [1, 1.0, 1.0]
    # The scheduler's span covers the worker's three seconds on the clock
    # but none of them are subtracted: they are not its children.
    assert totals["scheduler"] == [1, 4.5, 4.5]
    roots = [s for s in tracer.spans() if s["parent"] is None]
    assert {s["name"] for s in roots} == {"scheduler", "worker.root"}
    assert len({s["thread"] for s in roots}) == 2


def test_campaign_id_is_inherited_and_late_bound():
    tracer = trace.Tracer(clock=FakeClock())
    child = tracer.wrap(lambda: None, "child")
    lease = tracer.wrap(lambda cid: child(), "lease", enter=lambda args: args[0])
    submit = tracer.wrap(lambda: {"id": "c-9"}, "submit",
                         leave=lambda result: result["id"])
    lease("c-1")
    submit()
    child()
    by_name = {}
    for span in tracer.spans():
        by_name.setdefault(span["name"], []).append(span["campaign"])
    assert by_name == {
        "lease": ["c-1"], "child": ["c-1", None], "submit": ["c-9"],
    }


def test_covered_seconds_is_the_union_of_root_spans():
    def span(start, end, parent=None):
        return {"start": start, "end": end, "parent": parent}

    spans = [
        span(0.0, 4.0), span(1.0, 2.0, parent="0:0"),   # child: ignored
        span(3.0, 6.0),                                 # overlaps the first
        span(8.0, 9.0), span(20.0, 30.0),               # outside the window
    ]
    assert trace.covered_seconds(spans, [(0.0, 10.0)]) == 7.0
    assert trace.covered_seconds(spans, [(0.0, 3.5), (5.0, 8.5)]) == 5.0


# -- steady seconds ------------------------------------------------------------


def _round(pieces, ops):
    return workloads.Round(
        cpu_s=1.0, pieces=pieces, work=10.0, work_phase="read/", ops=ops,
        detail={}, windows=[], campaigns=0, digest="d", virtual_s=0.0,
        counts={}, failures=workloads.Failures(),
    )


def test_steady_seconds_pool_the_rounds_by_label():
    # "read/a" is one request made 20 times a round: 40 samples under one
    # label; "submit" and "read/b" have one sample a round.
    rounds = [
        _round({"submit": [3.0], "read/a": [1.0] * 19 + [1.5], "read/b": [2.0]},
               {"a": [10.0] * 20, "b": [30.0]}),
        _round({"submit": [2.0], "read/a": [1.2] * 20, "read/b": [4.0]},
               {"a": [12.0] * 20, "b": [20.0]}),
    ]
    assert [r.wall_s for r in rounds] == pytest.approx([25.5, 30.0])
    assert rounds[1].phase_s("read/") == pytest.approx(28.0)
    # least of (3, 2) + 20 x least of (1.0 ...) + least of (2, 4)
    assert run.steady_s(rounds) == pytest.approx(2.0 + 20.0 + 2.0)
    assert run.steady_s(rounds, "read/") == pytest.approx(22.0)
    # Twenty operations at 10 ms and one at 20: the median one takes 10.
    assert run.steady_op_ms(rounds) == 10.0


def test_a_campaign_is_cut_at_every_event_of_its_log(tmp_path):
    events = [
        {"type": "campaign_started", "seq": 0, "t": 0.5},
        {"job_id": "a.s00of02", "worker_seq": 0, "worker_t": 0.5, "t": 2.0},
        {"job_id": "a.s00of02", "worker_seq": 1, "worker_t": 0.75, "t": 2.0},
        {"type": "shard_finished", "seq": 3, "t": 2.0},
        {"job_id": "a.s01of02", "worker_seq": 0, "worker_t": 0.25, "t": 2.0},
        {"type": "shard_finished", "seq": 5, "t": 2.0},
        {"type": "campaign_finished", "seq": 6, "t": 2.25},
    ]
    cut = {
        "000 campaign_started": 0.5, "a.s00of02/000": 0.5,
        "a.s00of02/001": 0.25,
        # 1.5 s since the event before it, of which the two shards took 1.0
        "003 shard_finished": 0.5, "a.s01of02/000": 0.25,
        "005 shard_finished": 0.0, "006 campaign_finished": 0.25,
    }
    assert workloads.log_pieces(events) == cut
    (tmp_path / "c-0.ndjson").write_text(
        "".join(json.dumps(e) + "\n" for e in events)
    )
    times = workloads.CampaignTimes({}, {"c-0": 2.5}, {"c-0": 3.0}, 0.0)
    pieces = workloads.drain_pieces(
        [{"name": "a"}], ["c-0"], times, 3.5, "campaign/", tmp_path,
    )
    assert pieces == {
        "campaign/a/(lease)": [0.5],
        **{f"campaign/a/{label}": [s] for label, s in cut.items()},
        "campaign/a/(rest)": [0.25], "campaign/(rest)": [0.5],
    }
    assert sum(s for v in pieces.values() for s in v) == 3.5


# -- wrappers come and go ------------------------------------------------------


def test_wrappers_are_installed_and_fully_restored():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr, _n, _o in trace.resolve_targets()]
    assert trace.wrapped_attributes() == []
    with pytest.raises(RuntimeError):
        with trace.install(trace.Tracer()):
            # Every target and the handler factory are wrapped …
            assert len(trace.wrapped_attributes()) == len(trace.TARGETS) + 1
            raise RuntimeError("restoring must survive an error")
    # … and afterwards every attribute is the very object it was.
    assert trace.wrapped_attributes() == []
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


# -- compare.py verdicts -------------------------------------------------------


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 10.2], [10.3, 10.4, 10.2], "lower", "within bound"),
    ([10.0, 10.1, 10.2], [11.6, 11.7, 11.8], "lower", "worse"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", "better"),
    ([10.0, 12.0, 14.0], [10.5, 12.5, 14.5], "lower", "unresolved"),
    # Noisy, but every run of B beats every run of A: the gain stands.
    ([10.0, 12.0, 14.0], [5.0, 6.0, 7.0], "lower", "better"),
    ([100.0, 101.0, 102.0], [80.0, 81.0, 82.0], "higher", "worse"),
    ([100.0, 101.0, 102.0], [120.0, 121.0, 122.0], "higher", "better"),
])
def test_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.10)[0] == expected


def _suite(wall, digest="d", counts=None):
    workload = {
        "end_to_end": {
            m["name"]: {"values": wall, "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        },
        "per_layer": {"service.queue.save_calls": 19},
        "counts": counts or {"probes": 1}, "rows_sha256": digest,
        "virtual_seconds": 1.5, "failed_share": 0.0,
    }
    return {"workloads": {w["name"]: workload for w in SPEC["workloads"]}}


def test_compare_passes_itself_and_fails_on_worse_or_digest():
    same = _suite([10.0, 10.1, 10.2])
    lines, ok = compare.compare(same, same, SPEC)
    assert ok and not any("MISMATCH" in line for line in lines)
    # Every metric 20 % up: worse where lower is better.
    _, ok = compare.compare(same, _suite([12.0, 12.1, 12.2]), SPEC)
    assert not ok
    lines, ok = compare.compare(same, _suite([10.0, 10.1, 10.2], digest="x"), SPEC)
    assert not ok and any("MISMATCH rows_sha256" in line for line in lines)


# -- the whole pipeline, tiny --------------------------------------------------


def test_benchmark_json_names_the_harness_tables():
    assert [w["name"] for w in SPEC["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in trace.LAYER_METRICS
    ]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_run_matches_the_schema(workload, traced, tmp_path, capsys):
    code = run.main([
        "--workload", workload, "--smoke", "--trace", str(traced),
        "--seed", "3", "--out", str(tmp_path / "out"),
        "--workdir", str(tmp_path / "work"),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not traced:
            assert entry["value"] > 0
    # The run cleaned up after itself and left no wrapper behind.
    assert list((tmp_path / "work").iterdir()) == []
    assert trace.wrapped_attributes() == []
    record = json.loads(
        (tmp_path / "out" / f"{workload}-trace{traced}.json").read_text()
    )
    assert record["failed_share"] == 0 and len(record["rows_sha256"]) == 64
    if traced:
        spans = json.loads(
            (tmp_path / "out" / f"trace-{workload}.json").read_text()
        )
        assert spans and {"name", "start", "end", "parent", "thread",
                          "campaign"} <= set(spans[0])
