"""Scan-service performance: admission throughput and burst latency.

Two headline numbers for the multi-tenant daemon, the first gated by
``check_regression.py`` (gate name ``service``):

* **Admission** (``accepted_per_sec``): submissions stream through
  :meth:`~repro.service.queue.CampaignQueue.submit`, each paying policy
  checks plus one durable journal append (one record: write + fsync),
  whatever the backlog already holds.  This is the service's front-door
  rate — the ``/v1/campaigns`` handler adds only JSON parsing on top —
  and the fsync dominates, so a regression here means the queue's
  persistence got more expensive; the 400 submissions are enough that an
  O(queue length) cost per submit (the rewrite-everything ``queue.json``
  this replaced ran at a tenth of the rate) cannot clear the gate.

* **Burst** (``burst_campaigns_per_sec``, ``ttfr_p99_seconds``): three
  tenants submit twelve campaigns at once; a two-worker fleet drains
  them under WDRR fair-share.  The per-tenant p99 time-to-first-result
  comes from the same histogram the ``/v1/status`` endpoint reports.
  TTFR is bucket-quantised and scheduling-order dependent, so it is
  recorded, not gated.
"""

from __future__ import annotations

import time

from repro.service import CampaignQueue, CampaignSpec, ScanService, TenantPolicy

from benchmarks.conftest import write_bench_json, write_result

SUBMISSIONS = 400
TENANTS = ("mapper", "census", "audit", "survey")

#: The burst workload: every window answers on the mini topology.
BURST = [
    ("mapper", "2001:db8:1:40::/58-64", "interactive"),
    ("mapper", "2001:db8:1:60::/60-64", "normal"),
    ("mapper", "2001:db8:0::/61-64", "normal"),
    ("mapper", "2001:db8:2::/61-64", "batch"),
    ("census", "2001:db8:0::/61-64", "normal"),
    ("census", "2001:db8:1:50::/60-64", "interactive"),
    ("census", "2001:db8:2::/61-64", "batch"),
    ("census", "2001:db8:1:60::/60-64", "normal"),
    ("audit", "2001:db8:1:50::/60-64", "batch"),
    ("audit", "2001:db8:2::/61-64", "normal"),
    ("audit", "2001:db8:0::/61-64", "interactive"),
    ("audit", "2001:db8:1::/59-64", "normal"),
]


def test_service_admission_throughput(tmp_path):
    queue = CampaignQueue(
        str(tmp_path / "queue.json"),
        default_policy=TenantPolicy(max_queued=SUBMISSIONS),
        scope="bench",
    )
    specs = [
        CampaignSpec(
            tenant=TENANTS[i % len(TENANTS)],
            name=f"c{i}",
            scan_range="2001:db8::/60-64",
        )
        for i in range(SUBMISSIONS)
    ]
    started = time.perf_counter()
    for spec in specs:
        queue.submit(spec)
    elapsed = time.perf_counter() - started
    assert queue.depth == SUBMISSIONS

    accepted_per_sec = SUBMISSIONS / elapsed
    write_result(
        "service_admission",
        f"service admission: {SUBMISSIONS} campaigns accepted in "
        f"{elapsed:.3f}s ({accepted_per_sec:,.0f}/s), each with policy "
        f"checks and one durable journal append",
    )
    write_bench_json(
        "service",
        submissions=SUBMISSIONS,
        admission_seconds=elapsed,
        accepted_per_sec=accepted_per_sec,
    )


def test_service_multi_tenant_burst(tmp_path):
    service = ScanService(
        str(tmp_path / "svc"),
        default_policy=TenantPolicy(max_in_flight=2),
        max_workers=2,
        seed=1,
        scope="bench",
    )
    for i, (tenant, window, priority) in enumerate(BURST):
        service.submit(CampaignSpec(
            tenant=tenant, name=f"b{i}", scan_range=window,
            seed=i, priority=priority, shards=2,
        ))
    started = time.perf_counter()
    service.run_until_idle()
    wall = time.perf_counter() - started

    done = service.queue.in_state("done")
    assert len(done) == len(BURST)
    status = service.service_status()
    ttfr = status["ttfr_seconds"]
    assert set(ttfr) == {t for t, _, _ in BURST}
    ttfr_p99 = max(q["p99"] for q in ttfr.values())

    burst_campaigns_per_sec = len(BURST) / wall
    lines = [
        f"service burst: {len(BURST)} campaigns / {len(ttfr)} tenants "
        f"drained in {wall:.3f}s ({burst_campaigns_per_sec:.1f}/s) on a "
        f"2-worker fleet",
    ]
    for tenant in sorted(ttfr):
        lines.append(
            f"  {tenant:<7} TTFR p50 <= {ttfr[tenant]['p50']:.2f}s  "
            f"p99 <= {ttfr[tenant]['p99']:.2f}s  "
            f"({ttfr[tenant]['count']} campaigns)"
        )
    write_result("service_burst", "\n".join(lines))

    # Merge into the same BENCH_service.json record the admission bench
    # started, so the gate sees one comparable document.
    import json

    from benchmarks.conftest import RESULTS_DIR

    record_path = RESULTS_DIR / "BENCH_service.json"
    existing = {}
    if record_path.exists():
        existing = {
            k: v for k, v in json.loads(record_path.read_text()).items()
            if k not in ("bench", "scale", "seed", "python")
        }
    write_bench_json(
        "service",
        **existing,
        burst_campaigns=len(BURST),
        burst_tenants=len(ttfr),
        burst_wall_seconds=wall,
        burst_campaigns_per_sec=burst_campaigns_per_sec,
        ttfr_p99_seconds=ttfr_p99,
    )
