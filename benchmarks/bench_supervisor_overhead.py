"""Supervisor fast-path cost: supervision enabled but never needed.

The robustness contract mirrors the fault-layer one: a campaign that never
fails a shard must not pay for the crash-recovery machinery.  Without a
:class:`~repro.engine.SupervisorPolicy` (``supervisor=None``) a campaign
runs the stock fail-fast dispatch loop, and a supervisor on a clean run
costs only the per-batch drain check and the per-shard bookkeeping
dictionary lookups; it may not tax the §IV-E probing budget.  This bench
runs the same 4-shard campaign twice — no policy, and a policy with a
retry budget armed — and asserts the difference stays under the <2%
budget.

The measurement is the same defensive ABBA-paired scheme as
``bench_faults_overhead``: rounds alternate which configuration goes
first, and the reported overhead is the smaller of the per-config-minima
ratio and the median per-pair ratio, so one noisy CI round can't fail the
gate while a real regression (which moves both estimators) still does.

``REPRO_SUPERVISOR_TOLERANCE`` (default 0.02 — the <2% budget) sets the
failure threshold.
"""

import os
import statistics
import time

from repro.analysis.report import ComparisonTable
from repro.core.scanner import ScanConfig
from repro.core.target import ScanRange
from repro.engine import Campaign, SupervisorPolicy
from repro.net.spec import TopologySpec

from benchmarks.conftest import SEED, write_bench_json, write_result

ROUNDS = 12
SHARDS = 4
SPEC = "2001:db8:1::/56-64"  # 256 targets over the mini topology
TOLERANCE = float(os.environ.get("REPRO_SUPERVISOR_TOLERANCE", "0.02"))


def test_supervisor_clean_run_overhead():
    spec = TopologySpec.mini(seed=SEED)
    prebuilt = spec.build()

    def one_round(supervised: bool):
        config = ScanConfig(scan_range=ScanRange.parse(SPEC), seed=SEED)
        policy = SupervisorPolicy(retry_budget=8) if supervised else None
        campaign = Campaign(
            spec,
            {"bench": config},
            shards=SHARDS,
            executor="serial",
            prebuilt=prebuilt,
            supervisor=policy,
        )
        started = time.perf_counter()
        result = campaign.run()
        wall = time.perf_counter() - started
        assert result.degraded == [] and not result.drained
        return wall, result.stats.sent

    one_round(False), one_round(True)  # warm both paths before timing
    disabled = enabled = float("inf")
    sent = 0
    pair_ratios = []
    for i in range(ROUNDS):
        if i % 2 == 0:  # ABBA: alternate which config goes first
            d, sent = one_round(False)
            e, _ = one_round(True)
        else:
            e, _ = one_round(True)
            d, sent = one_round(False)
        disabled = min(disabled, d)
        enabled = min(enabled, e)
        pair_ratios.append(e / d)
    overhead = min(
        enabled / disabled - 1.0,
        statistics.median(pair_ratios) - 1.0,
    )

    table = ComparisonTable(
        "Supervisor overhead on a clean campaign (min of "
        f"{ROUNDS} interleaved rounds, {SHARDS} shards, {sent} probes)",
        ("Configuration", "best wall", "probes/s"),
    )
    table.add("supervision disabled (stock loop)",
              f"{disabled * 1000:.1f} ms", f"{sent / disabled:,.0f}")
    table.add("supervision enabled (breakers + budget armed)",
              f"{enabled * 1000:.1f} ms", f"{sent / enabled:,.0f}")
    table.note(
        f"overhead {overhead:+.2%} (budget {TOLERANCE:.0%})"
    )
    write_result("supervisor_overhead", table)
    write_bench_json(
        "supervisor_overhead",
        rounds=ROUNDS,
        shards=SHARDS,
        probes=sent,
        disabled_wall_seconds=disabled,
        enabled_wall_seconds=enabled,
        disabled_pps=sent / disabled,
        enabled_pps=sent / enabled,
        overhead=overhead,
        tolerance=TOLERANCE,
    )

    assert overhead < TOLERANCE, (
        f"idle supervisor cost {overhead:.2%} (budget {TOLERANCE:.0%})"
    )
