#!/usr/bin/env python3
"""CI perf-regression gate over the machine-readable bench records.

Every perf bench writes a ``BENCH_<name>.json`` into ``benchmarks/results/``
(see ``write_bench_json`` in ``benchmarks/conftest.py``).  The committed
copies are the baselines; a bench run in CI overwrites the working-tree
copies with fresh measurements.  This script diffs fresh against committed
(via ``git show HEAD:...``, so the overwrite doesn't erase the baseline)
and fails when a headline metric regressed beyond tolerance:

* ``perf_scanner``  — ``wall_pps`` (higher is better), >15% drop fails.
* ``perf_flowcache`` — ``cached_wall_pps`` (higher is better).
* ``perf_parallel`` — ``parallel_wall_seconds`` (lower is better) on hosts
  with at least as many cores as workers; on starved runners (either side
  recorded ``cores < workers``) the gate compares ``per_worker_efficiency``
  = speedup / min(workers, cores) instead, since raw wall seconds against
  a many-core baseline are meaningless there.
* ``faults_overhead`` — ``disabled_pps`` (higher is better): scanner
  throughput with the fault layer compiled in but disabled, so dead-path
  cost added to the probe loop shows up even though the bench's own <2%
  armed-vs-disabled assertion would not catch it.
* ``store_ingest`` — ``ingest_rows_per_sec`` (higher is better): streaming
  segment ingest; a slowdown here turns the result path into the campaign
  bottleneck (the bench itself also asserts ingest ≥ scanner ``wall_pps``).
* ``store_query`` — ``query_rows_per_sec`` (higher is better): /32-prefix
  query over the compacted multi-block corpus, index pruning included.
* ``bgp`` — ``full_solve_prefixes_per_sec`` (higher is better): the ~2k-AS
  path-vector solve + FIB install every campaign shard pays when it
  rebuilds an ``internet`` world from its spec.
* ``timeseries_overhead`` — ``sampled_pps`` (higher is better): scanner
  throughput with ``--timeseries`` sampling armed; the bench's own <5%
  sampled-vs-plain assertion bounds the relative cost, this gate catches
  an absolute slowdown of the sampled path itself.
* ``supervisor_overhead`` — ``disabled_pps`` (higher is better): campaign
  throughput without a supervisor policy (the stock dispatch loop), so
  dead-path cost added to the campaign loop shows up even though the
  bench's own <2% supervised-vs-stock assertion would not catch it.
* ``forwarding`` — ``columnar_pps`` (higher is better): the columnar
  forwarding engine on the loop-amplification workload
  (``bench_perf_forwarding.py``); the bench itself also asserts the >=10x
  speedup over the reference engine and bit-identical results.
* ``service`` — ``accepted_per_sec`` (higher is better): scan-service
  admission throughput, each submission paying tenant-policy checks plus
  one durable queue-journal append (``bench_service.py``); the record also
  carries the multi-tenant burst's wall time and p99 TTFR, recorded but
  not gated (bucket-quantised).

Skips must be honest: a fresh record whose committed baseline is absent
is a hard failure (commit the regenerated ``BENCH_*.json`` with the PR),
as is selecting an unknown gate name or selecting a gate explicitly (via
``--gates``) whose bench produced no fresh record.  Only two cases skip:
a gate left unselected whose bench simply didn't run in this CI job, and
records recorded at a different ``REPRO_SCALE``/``REPRO_SEED`` — those
numbers aren't comparable.

Re-baselining: when a PR legitimately changes performance, run the perf
benches locally (``python -m pytest benchmarks/bench_perf_scanner.py ...``)
and commit the regenerated ``BENCH_*.json`` files together with the code
change; the gate then measures future PRs against the new numbers.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class Verdict:
    bench: str
    metric: str
    baseline: Optional[float]
    fresh: Optional[float]
    failure: Optional[str]  # None = pass
    note: Optional[str] = None  # skip reason / context


def load_fresh(name: str, results_dir: pathlib.Path = RESULTS_DIR
               ) -> Optional[dict]:
    path = results_dir / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def load_baseline(name: str, ref: str = "HEAD",
                  repo_root: pathlib.Path = REPO_ROOT) -> Optional[dict]:
    """The committed bench record at ``ref`` (None if it doesn't exist)."""
    proc = subprocess.run(
        ["git", "-C", str(repo_root), "show",
         f"{ref}:benchmarks/results/BENCH_{name}.json"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def comparable(baseline: dict, fresh: dict) -> Optional[str]:
    """None if the records are comparable, else the mismatch description."""
    for key in ("scale", "seed"):
        if baseline.get(key) != fresh.get(key):
            return (f"{key} differs (baseline {baseline.get(key)!r}, "
                    f"fresh {fresh.get(key)!r})")
    return None


def per_worker_efficiency(record: dict) -> Optional[float]:
    """``per_worker_efficiency`` with a fallback for pre-gate baselines."""
    value = record.get("per_worker_efficiency")
    if value is not None:
        return float(value)
    speedup = record.get("speedup")
    workers = record.get("workers")
    cores = record.get("cores")
    if speedup is None or not workers or not cores:
        return None
    return float(speedup) / min(int(workers), int(cores))


def parallel_metric(baseline: dict, fresh: dict) -> Tuple[str, bool]:
    """(metric name, higher_is_better) for the parallel-campaign gate."""
    starved = any(
        int(r.get("cores", 0)) < int(r.get("workers", 1))
        for r in (baseline, fresh)
    )
    if starved:
        return "per_worker_efficiency", True
    return "parallel_wall_seconds", False


def metric_value(record: dict, metric: str) -> Optional[float]:
    if metric == "per_worker_efficiency":
        return per_worker_efficiency(record)
    value = record.get(metric)
    return None if value is None else float(value)


def check_metric(
    bench: str,
    metric: str,
    higher_is_better: bool,
    baseline: dict,
    fresh: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Verdict:
    """One pass/fail comparison of a headline metric."""
    mismatch = comparable(baseline, fresh)
    if mismatch is not None:
        return Verdict(bench, metric, None, None, None,
                       note=f"skipped: {mismatch}")
    base = metric_value(baseline, metric)
    new = metric_value(fresh, metric)
    if base is None or new is None or base == 0:
        return Verdict(bench, metric, base, new, None,
                       note="skipped: metric missing in one record")
    ratio = new / base
    if higher_is_better:
        regressed = ratio < 1.0 - tolerance
        direction = "dropped"
    else:
        regressed = ratio > 1.0 + tolerance
        direction = "rose"
    failure = None
    if regressed:
        failure = (
            f"{bench}: {metric} {direction} beyond {tolerance:.0%} "
            f"tolerance — baseline {base:,.2f}, fresh {new:,.2f} "
            f"({abs(1.0 - ratio):.1%} regression)"
        )
    return Verdict(bench, metric, base, new, failure)


#: The gate registry: (gate name, bench record name, metric selector).
#: The gate name is what ``--gates`` selects; the bench name is the
#: ``BENCH_<name>.json`` record the gate compares.  They coincide except
#: for ``forwarding``, whose records live in ``BENCH_perf_forwarding.json``.
Selector = Callable[[dict, dict], Tuple[str, bool]]
GATES: Tuple[Tuple[str, str, Selector], ...] = (
    ("perf_scanner", "perf_scanner", lambda b, f: ("wall_pps", True)),
    ("perf_flowcache", "perf_flowcache",
     lambda b, f: ("cached_wall_pps", True)),
    ("perf_parallel", "perf_parallel", parallel_metric),
    ("faults_overhead", "faults_overhead",
     lambda b, f: ("disabled_pps", True)),
    ("store_ingest", "store_ingest",
     lambda b, f: ("ingest_rows_per_sec", True)),
    ("store_query", "store_query",
     lambda b, f: ("query_rows_per_sec", True)),
    ("bgp", "bgp", lambda b, f: ("full_solve_prefixes_per_sec", True)),
    ("timeseries_overhead", "timeseries_overhead",
     lambda b, f: ("sampled_pps", True)),
    ("supervisor_overhead", "supervisor_overhead",
     lambda b, f: ("disabled_pps", True)),
    ("forwarding", "perf_forwarding", lambda b, f: ("columnar_pps", True)),
    ("service", "service", lambda b, f: ("accepted_per_sec", True)),
)


class UnknownGateError(ValueError):
    """``--gates`` named a gate that isn't in the registry."""


def resolve_gates(names: Optional[List[str]]
                  ) -> List[Tuple[str, str, Selector]]:
    """The registry rows for ``names`` (all of them when None)."""
    if names is None:
        return list(GATES)
    by_name = {gate: row for row in GATES for gate in (row[0],)}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise UnknownGateError(
            f"unknown gate(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(row[0] for row in GATES)}"
        )
    return [by_name[name] for name in names]


def run_gate(
    results_dir: pathlib.Path = RESULTS_DIR,
    ref: str = "HEAD",
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_loader: Optional[Callable[[str], Optional[dict]]] = None,
    gates: Optional[List[str]] = None,
) -> List[Verdict]:
    """Evaluate the selected gates (all when ``gates`` is None).

    Raises :class:`UnknownGateError` on a bad gate name.  An explicitly
    selected gate whose bench produced no fresh record is a failure (the
    CI job asked for a comparison that never happened); in all-gates mode
    a missing fresh record means the bench didn't run in this job and
    skips.  A fresh record whose committed baseline is absent always
    fails: the bench is gated, so its baseline must be committed.
    """
    loader = baseline_loader or (lambda name: load_baseline(name, ref=ref))
    explicit = gates is not None
    verdicts: List[Verdict] = []
    for gate_name, bench, select in resolve_gates(gates):
        fresh = load_fresh(bench, results_dir)
        baseline = loader(bench)
        if fresh is None:
            if explicit:
                verdicts.append(Verdict(
                    bench, "-", None, None,
                    failure=(f"{gate_name}: selected via --gates but no "
                             f"fresh BENCH_{bench}.json was produced — did "
                             "the bench run?"),
                ))
            else:
                verdicts.append(Verdict(bench, "-", None, None, None,
                                        note="skipped: no fresh record"))
            continue
        if baseline is None:
            verdicts.append(Verdict(
                bench, "-", None, None,
                failure=(f"{gate_name}: fresh record present but no "
                         f"committed BENCH_{bench}.json baseline at "
                         f"{ref!r} — run the bench locally and commit "
                         "the baseline"),
            ))
            continue
        metric, higher = select(baseline, fresh)
        verdicts.append(
            check_metric(bench, metric, higher, baseline, fresh, tolerance)
        )
    return verdicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail CI when a perf bench regressed vs the committed "
                    "baseline."
    )
    parser.add_argument("--results-dir", type=pathlib.Path,
                        default=RESULTS_DIR,
                        help="directory holding the fresh BENCH_*.json files")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref providing the committed baselines")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--gates", default=None, metavar="NAME[,NAME...]",
                        help="comma-separated gate names to enforce "
                             "(default: every registered gate; with an "
                             "explicit selection, a missing fresh record "
                             "is a failure, not a skip)")
    args = parser.parse_args(argv)

    selected = None
    if args.gates is not None:
        selected = [name.strip() for name in args.gates.split(",")
                    if name.strip()]
    try:
        verdicts = run_gate(args.results_dir, args.ref, args.tolerance,
                            gates=selected)
    except UnknownGateError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 2
    failures = [v for v in verdicts if v.failure]
    for verdict in verdicts:
        if verdict.failure:
            print(f"FAIL  {verdict.failure}")
        elif verdict.note:
            print(f"SKIP  {verdict.bench}: {verdict.note}")
        else:
            assert verdict.baseline is not None and verdict.fresh is not None
            print(
                f"OK    {verdict.bench}: {verdict.metric} "
                f"baseline {verdict.baseline:,.2f} -> fresh "
                f"{verdict.fresh:,.2f}"
            )
    if failures:
        print(f"\n{len(failures)} perf regression(s); see above. "
              "If intentional, re-run the benches and commit the new "
              "BENCH_*.json baselines.")
        return 1
    print("\nperf gate clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
