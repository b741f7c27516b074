"""Run the end-to-end benchmark: one workload, or the whole suite.

One workload, as the benchmark driver calls it (the last line printed is
the result as one JSON object)::

    python3 benchmarks/e2e/run.py --workload sweep_loops --seed 7 \\
        --seconds 26 --trace 0

The whole suite — every workload, untraced ``--repeats`` times and traced
once, each run in its own fresh process, every metric printed by name with
its unit, non-zero exit if any check failed::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 7

See README.md beside this file for what the numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

#: Set-up is repeated: SETUP_MIN times before the first round, and up to
#: SETUP_PER_ROUND times before each later round while all set-ups together
#: have taken less than SETUP_SHARE of the run so far — spread over the run,
#: so that they see the machine's moods the rounds see.
SETUP_MIN, SETUP_PER_ROUND, SETUP_SHARE = 3, 3, 0.1


def steadiest(samples: Sequence[float]) -> float:
    """The steadiest single figure for repeated timings of one piece of work:
    the least.

    The machine's neighbours slow it, never speed it up: a piece takes its
    least time or up to 1.6x that, in spells of 2-500 ms, and the share of
    slow spells drifts from 5 % to 99 % over minutes.  A piece short enough
    to fit a quiet spell, repeated often enough to meet one, takes the same
    least time in every run (README.md, "Noise").
    """
    return min(samples)


def steady(rounds: Sequence[Dict[str, List[float]]]) -> List[float]:
    """For every measurement of the first round, the steadiest figure of all
    the measurements any round made under the same label."""
    # (A round that lost a label has failed its checks; it is skipped here
    # so that the run can still report them.)
    return [
        figure
        for label, samples in rounds[0].items()
        for figure in [steadiest(
            [s for r in rounds if label in r for s in r[label]]
        )] * len(samples)
    ]


def steady_s(rounds: Sequence["workloads.Round"], prefix: str = "") -> float:
    """Seconds the pieces labelled ``prefix…`` take: the sum of each piece's
    steadiest figure over the rounds."""
    return sum(steady([
        {k: v for k, v in r.pieces.items() if k.startswith(prefix)}
        for r in rounds
    ]))


def steady_op_ms(rounds: Sequence["workloads.Round"]) -> float:
    """Median over the workload's operations of each one's steadiest
    latency."""
    return statistics.median(
        [steady_s(rounds, prefix) * ms
         for prefix, ms in rounds[0].op_phases.items()]
        or steady([r.ops for r in rounds])
    )


def bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and ``benchmarks.e2e`` importable when
    this file is run as a script from a bare checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def benchmark_json() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def filesystem_of(path: Path) -> str:
    """The filesystem type ``path`` lives on (``tmpfs`` matters: fsync is
    free there), from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    resolved = str(path.resolve())
    for line in mounts:
        _dev, mount, fstype = line.split()[:3]
        if resolved.startswith(mount.rstrip("/") + "/") or resolved == mount:
            if len(mount) >= len(best):
                best, kind = mount, fstype
    return kind


def environment(workdir: Path) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workdir_fs": filesystem_of(workdir),
        "network": "in-process daemon on 127.0.0.1 (loopback, no real link)",
        "load": "one process, closed loops, at most 2 client connections",
    }


# -- one workload --------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    from benchmarks.e2e import trace, workloads

    by_name = {w.name: w for w in workloads.WORKLOADS}
    workload = by_name[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
    ctx = workloads.Context(seed=args.seed, workdir=scratch, smoke=args.smoke)
    try:
        setups: List[float] = []
        state = None

        def set_up() -> None:
            nonlocal state
            if state is not None:
                state.close()
            begun = time.perf_counter()
            state = workload.setup(ctx)
            setups.append(time.perf_counter() - begun)

        for _ in range(1 if args.smoke else SETUP_MIN):
            set_up()
        rounds: List[workloads.Round] = []
        started = time.perf_counter()
        # A traced run alternates untraced and traced rounds, so the tracing
        # overhead is measured inside the run that reports it.
        while True:
            for _ in range(SETUP_PER_ROUND if rounds else 0):
                spent = time.perf_counter() - started
                if sum(setups) < SETUP_SHARE * spent:
                    set_up()
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(workload.round(
                ctx, state, trace.Tracer() if traced else None
            ))
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - started >= args.seconds:
                break
        state.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = [r for r in rounds if r.tracer is None]
    traced_rounds = [r for r in rounds if r.tracer is not None]
    attempted = sum(r.failures.attempted for r in rounds)
    reasons = [reason for r in rounds for reason in r.failures.reasons]
    # The simulator is deterministic: a round whose simulated outputs differ
    # from the first round's is a bug, traced or not; and the pieces of a
    # round are the same work under the same labels in every round.
    def shape(r: workloads.Round) -> List[Tuple[str, int]]:
        return [
            (label, len(v)) for d in (r.pieces, r.ops) for label, v in d.items()
        ]

    first = rounds[0]
    for i, r in enumerate(rounds[1:], start=1):
        attempted += 1
        if (r.digest, r.virtual_s, r.counts, shape(r)) != (
            first.digest, first.virtual_s, first.counts, shape(first)
        ):
            reasons.append(f"round {i} differs from round 0 in simulated output")
    attempted += 1
    if any(s < 0.0 for r in rounds for v in r.pieces.values() for s in v):
        reasons.append("a piece of a round ends before it begins: the cuts "
                       "are wrong")

    units = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    per_round = {
        "wall_s": [r.wall_s for r in plain],
        "cpu_s": [r.cpu_s for r in plain],
        "work_per_s": [r.work / r.phase_s(r.work_phase) for r in plain],
        "op_p50_ms": [steady_op_ms([r]) for r in plain],
    }
    wall_s = steady_s(plain)
    end_to_end = {
        "wall_s": wall_s,
        # process_time cannot be cut where the service's event log cuts the
        # wall, so: the share of the rounds' wall the CPU was busy, of the
        # steady wall.
        "cpu_s": wall_s * sum(per_round["cpu_s"]) / sum(per_round["wall_s"]),
        "work_per_s": first.work / steady_s(plain, first.work_phase),
        "op_p50_ms": steady_op_ms(plain),
        "setup_s": steadiest(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    detail = {
        key: statistics.median(r.detail[key] for r in plain)
        for key in first.detail
    }

    layers: Dict[str, float] = {}
    if traced_rounds:
        per_layer = [
            trace.layer_metrics(r.tracer, r.windows, r.campaigns, r.facts)
            for r in traced_rounds
        ]
        # Counts are exact and must repeat (byte sizes need not: the
        # program's JSON state holds wall-clock floats of varying width).
        for name, unit, _better in trace.LAYER_METRICS:
            if unit == "count":
                attempted += 1
                values = [m[name] for m in per_layer]
                if len(set(values)) > 1:
                    reasons.append(f"count {name} does not repeat: {values}")
        # One traced round, whole, so that its self times add up to its
        # wall: the one whose wall is the median.
        walls = [r.wall_s for r in traced_rounds]
        typical = sorted(range(len(walls)), key=walls.__getitem__)[
            (len(walls) - 1) // 2
        ]
        layers = dict(per_layer[typical])
        layers["trace.overhead_share"] = (
            steady_s(traced_rounds) / end_to_end["wall_s"] - 1.0
        )

    if args.trace:
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit, _better in trace.LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in units.items()
        }
    result = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": metrics,
    }

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": environment(workdir),
            "rounds": len(rounds),
            "result": result,
            "per_round": per_round,
            "pieces": sum(len(v) for v in first.pieces.values()),
            "setups_s": setups,
            "detail": detail,
            "failed_share": len(reasons) / attempted,
            "failures": reasons[:20],
            "rows_sha256": first.digest,
            "virtual_seconds": first.virtual_s,
            "counts": first.counts,
            # The wall of the round the per-layer figures describe.
            "traced_wall_s": walls[typical] if traced_rounds else None,
        }
        stem = f"{workload.name}-trace{args.trace}"
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if traced_rounds:
            (out / f"trace-{workload.name}.json").write_text(
                json.dumps(traced_rounds[typical].tracer.spans()) + "\n"
            )

    for reason in reasons[:20]:
        print(f"FAILED: {reason}")
    print(f"{workload.name}: {len(rounds)} rounds, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, entry in metrics.items():
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the suite -----------------------------------------------------------------


def child(args: argparse.Namespace, workload: str, trace: int,
          out: Path) -> Dict[str, object]:
    """One workload run in a fresh process (so ``peak_rss_mb`` is its own)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--workdir", args.workdir, "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True)
    record_path = out / f"{workload}-trace{trace}.json"
    if not record_path.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} (trace {trace}) died: exit {proc.returncode}")
    return json.loads(record_path.read_text())


def run_suite(args: argparse.Namespace) -> int:
    spec = benchmark_json()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suite: Dict[str, object] = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "repeats": args.repeats, "workloads": {},
    }
    failed = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for repeat in range(args.repeats):
            runs.append(child(args, name, 0, out / f"run{repeat}"))
        traced = child(args, name, 1, out)
        suite["environment"] = runs[0]["environment"]
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [
                r["result"]["metrics"][metric["name"]]["value"] for r in runs
            ]
            metrics[metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": statistics.median(values),
            }
        detail = {
            key: statistics.median(r["detail"][key] for r in runs)
            for key in runs[0]["detail"]
        }
        everything = runs + [traced]
        stable = all(
            (r["rows_sha256"], r["virtual_seconds"], r["counts"])
            == (runs[0]["rows_sha256"], runs[0]["virtual_seconds"],
                runs[0]["counts"])
            for r in everything
        )
        attempted = sum(r["result"]["attempted"] for r in everything) + 1
        failures = sum(r["result"]["failed"] for r in everything) + (not stable)
        failed += failures
        suite["workloads"][name] = {
            "end_to_end": metrics,
            "detail": detail,
            "per_layer": {
                k: v["value"] for k, v in traced["result"]["metrics"].items()
            },
            "failed_share": failures / attempted,
            "failures": [f for r in everything for f in r["failures"]]
            + ([] if stable else ["simulated outputs differ between runs"]),
            "rows_sha256": runs[0]["rows_sha256"],
            "virtual_seconds": runs[0]["virtual_seconds"],
            "counts": runs[0]["counts"],
            "rounds": [r["rounds"] for r in everything],
            "traced_wall_s": traced["traced_wall_s"],
        }
    (out / "results.json").write_text(json.dumps(suite, indent=1) + "\n")
    print_suite(suite)
    print(f"\nresults: {out / 'results.json'}")
    if args.record:
        record_baseline(suite)
    return 1 if failed else 0


def print_suite(suite: Dict[str, object]) -> None:
    env = suite["environment"]
    print(f"environment: {json.dumps(env)}")
    for name, w in suite["workloads"].items():
        print(f"\n== {name}  (rows_sha256 {w['rows_sha256'][:16]}…, "
              f"Σ virtual {w['virtual_seconds']:.6f} s, counts {w['counts']})")
        for metric, m in w["end_to_end"].items():
            print(f"  {metric:26s} {m['median']:14.6g} {m['unit']:6s} "
                  f"[min {min(m['values']):.6g}, max {max(m['values']):.6g}, "
                  f"n={len(m['values'])}]")
        for metric, value in w["detail"].items():
            print(f"  {metric:26s} {value:14.6g}        (detail)")
        print(f"  {'failed_share':26s} {w['failed_share']:14.6g} ratio")
        for failure in w["failures"][:10]:
            print(f"  FAILED: {failure}")
        # Self times only: lease_wait_s is time campaigns spent queued.
        ranked = sorted(
            ((v, k) for k, v in w["per_layer"].items()
             if k.endswith("_s") and not k.endswith("_wait_s")),
            reverse=True,
        )
        wall = w["traced_wall_s"]
        print("  traced round, self time by layer (share of its wall):")
        for value, key in ranked[:8]:
            print(f"    {key:40s} {value:10.4f} s  {value / wall:6.1%}")
        for key in ("trace.residual_share", "trace.overhead_share"):
            print(f"    {key:40s} {w['per_layer'][key]:10.4f}")


def record_baseline(suite: Dict[str, object]) -> None:
    """Append this run to trajectory.jsonl: history lives in the repo."""

    def git(*argv: str) -> str:
        try:
            return subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    line = {
        "commit": git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": suite["environment"],
        "seed": suite["seed"],
        "seconds": suite["seconds"],
        "workloads": {
            name: {
                **{k: m["median"] for k, m in w["end_to_end"].items()},
                **w["detail"],
                "rows_sha256": w["rows_sha256"],
            }
            for name, w in suite["workloads"].items()
        },
    }
    with open(HERE / "trajectory.jsonl", "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"recorded baseline in {HERE / 'trajectory.jsonl'}")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload "
                        "(default: the whole suite)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced rounds, report per-layer "
                        "metrics")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round: checks the plumbing, "
                        "measures nothing")
    parser.add_argument("--workdir", default=str(ROOT / ".bench_e2e" / "work"),
                        help="where service roots are created and removed")
    parser.add_argument("--out", default=None,
                        help="directory for result files (suite default: "
                        ".bench_e2e/out); a single workload writes none "
                        "unless given")
    parser.add_argument("--record", action="store_true",
                        help="suite: append the medians to trajectory.jsonl")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(
            benchmark_json()["run_seconds"]
        )
    if args.workload is None and args.out is None:
        args.out = str(ROOT / ".bench_e2e" / "out")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.workload is None:
        return run_suite(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
