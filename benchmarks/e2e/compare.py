"""Compare two suite results: ``python benchmarks/e2e/compare.py A.json B.json``.

A is the parent (or the first of two runs of one commit), B the change.
For every workload × end-to-end metric of ``BENCHMARK.json`` it prints one
verdict against the metric's bound:

* ``worse``        B's median is worse than A's by more than the bound;
* ``unresolved``   either side's run-to-run spread is wider than the bound,
                   so a difference of that size cannot be told from noise —
                   unless every run of B beats every run of A (``better``);
* ``better``       every run of B reads better than every run of A;
* ``within bound`` none of the above.

The simulated outputs (``counts``, ``rows_sha256``, Σ ``virtual_seconds``)
must match exactly: the simulator is deterministic, so a speed-up that
moves one of them is a bug.  Per-layer counts that changed are listed for
information — changing them is what an optimisation does.

Exits non-zero on any ``worse`` or any mismatch of simulated output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (with two or
    three values that is their range)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    low, high = max(q1, min(values)), min(q3, max(values))
    return abs(high - low) / abs(statistics.median(values))


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, B's median as a signed share of A's: positive is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / abs(med_a)
    if better == "lower":
        separated = max(b) < min(a)
    else:
        separated = min(b) > max(a)
    if separated:
        return "better", change
    if spread(a) > bound or spread(b) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "within bound", change


def compare(
    a: Dict[str, object], b: Dict[str, object], spec: Dict[str, object]
) -> Tuple[List[str], bool]:
    """Report lines and whether the comparison passes."""
    lines: List[str] = []
    ok = True
    count_metrics = {
        m["name"] for m in spec["per_layer"] if m["unit"] == "count"
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name}: missing from {'A' if wa is None else 'B'}")
            ok = False
            continue
        lines.append(f"== {name}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = wa["end_to_end"][key]["values"]
            vb = wb["end_to_end"][key]["values"]
            word, change = verdict(va, vb, metric["better"], metric["bound"])
            ok = ok and word != "worse"
            lines.append(
                f"  {key:14s} {word:13s} A {statistics.median(va):12.6g}  "
                f"B {statistics.median(vb):12.6g} {metric['unit']:5s} "
                f"{change:+7.1%} worse (bound {metric['bound']:.0%}; spread "
                f"A {spread(va):.1%}, B {spread(vb):.1%})"
            )
        for key in ("counts", "rows_sha256", "virtual_seconds"):
            if wa[key] != wb[key]:
                ok = False
                lines.append(f"  MISMATCH {key}: A {wa[key]!r}  B {wb[key]!r}")
        for failed in (wa["failed_share"], wb["failed_share"]):
            if failed:
                ok = False
                lines.append(f"  FAILED operations: failed_share {failed:.4g}")
        for key, value in wa["per_layer"].items():
            if key in count_metrics and wb["per_layer"].get(key) != value:
                lines.append(
                    f"  layer count {key}: A {value:g}  "
                    f"B {wb['per_layer'].get(key):g}"
                )
    return lines, ok


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n")[0] + "\n")
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(a, b, spec)
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
