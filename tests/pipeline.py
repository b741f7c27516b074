"""Drive the one send pipeline under every engine choice it can make.

The pipeline has no user-facing engine switch: block size and the vector
threshold are module constants, and the reference engine is the
``Network(flow_cache=False)`` override.  Parity tests vary all three
through :func:`observe` and compare everything a scan promises to keep
identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import repro.core.scanner as scanner_module
from repro.core.scanner import ScanConfig, Scanner
from repro.core.target import ScanRange
from repro.engine import ProbeSpec
from repro.net import columnar
from tests.topo import build_mini

SPEC = "2001:db8:1::/56-64"  # 256 sub-prefixes over both CPEs' LAN space
#: The vulnerable CPE's delegation: 15 of its 16 /64s loop (the probe module
#: sends at hop limit 255), the 16th is its advertised, on-link subnet.
LOOP_SPEC = "2001:db8:1:60::/60-64"

#: Vector thresholds for ``engine(vector_min=...)``: no chunk reaches the
#: first, every chunk reaches the second.
NEVER = 1 << 62
ALWAYS = 1


@contextmanager
def engine(
    block_size: Optional[int] = None, vector_min: Optional[int] = None
) -> Iterator[None]:
    """Run the body under another block size and/or vector threshold."""
    saved = scanner_module.BLOCK_SIZE, columnar.VECTOR_MIN_PROBES
    if block_size is not None:
        scanner_module.BLOCK_SIZE = block_size
    if vector_min is not None:
        columnar.VECTOR_MIN_PROBES = vector_min
    try:
        yield
    finally:
        scanner_module.BLOCK_SIZE, columnar.VECTOR_MIN_PROBES = saved


def observables(scanner: Scanner, result) -> Dict[str, object]:
    """Everything a scan run promises to keep identical across engines."""
    stats = result.stats.to_dict()
    stats.pop("wall_seconds")  # the only legitimately nondeterministic field
    return {
        "digest": result.dedup_digest(),
        "rows": [r.to_dict() for r in result.results],
        "stats": stats,
        "metrics": scanner.metrics.to_dict(),
        "series": (
            scanner.sampler.to_dict() if scanner.sampler is not None else None
        ),
        "traces": scanner.tracer.to_dicts(),
        "position": scanner.position,
    }


def editing_hook(
    edits: Sequence[Tuple[int, Callable]], stride: int
) -> Callable:
    """``hook(topo)`` for :func:`observe`: a progress hook that asks for
    control every ``stride`` probes and at every ``(sent, edit)`` point of
    ``edits``, where it applies ``edit(topo)`` — after the same probe
    however the scan is chunked, and (for any chunking that pulls target
    blocks ahead) between a block's pull and a later chunk of it."""

    def bind(topo):
        pending = sorted(edits, key=lambda point: point[0])

        def hook(scanner: Scanner) -> int:
            sent = scanner.result.stats.sent
            while pending and sent >= pending[0][0]:
                pending.pop(0)[1](topo)
            return min([sent + stride] + [at for at, _ in pending[:1]])

        return hook

    return bind


def observe(
    reference: bool = False,
    block_size: Optional[int] = None,
    vector_min: Optional[int] = None,
    spec: str = SPEC,
    topo=None,
    hook: Optional[Callable] = None,
    **config,
) -> Dict[str, object]:
    """One full scan on a fresh mini topology; returns its observables.

    ``reference=True`` is the oracle: the reference engine (every hop down
    the slow path, no vector phase) fed one target at a time.  A fresh
    network per run matters: the virtual clock advances during a scan, so
    reusing one would shift ``virtual_start`` between identical runs.
    ``hook(topo)`` makes the scan's ``on_progress``.
    """
    if reference:
        block_size = 1
    if topo is None:
        topo = build_mini(flow_cache=not reference)
    config.setdefault("seed", 5)
    flow_cache = topo.network.flow_cache
    scanner = Scanner(
        topo.network, topo.vantage, ProbeSpec.for_seed(5).build(),
        ScanConfig(scan_range=ScanRange.parse(spec), **config),
    )
    if hook is not None:
        scanner.on_progress = hook(topo)
    with engine(block_size, vector_min):
        result = scanner.run()
    assert topo.network.flow_cache is flow_cache  # the scan left it be
    return observables(scanner, result)
