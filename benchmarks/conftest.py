"""Shared state for the table/figure benchmarks.

Every bench regenerates one table or figure of the paper.  The expensive
pipeline stages (building the synthetic Internet, the fifteen discovery
scans, the application-layer sweep, the loop surveys) run once per session
and are shared; each bench then times its analysis/regeneration step and
writes the paper-vs-measured table to ``benchmarks/results/<name>.txt``.

Scaling: set ``REPRO_SCALE`` (default 20000) to trade fidelity for runtime.
``REPRO_SCALE=1000`` gives device counts at exactly 1/1000 of the paper's but
takes tens of minutes for the full suite.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import pytest

from repro.analysis import reproduce as stages
from repro.bgp import AsRole, build_internet
from repro.isp.builder import build_deployment

SCALE = float(os.environ.get("REPRO_SCALE", "20000"))
AS_SCALE = 10.0  # the BGP survey scales AS counts by 10, devices by SCALE
SEED = int(os.environ.get("REPRO_SEED", "7"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, *tables) -> None:
    """Persist rendered tables; also echo them for -s runs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n\n".join(t if isinstance(t, str) else t.render() for t in tables)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def write_bench_json(name: str, **payload) -> pathlib.Path:
    """Persist one bench's measurements machine-readably.

    The rendered ``.txt`` tables are for humans; CI trend tracking wants
    numbers.  Every bench writes a ``BENCH_<name>.json`` next to its table
    with the run parameters (scale, seed, interpreter) and its headline
    measurements, so artifact diffs across commits are one ``jq`` away.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "bench": name,
        "scale": SCALE,
        "seed": SEED,
        "python": platform.python_version(),
        **payload,
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    )
    return path


@pytest.fixture(scope="session")
def deployment():
    return build_deployment(scale=SCALE, seed=SEED, min_devices=40)


@pytest.fixture(scope="session")
def censuses(deployment):
    """One discovery scan per sample block (the Table II experiment)."""
    return stages.periphery_censuses(deployment, SEED, SCALE)


@pytest.fixture(scope="session")
def audit(deployment, censuses):
    """The §V application-layer sweep over every discovered periphery,
    and the vendors it identifies."""
    return stages.service_audit(deployment, censuses)


@pytest.fixture(scope="session")
def app_results(audit):
    return audit[0]


@pytest.fixture(scope="session")
def identified(audit):
    return audit[1]


@pytest.fixture(scope="session")
def loop_surveys(deployment):
    """The §VI loop scans of the fifteen sample blocks (Table XI)."""
    return stages.loop_surveys(deployment, SEED)


@pytest.fixture(scope="session")
def world():
    """The BGP-advertised-prefix population (Table IX / Figure 5)."""
    return build_internet(seed=SEED, scale=SCALE / 10, n_tail_ases=220)


@pytest.fixture(scope="session")
def world_table(world):
    """The Routeviews-shaped attribution table: one entry per edge AS."""
    return world.fabric.bgp_table(roles=(AsRole.EDGE,))


@pytest.fixture(scope="session")
def world_survey(world):
    """Every edge AS's discovery census and loop survey, keyed by ASN."""
    return stages.bgp_survey(world, SEED)


@pytest.fixture(scope="session")
def world_loops(world_survey):
    return world_survey[1]
