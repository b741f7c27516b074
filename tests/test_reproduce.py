"""The one-call reproduction orchestrator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.reproduce import reproduce_all
from repro.analysis.tables import table4_vendors
from repro.discovery.vendor_id import IdentifiedDevice
from repro.net.addr import IPv6Addr


@pytest.fixture(scope="module")
def run():
    messages = []
    result = reproduce_all(
        scale=1_000_000.0,  # min-device floors: ~40 devices per block
        seed=3,
        include_bgp=False,
        include_case_study=False,
        progress=messages.append,
    )
    result._progress = messages  # type: ignore[attr-defined]
    return result


class TestReproduceAll:
    def test_census_per_block(self, run):
        assert len(run.censuses) == 15
        for key, census in run.censuses.items():
            assert census.n_unique == run.deployment.isps[key].n_devices

    def test_app_and_identification_populated(self, run):
        assert len(run.app_results) == 15
        assert any(run.identified.values())

    def test_loop_surveys_populated(self, run):
        assert len(run.loop_surveys) == 15
        assert sum(s.n_unique for s in run.loop_surveys.values()) > 0

    def test_report_contains_every_section(self, run):
        report = run.report()
        for marker in (
            "Table I —", "Table II —", "Table III —", "Table IV —",
            "Table V —", "Table VII —", "Table VIII —", "Table XI —",
            "Figure 2 —", "Figure 3 —", "Figure 6 —", "§VI-A amplification",
        ):
            assert marker in report, marker

    def test_bgp_and_case_study_skippable(self, run):
        report = run.report()
        assert "Table IX —" not in report
        assert "Table XII —" not in report
        assert run.world is None

    def test_progress_reported(self, run):
        messages = run._progress
        assert any("discovery" in m for m in messages)
        assert any("loop" in m for m in messages)


def _report_under_hash_seed(hash_seed):
    """The reproduction report rendered in a fresh interpreter."""
    code = (
        "from repro.analysis.reproduce import reproduce_all\n"
        "print(reproduce_all(scale=100000, seed=7, include_bgp=False,"
        " include_case_study=False).report())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


class TestDeterminism:
    def test_report_independent_of_hash_seed(self):
        assert _report_under_hash_seed(1) == _report_under_hash_seed(2)

    def test_table4_ties_break_by_name(self):
        def device(vendor, i):
            return IdentifiedDevice(IPv6Addr(i), vendor, "CPE", "mac")

        vendors = ["Zyxel-test", "Acme-test", "Mid-test"]
        forward = [device(v, i) for i, v in enumerate(vendors)]
        backward = forward[::-1]
        rendered = [table4_vendors(order, 1000).render()
                    for order in (forward, backward)]
        assert rendered[0] == rendered[1]
        positions = [rendered[0].index(v) for v in sorted(vendors)]
        assert positions == sorted(positions)
