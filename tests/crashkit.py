"""Drive the kill-anywhere harness (``python -m repro.faults.killtest``) in
subprocesses, so the deaths are real SIGKILLs — no atexit, no flushed
buffers, no cleanup — and compare what the runs committed."""

import json
import os
import subprocess
import sys

from repro.faults.killtest import SNAPSHOT, store_summary
from repro.store import ResultStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": "src"}


def run_harness(target, directory, *flags, check=True):
    """One harness invocation; the CompletedProcess (stdout = the report)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.faults.killtest", target, "--dir",
         str(directory), *flags],
        capture_output=True, text=True, env=ENV, cwd=REPO,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"killtest {target} failed ({proc.returncode}):\n{proc.stderr}"
        )
    return proc


def baseline(target, directory, *flags):
    """One uninterrupted run's report, op census included."""
    return json.loads(
        run_harness(target, directory, "--count-ops", *flags).stdout
    )


def kill_and_recover(target, directory, kill_after, *flags):
    """Kill a fresh run at op N, then resume until one survives (bounded).

    Returns the exit codes and the surviving run's report.  A first exit
    code of 0 means nothing died in the harness process: the kill landed
    in a pool worker and in-run retry absorbed it (process backend), or N
    exceeded this run's op count — the report must hold up all the same.
    """
    proc = run_harness(target, directory, "--kill-after-ops",
                       str(kill_after), *flags, check=False)
    statuses = [proc.returncode]
    while proc.returncode != 0 and len(statuses) <= 6:
        proc = run_harness(target, directory, "--resume", *flags,
                           check=False)
        statuses.append(proc.returncode)
    if proc.returncode != 0:
        raise AssertionError(
            f"{target} never recovered after a kill at op {kill_after}: "
            f"exit codes {statuses}\n{proc.stderr}"
        )
    return statuses, json.loads(proc.stdout)


def assert_same_stores(report, want, context=""):
    """Every store row-for-row what the uninterrupted run committed: the
    same digest over the same number of rows, none committed twice, under
    the same snapshot names."""
    assert set(report["stores"]) == set(want["stores"]), context
    for name, expect in want["stores"].items():
        got = report["stores"][name]
        assert got["rows"] == got["unique_rows"], \
            f"{context}: duplicated rows in {name}"
        assert got == expect, f"{context}: store {name} diverged"


def committed(store_dir):
    """An in-process campaign's store as the harness would report it:
    (store summary, the round's segment names)."""
    store = ResultStore(store_dir)
    return store_summary(store), sorted(store.snapshot(SNAPSHOT).segments)
