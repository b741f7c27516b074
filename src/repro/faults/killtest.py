"""The kill-anywhere harness: SIGKILL a target at any durability syscall and
prove the resumed run converges to the same stores.

The operational claim behind the whole crash-safety design, as a property::

    for every durability operation N the target performs:
        kill -9 the target at operation N
        rerun it with --resume (repeatedly, if the resume dies too)
        every committed store is row-for-row identical to an
        uninterrupted run: zero duplicate rows, zero lost rows, the same
        snapshots — and no campaign lost or run twice.

Run as a module so a test (or CI) can drive real process deaths::

    python -m repro.faults.killtest campaign --dir D --count-ops  # baseline
    python -m repro.faults.killtest campaign --dir D2 --kill-after-ops 17
    python -m repro.faults.killtest campaign --dir D2 --resume    # recovers
    python -m repro.faults.killtest daemon --dir D3 ...           # likewise

The switch is :class:`~repro.faults.host.KillSwitchOs`, installed as the
process-wide default ``OsLayer`` *before* the target is built, so every
checkpoint write, segment write/fsync, manifest and queue-snapshot rename,
queue-journal append and directory fsync — those inside forked pool workers
included — ticks the op counter.  Targets are deterministic (fixed seeds,
shard counts, queue scope, a one-worker fleet), so every invocation walks
the same op sequence and ``--kill-after-ops N`` is a reproducible crash
point, not a race.

A target (:data:`TARGETS`) is three functions — ``build(args)`` constructs
the subject under the kill switch (``args.dir`` to work in, ``args.resume``
to pick up what a killed run left there), ``run(subject)`` runs or resumes
it to completion, ``summarise(subject, ran)`` reports what it committed —
and the harness owns the rest: the command line, the switch, the refusal
to start afresh over a directory that already holds a run, and the report,
whose shape both targets share::

    {"ops": N | null,
     "stores": {name: store_summary(store)},
     ...the target's extras}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List

from repro.faults.host import KillSwitchOs
from repro.store.oslayer import set_default_os


def store_summary(store) -> Dict[str, object]:
    """What one committed store holds, as comparable values: the row count,
    the distinct-row count (equal unless a row was committed twice), an
    order-independent digest of the rows, and the snapshot names."""
    rows = sorted(
        (str(r.target), str(r.responder), r.kind.value, r.icmp_type,
         r.icmp_code)
        for r in store.iter_rows()
    )
    return {
        "rows": len(rows),
        "unique_rows": len(set(rows)),
        "digest": hashlib.blake2b(
            json.dumps(rows).encode(), digest_size=16
        ).hexdigest(),
        "snapshots": sorted(store.snapshots),
    }


# -- target: one checkpointing campaign into one store ---------------------------

#: The fixed scan: 256 targets over the mini topology.
SPEC = "2001:db8:1::/56-64"
SNAPSHOT = "kill-round"
SEED = 5


def build_campaign(directory: str, executor, shards: int, resume: bool,
                   checkpoint_every: int):
    from repro.core.scanner import ScanConfig
    from repro.core.target import ScanRange
    from repro.engine.campaign import Campaign
    from repro.net.spec import TopologySpec

    config = ScanConfig(scan_range=ScanRange.parse(SPEC), seed=SEED)
    return Campaign(
        TopologySpec.mini(),
        {"kill": config},
        shards=shards,
        executor=executor,
        checkpoint_dir=os.path.join(directory, "ckpt"),
        checkpoint_every=checkpoint_every,
        resume=resume,
        store_dir=os.path.join(directory, "store"),
        snapshot=SNAPSHOT,
        backoff_base=0.0,
        max_retries=3,
    )


def _summarise_campaign(campaign, result) -> Dict[str, object]:
    from repro.store.store import ResultStore

    store = ResultStore(campaign.store_dir)
    return {
        "stores": {"store": store_summary(store)},
        "snapshot": result.snapshot,
        "segments": sorted(store.snapshot(SNAPSHOT).segments),
        "sent_this_run": result.sent_this_run,
        "shards_from_checkpoint": result.shards_from_checkpoint,
    }


# -- target: the daemon driving a fixed multi-tenant workload --------------------

#: Three tenants, two campaigns each, over windows the mini topology
#: answers (its responsive /64s sit under ``2001:db8:0-2``), so every store
#: ends up with real rows to digest.  A kill may land inside a campaign's
#: checkpoint or segment write, inside a store commit, or inside one of the
#: *queue's own writes* — a journal append per transition, the snapshot the
#: first one extends and the one written on exit — and every (tenant, name)
#: pair must still end ``done`` exactly once (the ``states`` extra).
WORKLOAD: List[Dict[str, object]] = [
    {"tenant": "alice", "name": "a0",
     "scan_range": "2001:db8:1:40::/58-64", "seed": 3,
     "priority": "interactive"},
    {"tenant": "bob", "name": "b0", "scan_range": "2001:db8:0::/61-64",
     "seed": 4},
    {"tenant": "carol", "name": "c0",
     "scan_range": "2001:db8:1:50::/60-64", "seed": 5,
     "priority": "batch"},
    {"tenant": "alice", "name": "a1",
     "scan_range": "2001:db8:1:60::/60-64", "seed": 6},
    {"tenant": "bob", "name": "b1", "scan_range": "2001:db8:2::/61-64",
     "seed": 7, "priority": "batch"},
    {"tenant": "carol", "name": "c1", "scan_range": "2001:db8:1::/59-64",
     "seed": 8},
]


def _build_service(args: argparse.Namespace):
    from repro.service.daemon import ScanService
    from repro.service.spec import TenantPolicy

    return ScanService(
        args.dir,
        default_policy=TenantPolicy(max_in_flight=1),
        max_workers=1,
        seed=7,
        scope="kill",
    )


def _run_service(service) -> None:
    """Submit, one durable journal record each, the workload entries not
    yet in the queue — a kill mid-submission is recovered by re-submitting
    only the missing pairs; the allocator watermark that rides in every
    journal record keeps ids aligned with the baseline — then run until the
    queue is empty."""
    from repro.service.spec import CampaignSpec

    present = {
        (r.tenant, r.spec.name) for r in service.queue.records.values()
    }
    for entry in WORKLOAD:
        if (entry["tenant"], entry["name"]) not in present:
            service.submit(CampaignSpec.from_dict({"shards": 2, **entry}))
    service.run_until_idle()


def _summarise_service(service, _ran) -> Dict[str, object]:
    states = {
        f"{record.tenant}/{record.spec.name}": record.state
        for record in service.queue.records.values()
    }
    return {
        "stores": {
            tenant: store_summary(service.stores.open(tenant))
            for tenant in service.stores.tenants()
        },
        "states": dict(sorted(states.items())),
        "recovered": service.queue.recovered_leases,
    }


#: name -> (build, run, summarise)
TARGETS = {
    "campaign": (
        lambda args: build_campaign(
            args.dir, args.executor, args.shards, args.resume,
            args.checkpoint_every,
        ),
        lambda campaign: campaign.run(),
        _summarise_campaign,
    ),
    "daemon": (_build_service, _run_service, _summarise_service),
}


# -- the harness -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SIGKILL-anywhere crash-recovery harness"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dir", required=True,
                        help="working directory (state + stores go under it)")
    common.add_argument("--kill-after-ops", type=int, default=None,
                        help="SIGKILL the process reaching this op count")
    common.add_argument("--resume", action="store_true",
                        help="recover a killed run instead of starting fresh")
    common.add_argument("--count-ops", action="store_true",
                        help="report the total durability-op count")
    targets = parser.add_subparsers(dest="target", required=True)
    campaign = targets.add_parser("campaign", parents=[common])
    campaign.add_argument("--executor", default="serial",
                          choices=("serial", "thread", "process"))
    campaign.add_argument("--shards", type=int, default=2)
    campaign.add_argument("--checkpoint-every", type=int, default=64)
    targets.add_parser("daemon", parents=[common])
    args = parser.parse_args(argv)

    if not args.resume and os.path.isdir(args.dir) and os.listdir(args.dir):
        parser.error(f"{args.dir} already holds a run; pass --resume")

    build, run, summarise = TARGETS[args.target]
    switch = KillSwitchOs(kill_after=args.kill_after_ops)
    # Default-layer installation (not constructor plumbing) is the point:
    # forked pool workers inherit it, so kills land in workers too.
    set_default_os(switch)
    try:
        subject = build(args)
        ran = run(subject)
    finally:
        set_default_os(None)

    print(json.dumps({"ops": switch.ops if args.count_ops else None,
                      **summarise(subject, ran)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
