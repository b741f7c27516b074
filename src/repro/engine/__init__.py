"""Scan orchestration: sharding, executors, checkpoint/resume, campaigns.

The single-shot :class:`~repro.core.scanner.Scanner` is one synchronous
loop in one process; this package turns it into an orchestrated service the
way XMap/ZMap operate at Internet scale — the permutation's disjoint shard
streams fan out over executor backends, progress checkpoints to ZMap-style
JSON state files, and a campaign sequences many delegated windows (the
twelve-ISP reproduction) with per-shard retry and cross-shard dedup.

Every campaign journals its lifecycle into a
:class:`~repro.telemetry.events.EventLog` and merges per-shard
:class:`~repro.telemetry.metrics.MetricsRegistry` snapshots into one
campaign-wide registry (see :mod:`repro.telemetry`).
"""

from repro.engine.campaign import (
    Campaign,
    CampaignAborted,
    CampaignError,
    CampaignResult,
)
from repro.engine.checkpoint import CheckpointStore, ShardState
from repro.engine.executor import (
    Executor,
    ProcessPoolBackend,
    SerialExecutor,
    ThreadPoolBackend,
    WatchdogTimeout,
    make_executor,
)
from repro.engine.monitor import ProgressMonitor
from repro.engine.planner import (
    CoverageError,
    ProbeSpec,
    ShardJob,
    ShardPlanner,
)
from repro.engine.supervisor import (
    ParkedShard,
    Supervisor,
    SupervisorPolicy,
    failure_signature,
)
from repro.engine.worker import ShardOutcome, WorkerInterrupted, execute_job

__all__ = [
    "Campaign",
    "CampaignAborted",
    "CampaignError",
    "CampaignResult",
    "CheckpointStore",
    "CoverageError",
    "Executor",
    "ParkedShard",
    "ProbeSpec",
    "ProcessPoolBackend",
    "ProgressMonitor",
    "SerialExecutor",
    "ShardJob",
    "ShardOutcome",
    "ShardPlanner",
    "ShardState",
    "Supervisor",
    "SupervisorPolicy",
    "ThreadPoolBackend",
    "WatchdogTimeout",
    "WorkerInterrupted",
    "execute_job",
    "failure_signature",
    "make_executor",
]
