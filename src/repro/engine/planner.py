"""Shard planning: split one scan into disjoint, jointly exhaustive jobs.

XMap/ZMap shard a scan by partitioning the cyclic-group orbit positionally
(shard *i* of *k* starts at ``s·g^i`` and steps ``g^k``); the permutation
layer already implements that (``Permutation.indices(shard, shards)``).
The planner's job is the orchestration half: stamp out one picklable
:class:`ShardJob` per shard — topology recipe, probe recipe, shard-annotated
:class:`~repro.core.scanner.ScanConfig` — and, on request, *prove* the split
is a partition by enumerating every shard stream and checking that their
union is exactly the index space with no overlaps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from repro.core.permutation import make_permutation
from repro.core.probes.base import ProbeModule
from repro.core.scanner import ScanConfig
from repro.core.validate import Validator, seed_secret
from repro.net.packet import MAX_HOP_LIMIT
from repro.net.spec import TopologySpec


class CoverageError(ValueError):
    """The shard split does not partition the scan's index space."""


@dataclass(frozen=True)
class ProbeSpec:
    """Picklable recipe for rebuilding a probe module inside a worker.

    Probe modules hold a :class:`~repro.core.validate.Validator`; shipping
    the 16-byte secret (not the object) keeps jobs small and guarantees
    every shard validates replies identically.
    """

    kind: str = "icmp"
    secret: bytes = b"\x00" * 15 + b"\x01"
    hop_limit: int = MAX_HOP_LIMIT
    port: int = 0  # tcp/udp probes only

    @classmethod
    def for_seed(
        cls, seed: int, kind: str = "icmp", hop_limit: int = MAX_HOP_LIMIT,
        port: int = 0,
    ) -> "ProbeSpec":
        """The probe a single-shot :func:`repro.discovery.periphery.discover`
        of the same seed would use — sharded and unsharded scans agree."""
        return cls(kind=kind, secret=seed_secret(seed), hop_limit=hop_limit,
                   port=port)

    def build(self) -> ProbeModule:
        validator = Validator(self.secret)
        if self.kind == "icmp":
            from repro.core.probes.icmp import IcmpEchoProbe

            return IcmpEchoProbe(validator, hop_limit=self.hop_limit)
        if self.kind == "tcp":
            from repro.core.probes.tcp import TcpSynProbe

            return TcpSynProbe(validator, self.port)
        if self.kind == "udp":
            from repro.core.probes.udp import UdpProbe

            return UdpProbe(validator, self.port)
        raise ValueError(f"unknown probe kind {self.kind!r}")


@dataclass
class ShardJob:
    """Everything one worker needs to run (and checkpoint) one shard."""

    job_id: str
    label: str  # the campaign range this shard belongs to
    topology: TopologySpec
    probe: ProbeSpec
    config: ScanConfig  # shard/shards already set
    checkpoint_dir: Optional[str] = None
    #: Probes between partial-state writes (0 = final write only).
    checkpoint_every: int = 0
    #: When set, the worker writes this shard's rows into a sealed
    #: :mod:`repro.store` segment under ``<store_dir>/segments/`` and ships
    #: the segment meta home on the outcome; the campaign parent commits
    #: all shard segments in one manifest rewrite.  Without checkpointing
    #: the rows *stream* straight to the segment (bounded memory) instead
    #: of accumulating on ``ScanResult.results``.
    store_dir: Optional[str] = None
    #: Prepended to the job id when deriving the segment file name, so two
    #: campaign rounds over the same ranges land in distinct segments of
    #: the same store (the longitudinal case).
    store_prefix: str = ""
    #: Failure injection: raise ``WorkerInterrupted`` once this many probes
    #: have been sent in the current attempt.  Tests use it to simulate a
    #: worker dying mid-shard; production jobs leave it None.
    interrupt_after: Optional[int] = None
    #: Harder failure injection: SIGKILL the worker process (after writing a
    #: partial checkpoint) once this many probes have been sent — a *real*
    #: process death the kill-test resumes from.  Only honoured on a fresh
    #: attempt (``skip == 0``), so the resumed run survives.  Production
    #: jobs leave it None.
    kill_after: Optional[int] = None


class ShardPlanner:
    """Splits a :class:`ScanConfig` into N shard jobs over the permutation."""

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise ValueError("shard count must be positive")
        self.shards = shards

    def plan(
        self,
        config: ScanConfig,
        topology: TopologySpec,
        probe: ProbeSpec,
        label: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        store_dir: Optional[str] = None,
        store_prefix: str = "",
    ) -> List[ShardJob]:
        """One job per shard; any shard/skip already on ``config`` is reset.

        ``config.max_probes`` caps the *scan*, so it is split across the
        shards (``N // shards``, +1 for the first ``N % shards``) and the
        shards together send N — what admission charged for.  A shard whose
        index stream is shorter than its share sends what it has.
        """
        label = label or str(config.scan_range)
        jobs = []
        for shard in range(self.shards):
            max_probes = config.max_probes
            if max_probes is not None:
                share, extra = divmod(max_probes, self.shards)
                max_probes = share + (shard < extra)
            shard_config = dataclasses.replace(
                config, shard=shard, shards=self.shards, skip=0,
                max_probes=max_probes,
            )
            jobs.append(
                ShardJob(
                    job_id=f"{label}.s{shard:02d}of{self.shards:02d}",
                    label=label,
                    topology=topology,
                    probe=probe,
                    config=shard_config,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_every=checkpoint_every,
                    store_dir=store_dir,
                    store_prefix=store_prefix,
                )
            )
        return jobs

    def verify_coverage(self, config: ScanConfig, limit: int = 1 << 22) -> int:
        """Prove the split is a partition of ``range(scan_range.count)``.

        Enumerates every shard's index stream and checks pairwise
        disjointness and joint exhaustiveness; returns the space size.
        Raises :class:`CoverageError` on any violation, or if the space is
        too large to enumerate (``limit``).
        """
        count = config.scan_range.count
        if count > limit:
            raise CoverageError(
                f"scan space of {count} indices exceeds the enumeration "
                f"limit ({limit}); coverage holds by construction"
            )
        permutation = make_permutation(count, seed=config.seed)
        seen = set()
        for shard in range(self.shards):
            for index in permutation.indices(shard, self.shards):
                if index in seen:
                    raise CoverageError(
                        f"index {index} emitted by more than one shard"
                    )
                seen.add(index)
        if len(seen) != count:
            missing = count - len(seen)
            raise CoverageError(f"{missing} indices never emitted by any shard")
        return count
