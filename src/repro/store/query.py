"""Query API over a :class:`~repro.store.store.ResultStore`.

Everything is iterator-based — rows decode lazily, block by block, and
only the blocks the per-segment prefix index nominates are touched — so a
prefix query over a month of campaign rounds costs I/O proportional to the
matching slice, not the store.  The nominated rows are read as raw fields
(:func:`~repro.core.rows.as_fields`) and filtered as ints; only a row that
matches becomes a :class:`~repro.core.scanner.ProbeResult`.

:func:`diff` is the longitudinal primitive: given two snapshots (two scan
rounds of the same space), it reports the periphery churn — which
responders appeared, vanished, or persisted, at both address and /64
granularity — plus the EUI-64 share drift, the paper's proxy for how much
of the periphery leaks hardware identity each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.probes.base import ReplyKind
from repro.core.rows import as_fields
from repro.core.scanner import ProbeResult
from repro.net.addr import IPv6Addr, IPv6Prefix, is_eui64_iid
from repro.store.store import ResultStore


def _segment_names(store: ResultStore,
                   snapshot: Optional[str]) -> List[str]:
    if snapshot is None:
        return list(store.segments)
    return list(store.snapshot(snapshot).segments)


def query(
    store: ResultStore,
    snapshot: Optional[str] = None,
    prefix: "IPv6Prefix | str | None" = None,
    kind: "ReplyKind | str | None" = None,
    responder64: "IPv6Prefix | str | None" = None,
) -> Iterator[ProbeResult]:
    """Rows matching every given filter, in segment/commit order.

    ``prefix`` filters on the probe *target* (the scanned space) through
    the /32→/48→/64 index; ``responder64`` filters on the responding
    device's /64 through the responder index; ``kind`` filters on the
    reply kind.  Segments whose index proves they cannot match are never
    opened.
    """
    if isinstance(prefix, str):
        prefix = IPv6Prefix.from_string(prefix)
    if isinstance(responder64, str):
        responder64 = IPv6Prefix.from_string(responder64)
    if responder64 is not None and responder64.length != 64:
        raise ValueError("responder64 must be a /64 prefix")
    if isinstance(kind, str):
        kind = ReplyKind(kind)

    if prefix is not None:
        mask, network = prefix.mask, prefix.network
    if responder64 is not None:
        slash64 = responder64.network >> 64
    for name in _segment_names(store, snapshot):
        reader = store.reader(name)
        blocks: Optional[Sequence[int]] = None
        if prefix is not None:
            blocks = reader.index.blocks_for_prefix(prefix)
            if not blocks:
                continue  # index proves no row under this prefix: skip file
        if responder64 is not None:
            responder_blocks = reader.index.blocks_for_responder64(
                responder64
            )
            if not responder_blocks:
                continue
            blocks = (
                responder_blocks if blocks is None
                else sorted(set(blocks) & set(responder_blocks))
            )
            if not blocks:
                continue
        for target, responder, row_kind, icmp_type, icmp_code in (
            store.iter_rows(
                [name],
                blocks_for={name: blocks} if blocks is not None else None,
                project=as_fields,
            )
        ):
            # The index nominates blocks; rows still prove membership, so a
            # lossy index can cost time but never widen the answer.
            if prefix is not None and target & mask != network:
                continue
            if responder64 is not None and responder >> 64 != slash64:
                continue
            if kind is not None and row_kind is not kind:
                continue
            yield ProbeResult(
                IPv6Addr(target), IPv6Addr(responder), row_kind, icmp_type,
                icmp_code,
            )


@dataclass
class ChurnReport:
    """What changed between two scan rounds of the same space."""

    snapshot_a: str
    snapshot_b: str
    #: Responder addresses seen only in round B / only in round A / both.
    new: Set[int] = field(default_factory=set)
    lost: Set[int] = field(default_factory=set)
    stable: Set[int] = field(default_factory=set)
    #: The same sets collapsed to the paper's /64 periphery-dedup unit.
    new_slash64: Set[int] = field(default_factory=set)
    lost_slash64: Set[int] = field(default_factory=set)
    stable_slash64: Set[int] = field(default_factory=set)
    rows_a: int = 0
    rows_b: int = 0
    #: Fraction of each round's responders exposing an EUI-64 IID.
    eui64_share_a: float = 0.0
    eui64_share_b: float = 0.0

    @property
    def responders_a(self) -> int:
        return len(self.lost) + len(self.stable)

    @property
    def responders_b(self) -> int:
        return len(self.new) + len(self.stable)

    @property
    def churn_rate(self) -> float:
        """(new + lost) / union — 0.0 for identical rounds."""
        union = len(self.new) + len(self.lost) + len(self.stable)
        return (len(self.new) + len(self.lost)) / union if union else 0.0

    @property
    def eui64_drift(self) -> float:
        return self.eui64_share_b - self.eui64_share_a

    def to_dict(self) -> Dict[str, object]:
        return {
            "snapshot_a": self.snapshot_a,
            "snapshot_b": self.snapshot_b,
            "rows_a": self.rows_a,
            "rows_b": self.rows_b,
            "responders_a": self.responders_a,
            "responders_b": self.responders_b,
            "new": len(self.new),
            "lost": len(self.lost),
            "stable": len(self.stable),
            "new_slash64": len(self.new_slash64),
            "lost_slash64": len(self.lost_slash64),
            "stable_slash64": len(self.stable_slash64),
            "churn_rate": self.churn_rate,
            "eui64_share_a": self.eui64_share_a,
            "eui64_share_b": self.eui64_share_b,
            "eui64_drift": self.eui64_drift,
        }

    def render(self) -> str:
        lines = [
            f"churn {self.snapshot_a} -> {self.snapshot_b}",
            f"  responders : {self.responders_a} -> {self.responders_b}",
            f"  stable     : {len(self.stable)} addr / "
            f"{len(self.stable_slash64)} x /64",
            f"  lost       : {len(self.lost)} addr / "
            f"{len(self.lost_slash64)} x /64",
            f"  new        : {len(self.new)} addr / "
            f"{len(self.new_slash64)} x /64",
            f"  churn rate : {self.churn_rate:.1%}",
            f"  EUI-64     : {self.eui64_share_a:.1%} -> "
            f"{self.eui64_share_b:.1%} ({self.eui64_drift:+.1%})",
        ]
        return "\n".join(lines)


def _round_profile(
    store: ResultStore, snapshot: str
) -> Tuple[Set[int], Set[int], int, float]:
    """(responders, responder /64s, rows, EUI-64 share) for one round."""
    responders: Set[int] = set()
    rows = 0
    for _target, responder, *_ in store.iter_rows(
        store.snapshot(snapshot).segments, project=as_fields
    ):
        rows += 1
        responders.add(responder)
    slash64s = {responder >> 64 for responder in responders}
    eui64 = sum(
        1 for value in responders
        if is_eui64_iid(value & ((1 << 64) - 1))
    )
    share = eui64 / len(responders) if responders else 0.0
    return responders, slash64s, rows, share


def diff(store: ResultStore, snapshot_a: str,
         snapshot_b: str) -> ChurnReport:
    """The churn report between two rounds (A = earlier, B = later)."""
    resp_a, s64_a, rows_a, share_a = _round_profile(store, snapshot_a)
    resp_b, s64_b, rows_b, share_b = _round_profile(store, snapshot_b)
    return ChurnReport(
        snapshot_a=snapshot_a,
        snapshot_b=snapshot_b,
        new=resp_b - resp_a,
        lost=resp_a - resp_b,
        stable=resp_a & resp_b,
        new_slash64=s64_b - s64_a,
        lost_slash64=s64_a - s64_b,
        stable_slash64=s64_a & s64_b,
        rows_a=rows_a,
        rows_b=rows_b,
        eui64_share_a=share_a,
        eui64_share_b=share_b,
    )
