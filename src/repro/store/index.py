"""Per-segment prefix indexes: /32 → /48 → /64 buckets over row blocks.

A scan-result segment packs rows in probe order, which scatters any one
prefix's rows across the whole file (the permutation's entire point is to
spread load).  To answer ``query --prefix 2001:db8:44::/48`` without
decoding every block of every segment, each segment carries a small
three-level index built at seal time:

* ``target`` buckets at /32, /48 and /64 — each maps a prefix value to the
  sorted set of *block ids* containing at least one row whose target falls
  under that prefix;
* ``responder64`` buckets — the same, keyed by the responder's /64 (the
  paper's periphery-dedup unit, and the churn diff's join key).

Queries pick the deepest indexed level not deeper than the query prefix,
select the buckets contained in the query, and decode only the union of
their block lists; rows are still re-checked for membership, so the index
is purely a pruning accelerator — a stale or lossy index can cost time but
can never produce a wrong answer.  At the store level, an empty block
list lets a whole unrelated segment be skipped without decoding it.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.net.addr import IPv6Prefix

#: The indexed prefix depths, shallow to deep.
LEVELS = (32, 48, 64)


def _level_for(length: int) -> int:
    """The deepest indexed level that is not deeper than the query prefix."""
    chosen = LEVELS[0]
    for level in LEVELS:
        if level <= length:
            chosen = level
    return chosen


class SegmentIndexBuilder:
    """Accumulates bucket → block-id sets while a segment is written."""

    def __init__(self) -> None:
        self.target: Dict[int, Dict[int, Set[int]]] = {
            level: {} for level in LEVELS
        }
        self.responder64: Dict[int, Set[int]] = {}

    def add(self, block_id: int, target_value: int,
            responder_value: int) -> None:
        for level, buckets in self.target.items():
            key = target_value >> (128 - level)
            blocks = buckets.get(key)
            if blocks is None:
                blocks = buckets[key] = set()
            blocks.add(block_id)
        key = responder_value >> 64
        blocks = self.responder64.get(key)
        if blocks is None:
            blocks = self.responder64[key] = set()
        blocks.add(block_id)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (hex bucket keys, sorted block lists)."""
        return {
            "target": {
                str(level): {
                    f"{key:x}": sorted(blocks)
                    for key, blocks in sorted(buckets.items())
                }
                for level, buckets in self.target.items()
            },
            "responder64": {
                f"{key:x}": sorted(blocks)
                for key, blocks in sorted(self.responder64.items())
            },
        }


class SegmentIndex:
    """The read side: bucket lookups over one sealed segment."""

    def __init__(
        self,
        target: Dict[int, Dict[int, List[int]]],
        responder64: Dict[int, List[int]],
    ) -> None:
        self.target = target
        self.responder64 = responder64

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SegmentIndex":
        target: Dict[int, Dict[int, List[int]]] = {}
        for level_text, buckets in (data.get("target") or {}).items():
            target[int(level_text)] = {
                int(key, 16): [int(b) for b in blocks]
                for key, blocks in buckets.items()
            }
        responder64 = {
            int(key, 16): [int(b) for b in blocks]
            for key, blocks in (data.get("responder64") or {}).items()
        }
        return cls(target, responder64)

    # -- lookups ---------------------------------------------------------------

    def _matching_blocks(
        self, buckets: Dict[int, List[int]], level: int, prefix: IPv6Prefix
    ) -> List[int]:
        """Union of block ids for buckets intersecting ``prefix``."""
        blocks: Set[int] = set()
        if prefix.length >= level:
            # The query is at least as deep as the bucket level: exactly one
            # bucket can contain it.
            hit = buckets.get(prefix.network >> (128 - level))
            if hit:
                blocks.update(hit)
        else:
            shift = level - prefix.length
            want = prefix.network >> (128 - prefix.length)
            for key, ids in buckets.items():
                if key >> shift == want:
                    blocks.update(ids)
        return sorted(blocks)

    def blocks_for_prefix(self, prefix: IPv6Prefix) -> List[int]:
        """Block ids that may hold targets under ``prefix`` (maybe empty)."""
        level = _level_for(prefix.length)
        buckets = self.target.get(level, {})
        return self._matching_blocks(buckets, level, prefix)

    def blocks_for_responder64(self, prefix: IPv6Prefix) -> List[int]:
        """Block ids that may hold responders in the given /64."""
        if prefix.length != 64:
            raise ValueError("responder buckets are indexed at /64 only")
        return self._matching_blocks(self.responder64, 64, prefix)
