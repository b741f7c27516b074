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

In the manifest each level is **one packed string**: the base64 of its
sorted, distinct ``(bucket, block id)`` pairs, each a fixed-width
big-endian record (:data:`PAIRS`), so a manifest parse reads one JSON
string per level however
many rows the segment holds, and :class:`SegmentIndex` decodes a level only
when a query first asks.  Segments sealed before the packed form carry the
index as nested dicts (``{"target": {level: {hex bucket: [block, ...]}},
"responder64": {...}}``); those load and answer too.

Queries pick the deepest indexed level not deeper than the query prefix,
select the buckets contained in the query, and decode only the union of
their block lists; rows are still re-checked for membership, so the index
is purely a pruning accelerator — a stale or lossy index can cost time but
can never produce a wrong answer.  At the store level, an empty block
list lets a whole unrelated segment be skipped without decoding it.
"""

from __future__ import annotations

import base64
import struct
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.rows import ROW_SIZE
from repro.net.addr import IPv6Prefix

try:  # optional: a segment's pairs are sorted and packed as columns
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None  # type: ignore[assignment]

#: The indexed prefix depths, shallow to deep.
LEVELS = (32, 48, 64)

#: One ``(bucket, block id)`` pair per level, by its manifest key: the
#: bucket in ``level / 8`` big-endian bytes (/48 as a 16- and a 32-bit
#: word), then the block id as a u32.
PAIRS: Dict[str, Tuple[int, struct.Struct]] = {
    "target32": (32, struct.Struct(">II")),
    "target48": (48, struct.Struct(">HII")),
    "target64": (64, struct.Struct(">QI")),
    "responder64": (64, struct.Struct(">QI")),
}

#: Fewest rows a seal packs with numpy; below it the set-and-sort loop is
#: the cheaper (measured in :class:`SegmentIndexBuilder`).
_VECTOR_ROWS = 48

#: The two words a row's buckets come from: its target's and its
#: responder's upper 64 bits (bytes 0-8 and 16-24 of a packed row).
_KEY_WORDS = (
    None if _np is None else _np.dtype({
        "names": ["target", "responder"],
        "formats": [">u8", ">u8"],
        "offsets": [0, 16],
        "itemsize": ROW_SIZE,
    })
)


def _level_for(length: int) -> int:
    """The deepest indexed level that is not deeper than the query prefix."""
    chosen = LEVELS[0]
    for level in LEVELS:
        if level <= length:
            chosen = level
    return chosen


def _pack(pairs: Sequence[Tuple[int, int]], key: str) -> str:
    """The packed string of sorted ``(bucket, block id)`` pairs."""
    level, pair = PAIRS[key]
    if level == 48:
        packed = b"".join(pair.pack(bucket >> 32, bucket & 0xFFFFFFFF, block)
                          for bucket, block in pairs)
    else:
        packed = b"".join(pair.pack(bucket, block) for bucket, block in pairs)
    return base64.b64encode(packed).decode("ascii")


def _pack_columns(buckets, blocks, key: str) -> str:
    """:func:`_pack` of the distinct pairs of two uint64 columns, as one
    sort and one structured-array ``tobytes``."""
    level, _pair = PAIRS[key]
    order = _np.lexsort((blocks, buckets))
    buckets, blocks = buckets[order], blocks[order]
    fresh = _np.ones(len(buckets), dtype=bool)
    fresh[1:] = (buckets[1:] != buckets[:-1]) | (blocks[1:] != blocks[:-1])
    buckets, blocks = buckets[fresh], blocks[fresh]
    if level == 48:
        out = _np.empty(len(buckets), dtype=[("hi", ">u2"), ("lo", ">u4"),
                                             ("block", ">u4")])
        out["hi"] = buckets >> _np.uint64(32)
        out["lo"] = buckets & _np.uint64(0xFFFFFFFF)
    else:
        width = ">u4" if level == 32 else ">u8"
        out = _np.empty(len(buckets), dtype=[("bucket", width),
                                             ("block", ">u4")])
        out["bucket"] = buckets
    out["block"] = blocks
    return base64.b64encode(out.tobytes()).decode("ascii")


class SegmentIndexBuilder:
    """Collects the bucket words of a segment's rows a block at a time, as
    the writer flushes them; :meth:`to_dict` packs every level at seal.

    Per block it keeps the rows' two upper address words (16 bytes a row,
    uint64 columns with numpy, ints without), and the seal sorts them once:
    no per-row work while the segment is written.  Indexing an N-row
    segment (``add_block`` per 512-row block + ``to_dict``, least of 7 ×
    200, 2-vCPU VM, µs; set-and-sort loop vs numpy, then the per-row
    builder this replaced): 4 rows 11.8 vs 46.1 (14.8), 32 rows 36.7 vs
    48.8 (82.9), 64 rows 66.5 vs 53.6 (157), 512 rows 440 vs 94 (1,164),
    4,096 rows 4,339 vs 659 (11,942) — so numpy from :data:`_VECTOR_ROWS`
    rows up.
    """

    def __init__(self) -> None:
        #: Per flushed block, in block order: (target words, responder words).
        self._blocks: List[tuple] = []
        self.rows = 0

    def add_block(self, payload: bytes) -> None:
        """Take the bucket words of one block's packed rows."""
        count = len(payload) // ROW_SIZE
        self.rows += count
        if _np is not None:
            words = _np.frombuffer(payload, dtype=_KEY_WORDS, count=count)
            self._blocks.append((words["target"].astype(_np.uint64),
                                 words["responder"].astype(_np.uint64)))
            return
        self._blocks.append((
            [int.from_bytes(payload[at:at + 8], "big")
             for at in range(0, count * ROW_SIZE, ROW_SIZE)],
            [int.from_bytes(payload[at + 16:at + 24], "big")
             for at in range(0, count * ROW_SIZE, ROW_SIZE)],
        ))

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready form: one packed string per level (:data:`PAIRS`)."""
        if _np is not None and self.rows >= _VECTOR_ROWS:
            return self._packed_columns()
        pairs: Dict[str, Set[Tuple[int, int]]] = {key: set() for key in PAIRS}
        t32, t48, t64 = pairs["target32"], pairs["target48"], pairs["target64"]
        r64 = pairs["responder64"]
        for block, (targets, responders) in enumerate(self._blocks):
            if not isinstance(targets, list):
                targets, responders = targets.tolist(), responders.tolist()
            for word in targets:
                t32.add((word >> 32, block))
                t48.add((word >> 16, block))
                t64.add((word, block))
            for word in responders:
                r64.add((word, block))
        return {key: _pack(sorted(level_pairs), key)
                for key, level_pairs in pairs.items()}

    def _packed_columns(self) -> Dict[str, str]:
        targets = _np.concatenate([block[0] for block in self._blocks])
        responders = _np.concatenate([block[1] for block in self._blocks])
        blocks = _np.repeat(
            _np.arange(len(self._blocks), dtype=_np.uint64),
            [len(block[0]) for block in self._blocks],
        )
        packed = {}
        for key, (level, _pair) in PAIRS.items():
            if key == "responder64":
                buckets = responders
            else:
                buckets = targets >> _np.uint64(64 - level)
            packed[key] = _pack_columns(buckets, blocks, key)
        return packed


def _unpack(text: str, key: str) -> Dict[int, List[int]]:
    """Buckets → sorted block ids of one packed level."""
    level, pair = PAIRS[key]
    buckets: Dict[int, List[int]] = {}
    for fields in pair.iter_unpack(base64.b64decode(text)):
        bucket = fields[0] << 32 | fields[1] if level == 48 else fields[0]
        blocks = buckets.get(bucket)
        if blocks is None:
            buckets[bucket] = [fields[-1]]
        else:
            blocks.append(fields[-1])
    return buckets


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
        """The index of a segment's ``index`` metadata, packed or (as
        segments sealed before the packed form carry it) nested dicts."""
        if "target" not in data:
            return cls(
                {level: _unpack(str(data.get(f"target{level}", "")),
                                f"target{level}")
                 for level in LEVELS},
                _unpack(str(data.get("responder64", "")), "responder64"),
            )
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
