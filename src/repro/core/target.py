"""Scan targets: XMap's arbitrary-bit-window range DSL and IID strategies.

ZMap permutes the rear segment of a 32-bit IPv4 address; XMap's headline
generalisation is permuting *any* bit window of the 128-bit space.  The
paper writes ranges as ``2001:db8::/32-64``: enumerate every /64 sub-prefix
of the /32 (2^32 of them).  A bare prefix ``2001:db8::/32`` means the window
extends to the full 128 bits (end-host scanning).

For each enumerated sub-prefix the scanner needs one concrete probe address;
the interface-identifier *strategy* fills the remaining host bits:

* ``RANDOM`` — a keyed-hash-derived pseudorandom IID per sub-prefix.  This is
  the paper's choice: with 64 host bits a random IID is almost surely
  nonexistent, so the periphery must answer with Destination Unreachable.
* ``LOW_BYTE`` — ``::1``-style IIDs, likelier to hit real (router) addresses;
  the ablation bench contrasts the two.
* ``FIXED`` — a caller-supplied constant IID.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence

from repro.core.siphash import SipKey
from repro.net.addr import AddressError, IPv6Addr, IPv6Prefix

_RANGE_RE = re.compile(r"^(?P<prefix>.+)/(?P<start>\d+)(?:-(?P<end>\d+))?$")


class IidStrategy(Enum):
    RANDOM = "random"
    LOW_BYTE = "low-byte"
    FIXED = "fixed"


@dataclass(frozen=True)
class ScanRange:
    """A bit-window scan specification, e.g. every /64 inside a /32."""

    base: IPv6Prefix
    target_length: int

    def __post_init__(self) -> None:
        if not self.base.length <= self.target_length <= 128:
            raise AddressError(
                f"target length /{self.target_length} incompatible with "
                f"base {self.base}"
            )

    @classmethod
    def parse(cls, text: str) -> "ScanRange":
        """Parse ``addr/start-end`` (or ``addr/len`` for full-host scans)."""
        match = _RANGE_RE.match(text.strip())
        if not match:
            raise AddressError(f"malformed scan range {text!r}")
        start = int(match.group("start"))
        end_text = match.group("end")
        end = int(end_text) if end_text is not None else 128
        base = IPv6Prefix.from_string(f"{match.group('prefix')}/{start}")
        return cls(base, end)

    @property
    def window_bits(self) -> int:
        """Bits being enumerated (e.g. 32 for a /32-64 range)."""
        return self.target_length - self.base.length

    @property
    def count(self) -> int:
        """Number of sub-prefixes in the window."""
        return 1 << self.window_bits

    @property
    def host_bits(self) -> int:
        """Bits left for the IID after the enumerated sub-prefix."""
        return 128 - self.target_length

    def subprefix(self, index: int) -> IPv6Prefix:
        return self.base.subprefix(index, self.target_length)

    def index_of(self, addr: IPv6Addr) -> int:
        """The window index of the sub-prefix containing ``addr``."""
        return self.base.subprefix_index(addr, self.target_length)

    def __str__(self) -> str:
        return f"{self.base}-{self.target_length}"


class TargetGenerator:
    """Turns sub-prefix indices into concrete probe addresses.

    IIDs are derived from a keyed hash of the index rather than a mutable
    RNG, keeping target generation stateless and shard-independent: the same
    (seed, index) pair always produces the same probe address, so shards of
    one logical scan agree on targets without coordination.

    :meth:`address` / :meth:`iid` derive one target and define what a target
    is; :meth:`addresses_block` is what a scan calls, and derives a block of
    them with no per-index Python hashing at any window width.
    """

    def __init__(
        self,
        scan_range: ScanRange,
        strategy: IidStrategy = IidStrategy.RANDOM,
        seed: int = 0,
        fixed_iid: int = 1,
    ) -> None:
        self.range = scan_range
        self.strategy = strategy
        self.fixed_iid = fixed_iid
        self._key = SipKey((seed & (1 << 128) - 1).to_bytes(16, "little"))

    def iid(self, index: int) -> int:
        host_bits = self.range.host_bits
        if host_bits == 0:
            return 0
        mask = (1 << host_bits) - 1
        if self.strategy is IidStrategy.RANDOM:
            wide = self._key.hash_uints(index)
            if host_bits > 64:
                wide |= self._key.hash_uints(index, 1) << 64
            return wide & mask
        if self.strategy is IidStrategy.LOW_BYTE:
            return 1
        return self.fixed_iid & mask

    def address(self, index: int) -> IPv6Addr:
        return self.range.subprefix(index).address(self.iid(index))

    def addresses_block(self, indices: Sequence[int]) -> List[IPv6Addr]:
        """``[self.address(i) for i in indices]``, derived a block at a time.

        Every window width and every strategy takes the one formula
        ``base | (index << host_bits) | iid`` — what
        ``subprefix().address()`` computes one object at a time — with no
        per-index :class:`IPv6Prefix`.  RANDOM IIDs come from the lane
        SipHash (:meth:`SipKey.hash_uints_block`): one hash per index up to
        64 host bits, and for the wider windows the paper's /56 and /60
        scans leave (72 / 68 bits) the second, ``(index, 1)`` hash shifted
        above the first, exactly as :meth:`iid` assembles them.  LOW_BYTE
        and FIXED are one constant.  :meth:`address` stays the scalar
        oracle; outputs and the out-of-range :class:`AddressError` are
        identical either way.
        """
        if not indices:
            return []
        rng = self.range
        host_bits = rng.host_bits
        for index in (min(indices), max(indices)):
            if not 0 <= index < rng.count:
                raise AddressError(f"sub-prefix index {index} out of range")
        count = len(indices)
        if host_bits == 0:
            iids = [0] * count
        elif self.strategy is IidStrategy.RANDOM:
            iids = self._key.hash_uints_block(indices)
            if host_bits > 64:
                iids = [
                    low | (high << 64) for low, high in
                    zip(iids, self._key.hash_uints_block(indices, 1))
                ]
        elif self.strategy is IidStrategy.LOW_BYTE:
            iids = [1] * count
        else:
            iids = [self.fixed_iid] * count
        base = rng.base.network
        mask = (1 << host_bits) - 1
        return [
            IPv6Addr(base | (index << host_bits) | (iid & mask))
            for index, iid in zip(indices, iids)
        ]
