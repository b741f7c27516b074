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
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator, List, Sequence

from repro.core import siphash
from repro.core.siphash import _MASK, SipKey
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


class TargetBlock:
    """A block of targets, kept as the numbers a scan works on.

    ``values`` holds each target address as an int.  A block numpy derived
    also carries its two 64-bit words as uint64 columns, ``hi`` and ``lo``
    (``value == hi << 64 | lo``), which the validation tags
    (:meth:`Validator.prime`) and the forwarding engine's vector phase read
    as they are; otherwise both are None.  For everyone else it is a
    sequence of :class:`IPv6Addr` — ``len``, iteration, indexing and
    equality with any sequence of addresses — each made when it is read; a
    slice is another :class:`TargetBlock` over the same numbers.
    """

    __slots__ = ("values", "hi", "lo")

    def __init__(self, values: List[int], hi=None, lo=None) -> None:
        self.values = values
        self.hi = hi
        self.lo = lo

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[IPv6Addr]:
        return map(IPv6Addr, self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self.hi is None:
                return TargetBlock(self.values[index])
            return TargetBlock(self.values[index], self.hi[index],
                               self.lo[index])
        return IPv6Addr(self.values[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TargetBlock):
            return self.values == other.values
        if isinstance(other, SequenceABC) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TargetBlock({list(self)!r})"


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

    def addresses_block(self, indices: Sequence[int]) -> TargetBlock:
        """``[self.address(i) for i in indices]``, derived a block at a time.

        Every window width and every strategy takes the one formula
        ``base | (index << host_bits) | iid`` — what
        ``subprefix().address()`` computes one object at a time — and the
        result is a :class:`TargetBlock`: the addresses as ints, and no
        :class:`IPv6Addr` until one is read.  With numpy, a block of at
        least :data:`~repro.core.siphash._VECTOR_MIN` indices below 2^64
        (every window of 64 bits or fewer) is evaluated on 64-bit words
        (:meth:`_words`) and keeps them; otherwise the formula runs on
        Python ints, RANDOM IIDs still hashed a block at a time
        (:meth:`SipKey.hash_uints_block`).  Either way a RANDOM IID is one
        hash per index up to 64 host bits, and for the wider windows the
        paper's /56 and /60 scans leave (72 / 68 bits) the second,
        ``(index, 1)`` hash shifted above the first, exactly as :meth:`iid`
        assembles them.  :meth:`address` stays the scalar oracle; outputs
        and the out-of-range :class:`AddressError` are identical either way.
        """
        if not indices:
            return TargetBlock([])
        rng = self.range
        highest = max(indices)
        for index in (min(indices), highest):
            if not 0 <= index < rng.count:
                raise AddressError(f"sub-prefix index {index} out of range")
        if (siphash._np is not None and len(indices) >= siphash._VECTOR_MIN
                and not highest >> 64):
            return self._words(indices)
        host_bits = rng.host_bits
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
        return TargetBlock([
            base | (index << host_bits) | (iid & mask)
            for index, iid in zip(indices, iids)
        ])

    def _words(self, indices: Sequence[int]) -> TargetBlock:
        """:meth:`addresses_block` on uint64 words, for indices below 2^64.

        Each part of ``base | (index << host_bits) | iid`` is split into
        its high and low word — a column, or a scalar every lane shares —
        and the words are ORed: a window index's upper word is 0, so the
        IID hashes read the index column as it is
        (:meth:`SipKey.hash_words_block`), and the shifted index straddles
        the two words only when ``host_bits`` is below 64.
        """
        np = siphash._np
        u64 = np.uint64
        host_bits = self.range.host_bits
        n = len(indices)
        index = np.array(indices, dtype=u64)
        mask = (1 << host_bits) - 1
        iid_hi: Any = u64(0)
        iid_lo: Any = u64(0)
        if self.strategy is not IidStrategy.RANDOM:
            low_byte = self.strategy is IidStrategy.LOW_BYTE
            iid = (1 if low_byte else self.fixed_iid) & mask
            iid_hi, iid_lo = u64(iid >> 64), u64(iid & _MASK)
        elif host_bits:
            iid_lo = self._key.hash_words_block(index, 0)
            if host_bits > 64:
                iid_hi = self._key.hash_words_block(index, 0, 1)
                np.bitwise_and(iid_hi, u64(mask >> 64), out=iid_hi)
            elif host_bits < 64:
                np.bitwise_and(iid_lo, u64(mask), out=iid_lo)
        if host_bits == 128:  # a one-target window: index 0, no bits
            hi, lo = np.zeros(n, dtype=u64), np.zeros(n, dtype=u64)
        elif host_bits >= 64:  # the index sits in the upper word
            hi, lo = index << u64(host_bits - 64), np.zeros(n, dtype=u64)
        elif host_bits:
            hi, lo = index >> u64(64 - host_bits), index << u64(host_bits)
        else:
            hi, lo = np.zeros(n, dtype=u64), index
        base = self.range.base.network
        hi |= u64(base >> 64)
        hi |= iid_hi
        lo |= u64(base & _MASK)
        lo |= iid_lo
        values = [h << 64 | w for h, w in zip(hi.tolist(), lo.tolist())]
        return TargetBlock(values, hi, lo)
