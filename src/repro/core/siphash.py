"""SipHash-2-4 (Aumasson & Bernstein), implemented from scratch.

ZMap-family scanners are stateless: they encode scan state into probe fields
(ICMP ident/seq, TCP source port/sequence) as a keyed hash of the destination
so a reply can be validated without a per-probe table.  SipHash is the keyed
PRF used for that validation here, and as the round function of the Feistel
permutation fallback.

Two implementations share the reference test vectors:

* :func:`siphash24` — the readable, arbitrary-length byte-string version.
* :class:`SipKey` — the scan hot path.  The scanner hashes two to three
  16-byte messages per probe (target IID derivation, probe-field tagging,
  reply validation), always under a per-scan constant key, so ``SipKey``
  precomputes the key schedule once and runs fully inlined rounds on
  128-bit integers with no byte-string construction at all.  Its output is
  bit-identical to ``siphash24`` (asserted in the unit tests).
  :meth:`SipKey.hash_words_block` is the one block kernel: the same hash
  over a block of messages at once, each lane's 128-bit value given as
  two uint64 word columns (the upper one may be a scalar — a window
  index's is 0), run in place in numpy uint64 lanes, returning a column.
  A scan's target blocks are derived as word columns, so every target's
  IID and validation tag comes from it without a value ever being split
  again.  :meth:`SipKey.hash_uints_block` takes Python ints: it splits
  them into words, calls the kernel and returns a list; below
  :data:`_VECTOR_MIN` values, or without numpy, it is the scalar loop.
  :meth:`SipKey.hash_uints` is the kernel's oracle.

Reference test vectors from the SipHash paper are checked in the unit tests.
"""

from __future__ import annotations

import struct

try:  # optional acceleration for block hashing; scalar fallback otherwise
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None  # type: ignore[assignment]

_MASK = 0xFFFFFFFFFFFFFFFF

#: Below this many values a block is hashed by the scalar loop: the
#: kernel's cost is its ≈ 250 ufunc calls, not its lanes.  Measured on a
#: 2-vCPU VM (Python 3.11, numpy 2.4; least of 15 interleaved runs of 20):
#: the scalar loop costs 12.3 µs a value (149 µs at 12), the kernel
#: 155-170 µs at any length up to 32 (167 µs at 12, 159 µs at 14), so the
#: two break even at 13.
_VECTOR_MIN = 13


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & _MASK


class SipKey:
    """Precomputed SipHash-2-4 key schedule with inlined integer hashing.

    One probe costs ~10 SipHash rounds; the reference implementation spends
    most of that in Python function-call overhead (`sipround`, `_rotl`) and
    byte-string packing.  This class keeps the four initial state words and
    hashes 16-byte-encoded integers directly, unrolling every round.
    """

    __slots__ = ("key", "_v0", "_v1", "_v2", "_v3")

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("SipHash key must be exactly 16 bytes")
        self.key = key
        k0, k1 = struct.unpack("<QQ", key)
        self._v0 = k0 ^ 0x736F6D6570736575
        self._v1 = k1 ^ 0x646F72616E646F6D
        self._v2 = k0 ^ 0x6C7967656E657261
        self._v3 = k1 ^ 0x7465646279746573

    def hash_uints(self, *parts: int) -> int:
        """SipHash-2-4 over ``parts`` each encoded as 16 LE bytes.

        Bit-identical to ``siphash24(key, b"".join(p.to_bytes(16, "little")
        for p in parts))`` — the words of each 128-bit part are fed through
        two compression rounds apiece, then the standard length-tagged tail
        block and four finalization rounds run.
        """
        M = _MASK
        v0 = self._v0
        v1 = self._v1
        v2 = self._v2
        v3 = self._v3
        for part in parts:
            for m in ((part & M), (part >> 64) & M):
                v3 ^= m
                # two compression rounds, unrolled
                v0 = (v0 + v1) & M
                v1 = ((v1 << 13) | (v1 >> 51)) & M
                v1 ^= v0
                v0 = ((v0 << 32) | (v0 >> 32)) & M
                v2 = (v2 + v3) & M
                v3 = ((v3 << 16) | (v3 >> 48)) & M
                v3 ^= v2
                v0 = (v0 + v3) & M
                v3 = ((v3 << 21) | (v3 >> 43)) & M
                v3 ^= v0
                v2 = (v2 + v1) & M
                v1 = ((v1 << 17) | (v1 >> 47)) & M
                v1 ^= v2
                v2 = ((v2 << 32) | (v2 >> 32)) & M
                v0 = (v0 + v1) & M
                v1 = ((v1 << 13) | (v1 >> 51)) & M
                v1 ^= v0
                v0 = ((v0 << 32) | (v0 >> 32)) & M
                v2 = (v2 + v3) & M
                v3 = ((v3 << 16) | (v3 >> 48)) & M
                v3 ^= v2
                v0 = (v0 + v3) & M
                v3 = ((v3 << 21) | (v3 >> 43)) & M
                v3 ^= v0
                v2 = (v2 + v1) & M
                v1 = ((v1 << 17) | (v1 >> 47)) & M
                v1 ^= v2
                v2 = ((v2 << 32) | (v2 >> 32)) & M
                v0 ^= m
        # Tail block: the input is a whole number of 8-byte words, so the
        # tail carries only the length byte (total bytes mod 256) << 56.
        m = ((len(parts) << 4) & 0xFF) << 56
        v3 ^= m
        v0 = (v0 + v1) & M
        v1 = ((v1 << 13) | (v1 >> 51)) & M
        v1 ^= v0
        v0 = ((v0 << 32) | (v0 >> 32)) & M
        v2 = (v2 + v3) & M
        v3 = ((v3 << 16) | (v3 >> 48)) & M
        v3 ^= v2
        v0 = (v0 + v3) & M
        v3 = ((v3 << 21) | (v3 >> 43)) & M
        v3 ^= v0
        v2 = (v2 + v1) & M
        v1 = ((v1 << 17) | (v1 >> 47)) & M
        v1 ^= v2
        v2 = ((v2 << 32) | (v2 >> 32)) & M
        v0 = (v0 + v1) & M
        v1 = ((v1 << 13) | (v1 >> 51)) & M
        v1 ^= v0
        v0 = ((v0 << 32) | (v0 >> 32)) & M
        v2 = (v2 + v3) & M
        v3 = ((v3 << 16) | (v3 >> 48)) & M
        v3 ^= v2
        v0 = (v0 + v3) & M
        v3 = ((v3 << 21) | (v3 >> 43)) & M
        v3 ^= v0
        v2 = (v2 + v1) & M
        v1 = ((v1 << 17) | (v1 >> 47)) & M
        v1 ^= v2
        v2 = ((v2 << 32) | (v2 >> 32)) & M
        v0 ^= m
        v2 ^= 0xFF
        for _ in range(4):
            v0 = (v0 + v1) & M
            v1 = ((v1 << 13) | (v1 >> 51)) & M
            v1 ^= v0
            v0 = ((v0 << 32) | (v0 >> 32)) & M
            v2 = (v2 + v3) & M
            v3 = ((v3 << 16) | (v3 >> 48)) & M
            v3 ^= v2
            v0 = (v0 + v3) & M
            v3 = ((v3 << 21) | (v3 >> 43)) & M
            v3 ^= v0
            v2 = (v2 + v1) & M
            v1 = ((v1 << 17) | (v1 >> 47)) & M
            v1 ^= v2
            v2 = ((v2 << 32) | (v2 >> 32)) & M
        return (v0 ^ v1 ^ v2 ^ v3) & M

    def hash_words_block(self, lo, hi, *suffix: int):
        """The block kernel: SipHash-2-4 of every lane's message.

        Lane ``j``'s message is the 128-bit value ``(hi[j] << 64) | lo[j]``
        followed by the constant trailing ``suffix`` parts, each encoded as
        16 LE bytes — so lane ``j`` of the result is ``hash_uints((hi[j] <<
        64) | lo[j], *suffix)``.  ``lo`` is a numpy uint64 column; ``hi`` is
        one too, or a scalar every lane shares (0 for a window index, whose
        upper word is empty).  A constant part is a scalar XORed into every
        lane.  The rounds run in place — wrapping uint64 adds and shifts are
        exactly the mod-2^64 operations SipHash needs, and every rotation
        goes through one scratch column — and the result is a uint64 column.
        Needs numpy; :meth:`hash_uints_block` is the entry point that
        falls back without it.
        """
        n = len(lo)
        u64 = _np.uint64
        add, xor, bor = _np.add, _np.bitwise_xor, _np.bitwise_or
        shl, shr = _np.left_shift, _np.right_shift
        v0 = _np.full(n, self._v0, dtype=u64)
        v1 = _np.full(n, self._v1, dtype=u64)
        v2 = _np.full(n, self._v2, dtype=u64)
        v3 = _np.full(n, self._v3, dtype=u64)
        t = _np.empty(n, dtype=u64)

        def rotl(v, b) -> None:
            shl(v, b, out=t)
            shr(v, 64 - b, out=v)
            bor(v, t, out=v)

        def rounds(count: int) -> None:
            for _ in range(count):
                add(v0, v1, out=v0)
                rotl(v1, 13)
                xor(v1, v0, out=v1)
                rotl(v0, 32)
                add(v2, v3, out=v2)
                rotl(v3, 16)
                xor(v3, v2, out=v3)
                add(v0, v3, out=v0)
                rotl(v3, 21)
                xor(v3, v0, out=v3)
                add(v2, v1, out=v2)
                rotl(v1, 17)
                xor(v1, v2, out=v1)
                rotl(v2, 32)

        def compress(m) -> None:
            # One 8-byte message word: a lane column, or a scalar every lane
            # shares (a constant part, the tail block).
            xor(v3, m, out=v3)
            rounds(2)
            xor(v0, m, out=v0)

        compress(lo)
        compress(hi if isinstance(hi, _np.ndarray) else u64(hi & _MASK))
        for part in suffix:
            compress(u64(part & _MASK))
            compress(u64((part >> 64) & _MASK))
        # Tail block: the message is whole 8-byte words, so it carries only
        # the length byte — 16 bytes per part, mod 256 — as ``hash_uints``.
        compress(u64((((1 + len(suffix)) << 4) & 0xFF) << 56))
        xor(v2, u64(0xFF), out=v2)
        rounds(4)
        xor(v0, v1, out=v0)
        xor(v2, v3, out=v2)
        return xor(v0, v2, out=v0)

    def hash_uints_block(self, values, *suffix: int) -> list:
        """``[self.hash_uints(v, *suffix) for v in values]``, vectorised.

        A k-part message per lane: the lane's own value, then the constant
        trailing ``suffix`` parts.  No suffix is the one-part message of
        probe tagging and of IIDs that fit 64 bits; ``(values, 1)`` is the
        second half of a wider IID (:meth:`TargetGenerator.iid`).  With
        numpy the values are split into their two words and hashed by
        :meth:`hash_words_block`, so the outputs are bit-identical to the
        scalar path and to :func:`siphash24` (asserted in the unit tests).
        Without numpy, or below :data:`_VECTOR_MIN` values, this is the
        scalar loop.
        """
        n = len(values)
        if _np is None or n < _VECTOR_MIN:
            return [self.hash_uints(v, *suffix) for v in values]
        u64 = _np.uint64
        lo = _np.fromiter((v & _MASK for v in values), dtype=u64, count=n)
        hi = _np.fromiter(((v >> 64) & _MASK for v in values), dtype=u64,
                          count=n)
        return self.hash_words_block(lo, hi, *suffix).tolist()


def siphash24(key: bytes, data: bytes) -> int:
    """SipHash-2-4 of ``data`` under a 16-byte ``key``; returns a 64-bit int."""
    if len(key) != 16:
        raise ValueError("SipHash key must be exactly 16 bytes")
    k0, k1 = struct.unpack("<QQ", key)
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573

    def sipround() -> None:
        nonlocal v0, v1, v2, v3
        v0 = (v0 + v1) & _MASK
        v1 = _rotl(v1, 13)
        v1 ^= v0
        v0 = _rotl(v0, 32)
        v2 = (v2 + v3) & _MASK
        v3 = _rotl(v3, 16)
        v3 ^= v2
        v0 = (v0 + v3) & _MASK
        v3 = _rotl(v3, 21)
        v3 ^= v0
        v2 = (v2 + v1) & _MASK
        v1 = _rotl(v1, 17)
        v1 ^= v2
        v2 = _rotl(v2, 32)

    total = len(data)
    tail_len = total % 8
    body_len = total - tail_len
    for offset in range(0, body_len, 8):
        (m,) = struct.unpack_from("<Q", data, offset)
        v3 ^= m
        sipround()
        sipround()
        v0 ^= m

    tail = data[body_len:] + b"\x00" * (7 - tail_len) + bytes([total & 0xFF])
    (m,) = struct.unpack("<Q", tail)
    v3 ^= m
    sipround()
    sipround()
    v0 ^= m

    v2 ^= 0xFF
    for _ in range(4):
        sipround()
    return (v0 ^ v1 ^ v2 ^ v3) & _MASK


def keyed_uint(key: bytes, *parts: int) -> int:
    """SipHash over a tuple of integers, each encoded as 16 LE bytes.

    Convenience wrapper used by the validator and the Feistel rounds; 16
    bytes covers full 128-bit address values.  Hot loops that hash many
    values under one key should hold a :class:`SipKey` instead — this
    wrapper re-derives the key schedule every call.
    """
    return SipKey(key).hash_uints(*parts)
