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
  :meth:`SipKey.hash_uints_block` is the same hash over a block of values
  at once, in numpy uint64 lanes — every target's IID and validation tag
  comes from it, with :meth:`SipKey.hash_uints` as its oracle and its
  fallback when numpy is absent.

Reference test vectors from the SipHash paper are checked in the unit tests.
"""

from __future__ import annotations

import struct

try:  # optional acceleration for block hashing; scalar fallback otherwise
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None  # type: ignore[assignment]

_MASK = 0xFFFFFFFFFFFFFFFF

#: Below this many values the numpy dispatch overhead beats the win.
_VECTOR_MIN = 8


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

    def hash_uints_block(self, values, *suffix: int) -> list:
        """``[self.hash_uints(v, *suffix) for v in values]``, vectorised.

        A k-part message per lane: the lane's own value, then the constant
        trailing ``suffix`` parts, each encoded as 16 LE bytes.  No suffix
        is the one-part message of probe tagging and of IIDs that fit 64
        bits; ``(values, 1)`` is the second half of a wider IID
        (:meth:`TargetGenerator.iid`).  With numpy available the whole
        block runs as uint64 lane arithmetic — wrapping adds and shifts are
        exactly the mod-2^64 operations SipHash needs, and a constant part
        is a scalar XORed into every lane — so the outputs are
        bit-identical to the scalar path and to :func:`siphash24` (asserted
        in the unit tests).  Without numpy, or for tiny blocks, this falls
        back to the scalar loop.
        """
        n = len(values)
        if _np is None or n < _VECTOR_MIN:
            return [self.hash_uints(v, *suffix) for v in values]
        M64 = _MASK
        u64 = _np.uint64
        v0 = _np.full(n, self._v0, dtype=u64)
        v1 = _np.full(n, self._v1, dtype=u64)
        v2 = _np.full(n, self._v2, dtype=u64)
        v3 = _np.full(n, self._v3, dtype=u64)

        def rounds(count: int) -> None:
            nonlocal v0, v1, v2, v3  # in-place array ops rebind the names
            for _ in range(count):
                v0 += v1
                v1[:] = (v1 << 13) | (v1 >> 51)
                v1 ^= v0
                v0[:] = (v0 << 32) | (v0 >> 32)
                v2 += v3
                v3[:] = (v3 << 16) | (v3 >> 48)
                v3 ^= v2
                v0 += v3
                v3[:] = (v3 << 21) | (v3 >> 43)
                v3 ^= v0
                v2 += v1
                v1[:] = (v1 << 17) | (v1 >> 47)
                v1 ^= v2
                v2[:] = (v2 << 32) | (v2 >> 32)

        def compress(m) -> None:
            # One 8-byte message word: a lane array, or a scalar every lane
            # shares (suffix parts, the tail block).
            nonlocal v0, v3
            v3 ^= m
            rounds(2)
            v0 ^= m

        compress(_np.fromiter((v & M64 for v in values), dtype=u64, count=n))
        compress(_np.fromiter(((v >> 64) & M64 for v in values), dtype=u64,
                              count=n))
        for part in suffix:
            compress(u64(part & M64))
            compress(u64((part >> 64) & M64))
        # Tail block: the message is whole 8-byte words, so it carries only
        # the length byte — 16 bytes per part, mod 256 — as ``hash_uints``.
        compress(u64((((1 + len(suffix)) << 4) & 0xFF) << 56))
        v2 ^= u64(0xFF)
        rounds(4)
        return (v0 ^ v1 ^ v2 ^ v3).tolist()


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
