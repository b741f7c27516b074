"""SipHash-2-4 against the reference vectors from the SipHash paper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.siphash import _VECTOR_MIN, SipKey, keyed_uint, siphash24

#: Key 000102...0f, messages of increasing length 0..7, from the reference
#: implementation's vectors (first 8 of the 64 published).
REFERENCE_KEY = bytes(range(16))
REFERENCE_VECTORS = [
    0x726FDB47DD0E0E31,
    0x74F839C593DC67FD,
    0x0D6C8009D9A94F5A,
    0x85676696D7FB7E2D,
    0xCF2794E0277187B7,
    0x18765564CD99A68D,
    0xCBC9466E58FEE3CE,
    0xAB0200F58B01D137,
]


class TestReferenceVectors:
    @pytest.mark.parametrize("length,expected", enumerate(REFERENCE_VECTORS))
    def test_vector(self, length, expected):
        message = bytes(range(length))
        assert siphash24(REFERENCE_KEY, message) == expected

    def test_long_message(self):
        # 64-byte messages exercise multiple body blocks deterministically.
        a = siphash24(REFERENCE_KEY, bytes(64))
        b = siphash24(REFERENCE_KEY, bytes(64))
        assert a == b
        assert a != siphash24(REFERENCE_KEY, bytes(63))


class TestProperties:
    def test_rejects_bad_key(self):
        with pytest.raises(ValueError):
            siphash24(b"short", b"")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_messages_distinct_hashes(self, a, b):
        if a == b:
            return
        assert siphash24(REFERENCE_KEY, a) != siphash24(REFERENCE_KEY, b)

    @given(st.binary(min_size=16, max_size=16), st.binary(max_size=32))
    def test_output_is_64_bit(self, key, message):
        assert 0 <= siphash24(key, message) < (1 << 64)

    def test_key_matters(self):
        other = bytes(range(1, 17))
        assert siphash24(REFERENCE_KEY, b"msg") != siphash24(other, b"msg")

    def test_keyed_uint_parts(self):
        assert keyed_uint(REFERENCE_KEY, 1, 2) != keyed_uint(REFERENCE_KEY, 2, 1)
        assert keyed_uint(REFERENCE_KEY, 1) == keyed_uint(REFERENCE_KEY, 1)

    def test_keyed_uint_wide_values(self):
        wide = (1 << 127) | 5
        assert 0 <= keyed_uint(REFERENCE_KEY, wide) < (1 << 64)


u128 = st.integers(min_value=0, max_value=(1 << 128) - 1)


def _reference(key: bytes, *parts: int) -> int:
    """The byte-string reference over ``parts``, 16 LE bytes each."""
    return siphash24(key, b"".join(p.to_bytes(16, "little") for p in parts))


class TestLaneKernel:
    """``hash_uints_block`` against both scalar implementations.

    The target stream and the primed validation tags are made of these
    hashes, and nothing downstream can see a wrong one (a scan with wrong
    IIDs still finds every responder), so the kernel is pinned here: k-part
    messages, 128-bit values, blocks on both sides of the numpy threshold.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        length=st.sampled_from(
            [0, 1, _VECTOR_MIN - 1, _VECTOR_MIN, _VECTOR_MIN + 1, 40]
        ),
        suffix=st.lists(u128, max_size=2),
        data=st.data(),
    )
    def test_block_matches_scalar_and_reference(self, key, length, suffix, data):
        values = data.draw(st.lists(u128, min_size=length, max_size=length))
        sip = SipKey(key)
        block = sip.hash_uints_block(values, *suffix)
        assert block == [sip.hash_uints(v, *suffix) for v in values]
        assert block == [_reference(key, v, *suffix) for v in values]

    def test_tail_length_byte_wraps_with_the_part_count(self):
        # The value and 15 trailing parts are 256 bytes: the length byte
        # wraps to 0, as the reference's ``total & 0xFF`` does.
        sip = SipKey(REFERENCE_KEY)
        values = list(range(_VECTOR_MIN + 3))
        suffix = tuple(range(100, 115))
        assert sip.hash_uints_block(values, *suffix) == [
            _reference(REFERENCE_KEY, v, *suffix) for v in values
        ]
