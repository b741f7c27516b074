"""Stateless probe validation."""

import pytest
from hypothesis import given, strategies as st

from repro.core import siphash
from repro.core.validate import Validator
from repro.net.addr import IPv6Addr

addr_values = st.integers(min_value=0, max_value=(1 << 128) - 1)
SECRET = bytes(range(16))


class TestValidator:
    def test_rejects_bad_secret(self):
        with pytest.raises(ValueError):
            Validator(b"short")

    def test_random_secret_by_default(self):
        a, b = Validator(), Validator()
        dst = IPv6Addr.from_string("2001:db8::1")
        assert a.tag(dst) != b.tag(dst)  # astronomically unlikely to collide

    @given(addr_values)
    def test_fields_deterministic(self, value):
        v = Validator(SECRET)
        assert v.fields(value) == v.fields(IPv6Addr(value))

    @given(addr_values)
    def test_fields_in_range(self, value):
        fields = Validator(SECRET).fields(value)
        assert 0 <= fields.ident < (1 << 16)
        assert 0 <= fields.seq < (1 << 16)
        assert 0 <= fields.tcp_seq < (1 << 32)
        assert 0x8000 <= fields.sport <= 0xFFFF

    def test_check_echo(self):
        v = Validator(SECRET)
        dst = IPv6Addr.from_string("2001:db8::1")
        fields = v.fields(dst)
        assert v.check_echo(dst, fields.ident, fields.seq)
        assert not v.check_echo(dst, fields.ident ^ 1, fields.seq)
        other = IPv6Addr.from_string("2001:db8::2")
        assert not v.check_echo(other, fields.ident, fields.seq)

    def test_check_tcp(self):
        v = Validator(SECRET)
        dst = IPv6Addr.from_string("2001:db8::1")
        fields = v.fields(dst)
        good_ack = (fields.tcp_seq + 1) & 0xFFFFFFFF
        assert v.check_tcp(dst, fields.sport, good_ack)
        assert not v.check_tcp(dst, fields.sport, good_ack + 1)
        assert not v.check_tcp(dst, fields.sport ^ 1, good_ack)

    def test_check_udp(self):
        v = Validator(SECRET)
        dst = IPv6Addr.from_string("2001:db8::1")
        assert v.check_udp(dst, v.fields(dst).sport)
        assert not v.check_udp(dst, 1234)

    def test_secret_separates_scans(self):
        dst = IPv6Addr.from_string("2001:db8::1")
        a = Validator(SECRET)
        b = Validator(bytes(reversed(SECRET)))
        fields = a.fields(dst)
        assert not b.check_echo(dst, fields.ident, fields.seq)


class TestPrimedTags:
    """``prime`` keeps two blocks of tags: the newest and the one before."""

    BLOCKS = [
        [(0x20010DB8 << 96) | (block << 16) | i for i in range(20)]
        for block in range(3)
    ]

    def test_primed_tags_are_the_unprimed_ones(self):
        primed, fresh = Validator(SECRET), Validator(SECRET)
        for block in self.BLOCKS:
            primed.prime(block)
        for value in [v for block in self.BLOCKS for v in block]:
            assert primed.tag(value) == fresh.tag(value)

    @pytest.mark.skipif(
        siphash._np is None, reason="without numpy priming hashes in Python"
    )
    def test_previous_block_still_hits_after_the_next_is_primed(
        self, scalar_hash_calls
    ):
        v = Validator(SECRET)
        first, second, third = self.BLOCKS
        v.prime(first)
        v.prime(second)
        for value in first + second:
            v.tag(value)
        assert scalar_hash_calls == []
        # Two generations, not an ever-growing table: the third block
        # pushes the first out, whose tags are then re-derived.
        v.prime(third)
        for value in second + third:
            v.tag(value)
        assert scalar_hash_calls == []
        v.tag(first[0])
        assert scalar_hash_calls == [(first[0],)]
