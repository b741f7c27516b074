"""Scan-range DSL and IID fill strategies."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocklist import Blocklist
from repro.core.permutation import make_permutation
from repro.core.scanner import Scanner
from repro.core import siphash
from repro.core.siphash import _VECTOR_MIN
from repro.core.target import (
    IidStrategy,
    ScanRange,
    TargetBlock,
    TargetGenerator,
)
from repro.net.addr import AddressError, IPv6Addr, IPv6Prefix

from tests.topo import build_mini


class TestScanRange:
    def test_parse_window(self):
        sr = ScanRange.parse("2001:db8::/32-64")
        assert sr.base.length == 32
        assert sr.target_length == 64
        assert sr.window_bits == 32
        assert sr.count == 1 << 32
        assert sr.host_bits == 64

    def test_parse_bare_prefix_extends_to_128(self):
        sr = ScanRange.parse("2001:db8::/32")
        assert sr.target_length == 128
        assert sr.host_bits == 0

    def test_parse_rejects_reversed_window(self):
        with pytest.raises(AddressError):
            ScanRange.parse("2001:db8::/64-32")

    def test_parse_rejects_garbage(self):
        with pytest.raises(AddressError):
            ScanRange.parse("not-a-range")

    def test_parse_rejects_host_bits(self):
        with pytest.raises(AddressError):
            ScanRange.parse("2001:db8::1/32-64")

    def test_subprefix_and_index(self):
        sr = ScanRange.parse("2001:db8::/32-48")
        sub = sr.subprefix(0xABC)
        assert str(sub) == "2001:db8:abc::/48"
        assert sr.index_of(sub.address(5)) == 0xABC

    def test_str(self):
        assert str(ScanRange.parse("2001:db8::/32-64")) == "2001:db8::/32-64"


class TestTargetGenerator:
    def _range(self):
        return ScanRange.parse("2001:db8::/32-64")

    def test_random_iids_are_deterministic_per_seed(self):
        sr = self._range()
        a = TargetGenerator(sr, seed=1)
        b = TargetGenerator(sr, seed=1)
        c = TargetGenerator(sr, seed=2)
        assert a.address(5) == b.address(5)
        assert a.address(5) != c.address(5)

    def test_random_iids_differ_per_index(self):
        gen = TargetGenerator(self._range(), seed=1)
        iids = {gen.iid(i) for i in range(100)}
        assert len(iids) == 100

    def test_addresses_land_in_right_subprefix(self):
        sr = self._range()
        gen = TargetGenerator(sr, seed=3)
        for index in (0, 1, 12345, sr.count - 1):
            addr = gen.address(index)
            assert sr.subprefix(index).contains(addr)

    def test_low_byte_strategy(self):
        gen = TargetGenerator(self._range(), strategy=IidStrategy.LOW_BYTE)
        assert gen.iid(7) == 1
        assert str(gen.address(7)).endswith("::1")

    def test_fixed_strategy(self):
        gen = TargetGenerator(
            self._range(), strategy=IidStrategy.FIXED, fixed_iid=0xBEEF
        )
        assert gen.iid(3) == 0xBEEF

    def test_zero_host_bits(self):
        sr = ScanRange.parse("2001:db8::/120-128")
        gen = TargetGenerator(sr, seed=1)
        assert gen.iid(5) == 0
        assert gen.address(5) == IPv6Addr.from_string("2001:db8::5")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 20) - 1))
    def test_wide_host_bits_fit(self, index):
        # A /32-44 range leaves 84 host bits: the wide-IID path.
        sr = ScanRange.parse("2001:db8::/32-44")
        gen = TargetGenerator(sr, seed=9)
        index %= sr.count
        addr = gen.address(index)
        assert sr.base.contains(addr)
        assert sr.subprefix(index).contains(addr)


#: Host-bit widths either side of every boundary ``addresses_block`` has:
#: none, one, the paper's /60 and /56 windows (68 / 72), the one-hash /
#: two-hash switch at 64, and the full address.
HOST_BITS = (0, 1, 60, 63, 64, 65, 68, 72, 100, 127, 128)


def _range_with(host_bits: int, window_bits: int = 12) -> ScanRange:
    """A window of up to 2^window_bits sub-prefixes leaving ``host_bits``."""
    target_length = 128 - host_bits
    base_length = max(0, target_length - window_bits)
    network = (0x20010DB8 << 96) >> (128 - base_length) << (128 - base_length)
    return ScanRange(IPv6Prefix(network, base_length), target_length)


class TestAddressesBlock:
    """The block path against ``address()``, the scalar oracle.

    Every scan's targets come out of ``addresses_block``, the pipeline
    matrix compares configurations that all go through it, and a wrong IID
    still finds every responder — so only this comparison can catch one.
    """

    @pytest.mark.parametrize("host_bits", HOST_BITS)
    @pytest.mark.parametrize("strategy", list(IidStrategy))
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=(1 << 130) - 1),
        fixed_iid=st.integers(min_value=0, max_value=(1 << 128) - 1),
        length=st.sampled_from([0, 1, _VECTOR_MIN - 1, _VECTOR_MIN, 33]),
        data=st.data(),
    )
    def test_block_matches_scalar(
        self, strategy, host_bits, seed, fixed_iid, length, data
    ):
        scan_range = _range_with(host_bits)
        gen = TargetGenerator(
            scan_range, strategy=strategy, seed=seed, fixed_iid=fixed_iid
        )
        indices = data.draw(st.lists(
            st.integers(min_value=0, max_value=scan_range.count - 1),
            min_size=length, max_size=length,
        ))
        expected = [gen.address(i) for i in indices]
        block = gen.addresses_block(indices)
        assert isinstance(block, TargetBlock)
        assert block == expected
        assert list(block) == expected
        assert block.values == [address.value for address in expected]
        # With numpy a block from the crossover up is derived on words.
        assert (block.hi is not None) == (
            siphash._np is not None and length >= _VECTOR_MIN
        )
        if block.hi is not None:
            assert block.hi.dtype == block.lo.dtype == siphash._np.uint64
            assert [(hi << 64) | lo for hi, lo in zip(
                block.hi.tolist(), block.lo.tolist()
            )] == block.values

    def test_indices_past_64_bits(self):
        # A /8-96 window has 88-bit indices: both words of the hashed part.
        # They take the scalar formula, so the block carries no words.
        gen = TargetGenerator(ScanRange.parse("2000::/8-96"), seed=4)
        indices = [(1 << 88) - 1 - i * 0x9E3779B97F4A7C15 for i in range(20)]
        block = gen.addresses_block(indices)
        assert block.hi is None and block.lo is None
        assert block == [gen.address(i) for i in indices]
        assert block.values == [gen.address(i).value for i in indices]

    def test_block_reads_as_a_sequence_of_addresses(self):
        gen = TargetGenerator(ScanRange.parse("2001:db8:1::/48-64"), seed=2)
        indices = list(range(3, 3 + 2 * _VECTOR_MIN))
        block = gen.addresses_block(indices)
        expected = [gen.address(i) for i in indices]
        assert len(block) == len(expected)
        assert block[0] == expected[0] and block[-1] == expected[-1]
        assert block == tuple(expected) and block != expected[1:]
        tail = block[5:]
        assert isinstance(tail, TargetBlock) and tail == expected[5:]
        assert tail.values == block.values[5:]
        if block.hi is not None:  # a slice's words are its own
            assert tail.lo.tolist() == block.lo.tolist()[5:]
        assert block == gen.addresses_block(indices)

    @pytest.mark.parametrize("strategy", list(IidStrategy))
    @pytest.mark.parametrize("bad", [16, -1])
    @pytest.mark.parametrize("length", [1, 2 * _VECTOR_MIN])
    def test_out_of_range_index_is_refused_as_the_scalar_path_does(
        self, strategy, bad, length
    ):
        gen = TargetGenerator(
            ScanRange.parse("2001:db8:1:50::/60-64"), strategy=strategy
        )
        with pytest.raises(AddressError) as scalar:
            gen.address(bad)
        indices = [3] * length
        indices[length // 2] = bad
        with pytest.raises(AddressError) as block:
            gen.addresses_block(indices)
        assert str(block.value) == str(scalar.value)
        assert str(block.value) == f"sub-prefix index {bad} out of range"

    def test_every_index_in_range_is_accepted(self):
        gen = TargetGenerator(ScanRange.parse("2001:db8:1:50::/60-64"))
        indices = list(range(16))
        assert gen.addresses_block(indices) == [
            gen.address(i) for i in indices
        ]


class TestTargetStream:
    """``Scanner.targets()`` against a scalar recomputation of the stream
    from the permutation, on the two window widths the paper scans to."""

    WINDOWS = {
        # spec -> a blocked prefix covering several of its sub-prefixes
        "2001:db8:1::/50-60": "2001:db8:1:100::/56",
        "2001:db8::/46-56": "2001:db8:1:4000::/50",
    }

    @staticmethod
    def _scalar_stream(config):
        gen = TargetGenerator(
            config.scan_range, strategy=config.iid_strategy,
            seed=config.seed, fixed_iid=config.fixed_iid,
        )
        permutation = make_permutation(config.scan_range.count,
                                       seed=config.seed)
        indices = islice(
            permutation.indices(config.shard, config.shards), config.skip, None
        )
        stream = []
        for index in indices:
            if len(stream) == config.max_probes:
                break
            address = gen.address(index)
            if config.blocklist is None or config.blocklist.check(address).allowed:
                stream.append(address)
        return stream

    @pytest.mark.parametrize("spec", sorted(WINDOWS))
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize(
        "skip,max_probes", [(0, None), (37, None), (0, 300), (300, 5)]
    )
    def test_stream_matches_scalar_recomputation(
        self, spec, shards, skip, max_probes
    ):
        topo = build_mini()
        blocklist = Blocklist(blocked=[self.WINDOWS[spec]])
        for shard in range(shards):
            scanner = Scanner.with_defaults(
                topo.network, topo.vantage, spec, seed=11, shard=shard,
                shards=shards, skip=skip, max_probes=max_probes,
                blocklist=blocklist,
            )
            expected = self._scalar_stream(scanner.config)
            assert expected
            assert list(scanner.targets()) == expected
            if max_probes is None:  # the whole shard: the veto was exercised
                assert scanner.blocked_count > 0
