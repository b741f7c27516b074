"""Token-bucket pacing over the virtual clock."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ratelimit import TokenBucket, VirtualPacer
from repro.net.network import Network
from repro.telemetry.metrics import MetricsRegistry


class TestTokenBucket:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0)

    def test_first_send_immediate(self):
        bucket = TokenBucket(100)
        assert bucket.consume(0.0) == 0.0

    def test_sustained_rate(self):
        bucket = TokenBucket(1000)
        now = 0.0
        for _ in range(500):
            now = bucket.consume(now)
        # 500 packets at 1000 pps take ~0.5 virtual seconds.
        assert now == pytest.approx(0.5, rel=0.02)

    def test_burst_allows_initial_clump(self):
        bucket = TokenBucket(10, burst=5)
        times = [bucket.consume(0.0) for _ in range(5)]
        assert times == [0.0] * 5
        assert bucket.consume(0.0) > 0.0

    def test_idle_refills_up_to_burst(self):
        bucket = TokenBucket(10, burst=2)
        bucket.consume(0.0)
        bucket.consume(0.0)
        # After a long idle period only `burst` tokens are available.
        assert bucket.consume(100.0) == 100.0
        assert bucket.consume(100.0) == 100.0
        assert bucket.consume(100.0) > 100.0


class TestVirtualPacer:
    def test_advances_network_clock(self):
        network = Network()
        pacer = VirtualPacer(network, rate_pps=100)
        for _ in range(200):
            pacer.pace()
        assert network.clock == pytest.approx(199 / 100, rel=0.05)

    def test_clock_never_goes_backwards(self):
        network = Network()
        pacer = VirtualPacer(network, rate_pps=10)
        previous = network.clock
        for _ in range(50):
            pacer.pace()
            assert network.clock >= previous
            previous = network.clock


class TestPaceBlock:
    """``pace_block(n)`` is ``n`` x ``pace()``: not close — the same floats."""

    @staticmethod
    def _pacer(rate, burst, clock, drained):
        network = Network()
        network.clock = clock
        pacer = VirtualPacer(network, rate, burst, metrics=MetricsRegistry())
        # A bucket mid-scan: some tokens spent, last accounted in the past.
        pacer.bucket._tokens = pacer.bucket.burst * (1.0 - drained)
        pacer.bucket._last = clock * 0.75
        return pacer

    @staticmethod
    def _state(pacer):
        waits = pacer.metrics.histogram("pacer_wait_virtual_seconds",
                                        bounds=pacer._waits.bounds)
        return (
            pacer.network.clock, pacer.bucket._tokens, pacer.bucket._last,
            pacer.metrics.value("pacer_stalls"),
            list(waits.counts), waits.count, waits.sum,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.one_of(st.sampled_from([1.0, 3.0, 2000.0, 25_000.0, 1e6]),
                       st.floats(min_value=0.1, max_value=1e7)),
        burst=st.sampled_from([1.0, 1.5, 4.0, 64.0]),
        clock=st.floats(min_value=0.0, max_value=1e4),
        drained=st.floats(min_value=0.0, max_value=1.0),
        # Idle gaps between blocks: none, shorter than and far beyond a
        # token, so blocks start stalled, part-filled and at full burst.
        steps=st.lists(
            st.tuples(st.integers(min_value=0, max_value=70),
                      st.sampled_from([0.0, 1e-7, 3e-5, 0.01, 5.0])),
            min_size=1, max_size=6,
        ),
    )
    def test_equals_n_single_paces(self, rate, burst, clock, drained, steps):
        one = self._pacer(rate, burst, clock, drained)
        many = self._pacer(rate, burst, clock, drained)
        for n, idle in steps:
            want = [one.pace() for _ in range(n)]
            assert many.pace_block(n) == want
            assert self._state(many) == self._state(one)
            one.network.advance(idle)
            many.network.advance(idle)

    def test_a_sampler_still_cuts_its_buckets_one_send_at_a_time(self):
        from repro.telemetry.timeseries import SeriesSampler

        def paced(block):
            network = Network()
            pacer = VirtualPacer(network, 1000.0, metrics=MetricsRegistry())
            sampler = SeriesSampler(pacer.metrics, 0.004)
            sampler.start(network.clock)
            pacer.sampler = sampler
            sends = (pacer.pace_block(40) if block
                     else [pacer.pace() for _ in range(40)])
            sampler.finish(network.clock)
            return sends, sampler.to_dict(), network.clock

        assert paced(True) == paced(False)
        assert paced(True)[1]["series"]
