"""Probe pacing.

The paper's measurements cap the scanner at 25 kpps (<15 Mbps) to be a good
Internet citizen; the engine enforces that with a token bucket over the
simulator's *virtual* clock — every send advances time just enough to respect
the configured rate, so device-side ICMPv6 error limiters observe realistic
inter-arrival times without the reproduction actually sleeping.
"""

from __future__ import annotations

from typing import List


class TokenBucket:
    """A classic token bucket usable against any monotonic clock."""

    def __init__(self, rate_pps: float, burst: float = 1.0) -> None:
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_pps
        self.burst = max(1.0, burst)
        self._tokens = self.burst
        self._last = 0.0

    def next_send_time(self, now: float) -> float:
        """Earliest time at which the next packet may be sent."""
        tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        if tokens >= 1.0:
            return now
        return now + (1.0 - tokens) / self.rate

    def consume(self, now: float) -> float:
        """Record a send, waiting (virtually) if needed; returns send time.

        This is :meth:`next_send_time` fused with the bookkeeping so the
        scan hot loop pays one refill computation per send, not two.
        """
        tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        if tokens >= 1.0:  # common case: no stall
            self._tokens = tokens - 1.0
            self._last = now
            return now
        send_at = now + (1.0 - tokens) / self.rate
        self._tokens = min(
            self.burst, self._tokens + (send_at - self._last) * self.rate
        ) - 1.0
        self._last = send_at
        return send_at

    def set_rate(self, rate_pps: float) -> None:
        """Retarget the refill rate (adaptive rate control).

        Takes effect from the bucket's last accounting point; accumulated
        tokens are kept.
        """
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_pps


class VirtualPacer:
    """Advances a :class:`repro.net.network.Network` clock at a target pps.

    With a :class:`~repro.telemetry.metrics.MetricsRegistry` attached, the
    pacer counts **stalls** (sends the token bucket had to delay) and
    histograms the virtual wait — the "where does time go" half of the
    scanner's telemetry: at a saturating probe rate every send stalls by
    ~1/rate, while stall-free stretches mean the scan loop, not the rate
    cap, is the bottleneck.
    """

    def __init__(self, network, rate_pps: float, burst: float = 1.0,
                 metrics=None) -> None:
        self.network = network
        self.bucket = TokenBucket(rate_pps, burst)
        if metrics is None:
            from repro.telemetry.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self.metrics = metrics
        from repro.telemetry.metrics import WAIT_BUCKETS

        self._stalls = metrics.counter("pacer_stalls")
        self._waits = metrics.histogram("pacer_wait_virtual_seconds",
                                        bounds=WAIT_BUCKETS)
        #: Optional :class:`~repro.telemetry.timeseries.SeriesSampler`.
        #: The pacer is the one place that knows each probe's send time
        #: before any of that probe's counters move, which is exactly
        #: where a series bucket must be cut (see timeseries.py).
        self.sampler = None

    def pace(self) -> float:
        """Account for one probe send; returns the virtual send timestamp."""
        now = self.network.clock
        send_at = self.bucket.consume(now)
        sampler = self.sampler
        if sampler is not None and send_at >= sampler.boundary:
            sampler.tick(send_at)
        if send_at > now:
            self.network.clock = send_at
            self._stalls.inc()
            self._waits.observe(send_at - now)
        return send_at

    def pace_block(self, n: int) -> List[float]:
        """``n`` x :meth:`pace` in one loop; returns the send timestamps.

        The same float operations in the same order as :meth:`pace` over
        :meth:`TokenBucket.consume`, so clocks, bucket state, the stall
        counter and the wait histogram come out bit-identical — the waits
        go to the histogram once per block, the stalls as one increment.
        An attached sampler cuts its buckets in :meth:`pace`, one send at a
        time.
        """
        if self.sampler is not None:
            return [self.pace() for _ in range(n)]
        bucket = self.bucket
        rate, burst = bucket.rate, bucket.burst
        tokens, last = bucket._tokens, bucket._last
        now = self.network.clock
        waits: List[float] = []
        wait = waits.append
        sends = []
        for _ in range(n):
            refilled = tokens + (now - last) * rate
            if refilled > burst:
                refilled = burst
            if refilled >= 1.0:  # common case: no stall
                tokens, last = refilled - 1.0, now
            else:
                send_at = now + (1.0 - refilled) / rate
                tokens = tokens + (send_at - last) * rate
                tokens = (burst if tokens > burst else tokens) - 1.0
                last = send_at
                if send_at > now:
                    wait(send_at - now)
                    now = send_at
            sends.append(now)
        bucket._tokens, bucket._last = tokens, last
        self.network.clock = now
        if waits:
            self._stalls.inc(len(waits))
            self._waits.observe_many(waits)
        return sends

    def set_rate(self, rate_pps: float) -> None:
        """Retarget the pacing rate mid-scan (AIMD adaptive control)."""
        self.bucket.set_rate(rate_pps)

    @property
    def rate(self) -> float:
        return self.bucket.rate
