"""Scanner adaptation under hostile substrates: AIMD rate control and
per-target retransmission.

ZMap and XMap both adapt to the network pushing back: when ICMP rate
limiting or congestion collapses the reply rate, the scanner slows down
(multiplicative decrease) and creeps back toward its configured budget
once replies recover (additive increase) — the classic AIMD loop.  The
:class:`AdaptiveRateController` reproduces that against the virtual clock:
it watches the validated-reply rate over fixed windows of targets, keeps
an EMA baseline of "healthy" response, and drives the
:class:`~repro.core.ratelimit.VirtualPacer` rate accordingly.

:class:`RetransmitPolicy` is the per-target half: a target that produced
zero validated replies gets up to N retries, each preceded by a jittered
exponential backoff on the *virtual* clock (so device-side error limiters
see realistic spacing).  It composes with ``probes_per_target`` — copies
are the proactive defence, retransmits the reactive one.

Both knobs are **off by default** and add zero work to the scan hot loop
when disabled (guarded by ``is not None`` checks); the equivalence tests
assert bit-identical results, stats, and metrics against the undecorated
scanner.  Rate decisions fire per *window*: the scan loop ends a chunk
where the controller's window fills (:meth:`window_left`), so the new
rate paces exactly the targets after it.  Retransmits are per *target*:
while they are on the loop cuts its chunks at one target, so it sees a
target's replies before pacing the next.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ratelimit import VirtualPacer
    from repro.core.scanner import ScanConfig


class AdaptiveRateController:
    """AIMD probe-rate control on observed reply-rate collapse."""

    #: EMA smoothing for the healthy-reply-rate baseline.
    EMA_ALPHA = 0.2
    #: Floor the adaptive rate never decreases below (pps).
    MIN_PPS = 100.0
    #: Multiplicative-decrease factor applied on reply-rate collapse.
    DECREASE = 0.5
    #: Additive increase per healthy window, as a fraction of ``rate_pps``.
    INCREASE = 0.05
    #: A window counts as collapsed when its reply rate falls below this
    #: fraction of the EMA baseline.
    COLLAPSE = 0.5

    def __init__(self, pacer: "VirtualPacer", config: "ScanConfig",
                 metrics) -> None:
        self.pacer = pacer
        self.base_rate = config.rate_pps
        self.window = max(1, config.adaptive_window)
        self.min_rate = max(1.0, min(self.MIN_PPS, config.rate_pps))
        self.rate = config.rate_pps
        self._window_sent = 0
        self._window_validated = 0
        #: EMA of the per-window validated-reply rate; None until the first
        #: full window establishes the baseline.
        self.baseline = None
        self._c_down = metrics.counter("scanner_rate_adjustments",
                                       direction="down")
        self._c_up = metrics.counter("scanner_rate_adjustments",
                                     direction="up")
        self._g_rate = metrics.gauge("scanner_rate_pps")
        # A reused pacer may carry a previous run's adjusted rate.
        pacer.set_rate(self.rate)
        self._g_rate.set(self.rate)

    def window_left(self) -> int:
        """Probes still to send before this window's decision."""
        return self.window - self._window_sent

    def record(self, sent: int, validated: int) -> None:
        """Account a run of targets' outcomes; adjusts at window ends.  A
        run ends no later than the target that fills the window."""
        self._window_sent += sent
        self._window_validated += validated
        if self._window_sent < self.window:
            return
        observed = self._window_validated / self._window_sent
        self._window_sent = 0
        self._window_validated = 0
        if self.baseline is None:
            self.baseline = observed
            return
        if self.baseline > 0 and observed < self.COLLAPSE * self.baseline:
            # Reply rate collapsed vs the healthy baseline: back off hard.
            new_rate = max(self.min_rate, self.rate * self.DECREASE)
            if new_rate != self.rate:
                self.rate = new_rate
                self.pacer.set_rate(new_rate)
                self._c_down.inc()
                self._g_rate.set(new_rate)
            return
        # Healthy window: fold into the baseline, creep back toward budget.
        self.baseline += self.EMA_ALPHA * (observed - self.baseline)
        new_rate = min(self.base_rate,
                       self.rate + self.INCREASE * self.base_rate)
        if new_rate != self.rate:
            self.rate = new_rate
            self.pacer.set_rate(new_rate)
            self._c_up.inc()
            self._g_rate.set(new_rate)


class RetransmitPolicy:
    """Capped per-target retries with jittered exponential virtual backoff.

    The jitter RNG is seeded from the scan seed (never shared with the
    topology or fault RNGs), and is consumed once per retransmit in target
    order, so retransmission is as deterministic as the scan.
    """

    #: Jitter fraction applied to each backoff.
    JITTER = 0.5

    def __init__(self, config: "ScanConfig", metrics) -> None:
        self.limit = config.retransmit
        self.base = config.retransmit_backoff
        self.rng = random.Random((config.seed << 8) ^ 0x5EED)
        from repro.telemetry.metrics import WAIT_BUCKETS

        self._c_retransmits = metrics.counter("scanner_retransmits")
        self._c_recovered = metrics.counter("scanner_retransmit_recoveries")
        self._h_backoff = metrics.histogram(
            "retransmit_backoff_virtual_seconds", bounds=WAIT_BUCKETS
        )

    def backoff(self, attempt: int) -> float:
        """Virtual seconds to wait before retry ``attempt`` (0-based)."""
        return self.base * (2.0 ** attempt) * (
            1.0 + self.JITTER * self.rng.random()
        )

    def on_retransmit(self, delay: float) -> None:
        self._c_retransmits.inc()
        self._h_backoff.observe(delay)

    def on_recovery(self) -> None:
        """A retransmit elicited a validated reply the original missed."""
        self._c_recovered.inc()
