"""Campaign supervision: circuit breakers, retry budgets, graceful drain.

The stock campaign retry loop is all-or-nothing: any shard that exhausts
``max_retries`` raises :class:`~repro.engine.campaign.CampaignError` and
the whole run — including every healthy shard's results — is thrown away.
That is the right default for a reproduction (determinism suites must not
silently drop coverage), but it is the wrong posture for the paper's
operational reality: a 48-hour, twelve-ISP campaign that loses one shard
to a dying disk at hour 40 should land the other 95% of the measurement,
clearly labelled, not crash.

:class:`Supervisor` is that opt-in posture, enabled by passing a
:class:`SupervisorPolicy` (``supervisor=None`` is the default — a campaign
without a supervisor executes the byte-identical stock path):

* **per-shard circuit breakers** — every failure is classified into a
  *signature* (exception type, plus errno for OSErrors).  A shard that has
  failed ``breaker_distinct`` structurally different ways is not flaky,
  it is *broken*; the breaker opens and the shard is parked as degraded
  instead of burning the remaining retry waves on it.
* **global retry budget** — ``retry_budget`` caps total retries across
  all shards; when spent, further failures park immediately.  Bounds the
  worst-case tail of a campaign where everything is failing.
* **graceful partial commit** — parked shards are recorded on the result
  (and in the store snapshot's metadata) as ``degraded``; completed
  shards still merge and commit.
* **SIGTERM drain** — :meth:`Supervisor.drain_scope` installs a chaining
  handler (:func:`sigterm_drain_scope`, which the scan daemon drains its
  whole fleet through as well): the first SIGTERM flips
  :attr:`Supervisor.draining`, the campaign stops dispatching new work,
  seals what is in flight, checkpoints, commits, and exits cleanly with the
  drained shards reported as such.
"""

from __future__ import annotations

import contextlib
import errno
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, Iterator, List, Optional


def failure_signature(exc: BaseException) -> str:
    """Classify a failure: exception type, refined by errno for OSErrors.

    Two EIOs are one way of failing; an EIO and an ENOSPC are two.  The
    distinct-signature count is what trips a shard's breaker — a shard
    failing the *same* way repeatedly is retried (transient), a shard
    failing *differently* each time is parked (broken).
    """
    if isinstance(exc, OSError) and exc.errno is not None:
        name = errno.errorcode.get(exc.errno, str(exc.errno))
        return f"{type(exc).__name__}:{name}"
    return type(exc).__name__


@dataclass
class SupervisorPolicy:
    """Knobs for degraded-mode campaign supervision.  Passing a policy
    turns supervision on; no policy at all leaves the campaign's behaviour
    bit-identical to the stock retry loop."""

    #: Total retries allowed across *all* shards; None = unbounded (the
    #: per-shard ``max_retries`` still applies).
    retry_budget: Optional[int] = None
    #: Distinct failure signatures that open a shard's circuit breaker.
    breaker_distinct: int = 3


#: Reasons a shard can be parked (recorded on events and result).
BREAKER_OPEN = "breaker-open"
RETRIES_EXHAUSTED = "retries-exhausted"
BUDGET_EXHAUSTED = "retry-budget-exhausted"
DRAINED = "drained"


@dataclass
class ParkedShard:
    """One shard the supervisor took out of rotation, and why."""

    job_id: str
    reason: str
    signatures: List[str] = field(default_factory=list)
    attempts: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "reason": self.reason,
            "signatures": list(self.signatures),
            "attempts": self.attempts,
        }


class Supervisor:
    """Per-campaign supervision state; one instance per ``Campaign.run``."""

    def __init__(self, policy: SupervisorPolicy, events=None,
                 metrics=None) -> None:
        self.policy = policy
        self.events = events
        if metrics is None:
            from repro.telemetry.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self.metrics = metrics
        #: job_id -> distinct failure signatures seen (insertion order).
        self.breakers: Dict[str, List[str]] = {}
        #: Global retries granted so far (counts against ``retry_budget``).
        self.retries_spent = 0
        #: Shards parked out of rotation, in parking order.
        self.parked: List[ParkedShard] = []
        self._drain = threading.Event()

    # -- failure routing ---------------------------------------------------

    def note_failure(self, job_id: str, exc: BaseException,
                     attempt: int, max_retries: int) -> str:
        """Route one shard failure: returns ``"retry"`` or ``"park"``."""
        signature = failure_signature(exc)
        signatures = self.breakers.setdefault(job_id, [])
        if signature not in signatures:
            signatures.append(signature)
        if len(signatures) >= self.policy.breaker_distinct:
            return self._park(job_id, BREAKER_OPEN, signatures, attempt)
        if attempt > max_retries:
            return self._park(job_id, RETRIES_EXHAUSTED, signatures, attempt)
        if (
            self.policy.retry_budget is not None
            and self.retries_spent >= self.policy.retry_budget
        ):
            if self.events is not None:
                self.events.emit(
                    "retry_budget_exhausted",
                    budget=self.policy.retry_budget,
                    job_id=job_id,
                )
            return self._park(job_id, BUDGET_EXHAUSTED, signatures, attempt)
        self.retries_spent += 1
        return "retry"

    def park_drained(self, job_id: str, attempts: int = 0) -> None:
        """Park a shard the drain cut off before it could run (or finish)."""
        self._park(job_id, DRAINED, self.breakers.get(job_id, []), attempts)

    def _park(self, job_id: str, reason: str, signatures: List[str],
              attempts: int) -> str:
        self.parked.append(
            ParkedShard(
                job_id=job_id,
                reason=reason,
                signatures=list(signatures),
                attempts=attempts,
            )
        )
        self.metrics.counter("supervisor_shards_degraded",
                             reason=reason).inc()
        if self.events is not None:
            self.events.emit(
                "shard_degraded",
                job_id=job_id,
                reason=reason,
                signatures=list(signatures),
                attempts=attempts,
            )
        return "park"

    @property
    def degraded_ids(self) -> List[str]:
        return [shard.job_id for shard in self.parked]

    # -- graceful drain ----------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def request_drain(self) -> None:
        """Stop dispatching new shards; finish/seal what is in flight."""
        if not self._drain.is_set():
            self._drain.set()
            self.metrics.counter("supervisor_drains").inc()
            if self.events is not None:
                self.events.emit("campaign_drain_requested")

    def drain_scope(self) -> ContextManager[None]:
        """Catch the first SIGTERM as a drain request for this campaign."""
        return sigterm_drain_scope(self._drain.is_set, self.request_drain)


@contextlib.contextmanager
def sigterm_drain_scope(
    is_draining: Callable[[], bool], request_drain: Callable[[], None]
) -> Iterator[None]:
    """Catch the *first* SIGTERM as a drain request.

    Chains: a second SIGTERM falls through to whatever handler was
    installed before (the flight recorder's dump-and-die scope, or the
    default action), so an operator who really means it still wins.
    Main-thread only — elsewhere this is a no-op passthrough, matching
    :meth:`FlightRecorder.sigterm_scope`'s discipline.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def handler(signum, frame):
        if is_draining():
            # Second SIGTERM: restore and re-deliver to the prior
            # handler — drain was not fast enough for the operator.
            signal.signal(signal.SIGTERM, previous)
            if callable(previous):
                previous(signum, frame)
            else:  # pragma: no cover - SIG_DFL/SIG_IGN re-raise path
                signal.raise_signal(signal.SIGTERM)
            return
        request_drain()

    signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
