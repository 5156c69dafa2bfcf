"""Circuit breaker: fail fast instead of hammering a dead dependency.

A :class:`CircuitBreaker` sits in front of the retry loop.  While CLOSED
it only counts failures; after ``failure_threshold`` consecutive
retryable failures it OPENs and every attempt fails immediately with
:class:`CircuitOpenError` (no fabric round trip, no back-off sleep).
After ``reset_timeout`` simulated seconds it becomes HALF_OPEN: one
trial attempt is admitted — success re-CLOSEs the breaker, failure
re-OPENs it for another ``reset_timeout``.  The trial is a *single*
probe: while it is in flight every other caller is rejected, so a herd
of concurrent workers sharing one breaker cannot all stampede a
dependency that is still recovering.

During a partition failover this converts thousands of doomed requests
into instant local failures, which is exactly the retry-amplification
control Calder et al. describe the real fabric needing.
"""

from __future__ import annotations

import enum

__all__ = ["BreakerState", "CircuitBreaker", "CircuitOpenError"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitOpenError(Exception):
    """Raised without attempting the operation: the circuit is open."""

    def __init__(self, message: str = "circuit breaker is open", *,
                 retry_at: float = 0.0) -> None:
        super().__init__(message)
        #: Simulated time at which the breaker will admit a trial attempt.
        self.retry_at = retry_at


class CircuitBreaker:
    """Consecutive-failure circuit breaker over simulated time."""

    def __init__(self, *, failure_threshold: int = 5,
                 reset_timeout: float = 30.0) -> None:
        if failure_threshold < 1 or reset_timeout <= 0:
            raise ValueError("need failure_threshold >= 1 and reset_timeout > 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = float("-inf")
        #: Times the breaker tripped CLOSED/HALF_OPEN -> OPEN.
        self.trips = 0
        #: Attempts rejected while OPEN.
        self.rejections = 0
        #: The HALF_OPEN trial attempt currently in flight, if any.
        self._probe_in_flight = False

    # -- gate --------------------------------------------------------------
    def before_attempt(self, now: float) -> None:
        """Admit or reject one attempt; raises :class:`CircuitOpenError`."""
        if self.state is BreakerState.OPEN:
            retry_at = self.opened_at + self.reset_timeout
            if now < retry_at:
                self.rejections += 1
                raise CircuitOpenError(
                    f"circuit open until t={retry_at:g}", retry_at=retry_at)
            # Reset window elapsed: admit exactly one trial probe.
            self.state = BreakerState.HALF_OPEN
            self._probe_in_flight = True
        elif self.state is BreakerState.HALF_OPEN:
            if self._probe_in_flight:
                # Another caller's trial is still undecided.  Admitting
                # more would let a whole worker herd through the
                # half-open door at once — the outcome decides shortly,
                # so concurrent callers fail fast and retry.
                self.rejections += 1
                raise CircuitOpenError(
                    "circuit half-open: trial probe in flight",
                    retry_at=now)
            self._probe_in_flight = True

    # -- outcome reporting -------------------------------------------------
    def record_success(self, now: float) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._probe_in_flight = False

    def record_failure(self, now: float) -> None:
        self._probe_in_flight = False
        self.consecutive_failures += 1
        if (self.state is BreakerState.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            if self.state is not BreakerState.OPEN:
                self.trips += 1
            self.state = BreakerState.OPEN
            self.opened_at = now
