"""Retry policies: how a client backs off after a retryable failure.

The paper's discipline (IV.C) is "sleep for a second before retrying the
same operation" — :class:`FixedBackoff` with no override, which honours
the server's Retry-After hint (1 s by default) and is the repo-wide
default so paper benchmarks are unchanged.  The richer policies let the
robustness benchmarks ask the questions the paper could not:

* :class:`ExponentialJitterBackoff` — capped exponential back-off with
  full jitter (the AWS architecture-blog recipe), seeded for
  reproducibility.
* :class:`RetryBudget` — a token bucket that bounds cluster-wide retry
  *amplification*: when the budget is exhausted the policy gives up
  instead of joining a retry storm.

Policies are consumed by :func:`repro.sim.retrying` and carry their own
:class:`RetryStats`, which :func:`repro.storage.analytics.resilience_summary`
folds into benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "RetryStats",
    "RetryPolicy",
    "FixedBackoff",
    "ExponentialJitterBackoff",
    "RetryBudget",
]


@dataclass
class RetryStats:
    """Counters one policy accumulates across every op it guards."""

    policy: str = "policy"
    #: Operation attempts (first tries + retries).
    attempts: int = 0
    #: Attempts that returned successfully.
    successes: int = 0
    #: Retryable failures that led to a back-off and another attempt.
    retries: int = 0
    #: Retryable failures re-raised (budget/deadline/max-retries giveups).
    giveups: int = 0
    #: Total simulated seconds spent sleeping between attempts.
    total_backoff: float = 0.0

    @property
    def logical_ops(self) -> int:
        """Distinct operations issued (attempts minus re-attempts)."""
        return self.attempts - self.retries

    @property
    def amplification(self) -> float:
        """Observed retry amplification: attempts per logical operation."""
        ops = self.logical_ops
        return self.attempts / ops if ops else 1.0


class RetryPolicy:
    """Base class: decides the delay before the next retry.

    :meth:`backoff` returns the back-off delay in (simulated) seconds, or
    ``None`` to give up (the caller re-raises the error).  ``attempt``
    counts retryable failures so far, starting at 1 for the failure that
    triggers the first retry.  Implementations must be deterministic
    given their constructor arguments (seed any randomness).
    """

    name = "policy"

    def __init__(self) -> None:
        self.stats = RetryStats(policy=self.name)

    def backoff(self, attempt: int, exc: BaseException, *,
                now: float = 0.0) -> Optional[float]:
        raise NotImplementedError


class FixedBackoff(RetryPolicy):
    """The paper's policy: sleep a fixed interval, retry forever.

    ``delay=None`` (the default) honours the error's ``retry_after`` hint
    — exactly the pre-policy behaviour of :func:`repro.sim.retrying`, so
    paper benchmarks are bit-identical under it.
    """

    name = "fixed"

    def __init__(self, delay: Optional[float] = None) -> None:
        super().__init__()
        if delay is not None and delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay

    def backoff(self, attempt: int, exc: BaseException, *,
                now: float = 0.0) -> Optional[float]:
        if self.delay is not None:
            return self.delay
        return getattr(exc, "retry_after", 1.0)


class ExponentialJitterBackoff(RetryPolicy):
    """Capped exponential back-off with full jitter.

    Delay before retry ``k`` is uniform on ``[0, min(cap, base *
    factor**(k-1))]``; the uniform draw comes from a seeded generator so
    runs are reproducible.
    """

    name = "expo-jitter"

    def __init__(self, *, base: float = 0.25, factor: float = 2.0,
                 cap: float = 30.0, seed: int = 0) -> None:
        super().__init__()
        if base <= 0 or factor < 1.0 or cap < base:
            raise ValueError("need base > 0, factor >= 1, cap >= base")
        self.base = base
        self.factor = factor
        self.cap = cap
        self.seed = seed
        import numpy as np

        self._rng = np.random.default_rng(seed)

    def backoff(self, attempt: int, exc: BaseException, *,
                now: float = 0.0) -> Optional[float]:
        ceiling = min(self.cap, self.base * self.factor ** (attempt - 1))
        return float(self._rng.uniform(0.0, ceiling))


class RetryBudget(RetryPolicy):
    """A token bucket bounding the global retry rate.

    Each retry spends one token; tokens refill at ``refill_rate`` per
    simulated second up to ``capacity``.  An empty bucket makes the
    policy give up (return ``None``) — under a fabric-wide throttle storm
    this is what stops N workers from amplifying the load N-fold, at the
    cost of surfacing the error to the application.

    ``inner`` supplies the delay when a token is available (default: the
    paper's :class:`FixedBackoff`).
    """

    name = "retry-budget"

    def __init__(self, *, capacity: float = 10.0, refill_rate: float = 0.5,
                 inner: Optional[RetryPolicy] = None) -> None:
        super().__init__()
        if capacity < 1 or refill_rate < 0:
            raise ValueError("need capacity >= 1 and refill_rate >= 0")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.inner = inner if inner is not None else FixedBackoff()
        self.tokens = self.capacity
        self._last_refill = 0.0
        #: Retries declined because the bucket was empty.
        self.exhaustions = 0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = now
        self.tokens = min(self.capacity, self.tokens + elapsed * self.refill_rate)

    def backoff(self, attempt: int, exc: BaseException, *,
                now: float = 0.0) -> Optional[float]:
        self._refill(now)
        if self.tokens < 1.0:
            self.exhaustions += 1
            return None
        self.tokens -= 1.0
        return self.inner.backoff(attempt, exc, now=now)
