"""Back-off-and-retry helper for throttled operations.

The paper (IV.C): "when we run into such exceptions, the worker sleeps for
a second before retrying the same operation."  That remains the default:
with no arguments beyond the op, :func:`retrying` sleeps each error's
``retry_after`` hint (1 s) and retries forever.

The policy layer (:mod:`repro.resilience`) generalizes it: pass a
``policy`` to change the back-off schedule (exponential jitter, retry
budgets), a ``deadline`` so a permanent outage cannot spin forever, and a
``breaker`` to fail fast while a dependency is down.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

from ..resilience import CircuitBreaker, Deadline, FixedBackoff, RetryPolicy
from ..simkit import Environment
from ..storage.errors import RETRYABLE_ERRORS

__all__ = ["retrying"]

# The paper's discipline, for calls that pass no policy: ``backoff`` keeps
# no state, and with no policy object there is nobody to read stats, so
# such calls share this instance and count nothing.
_PAPER_BACKOFF = FixedBackoff().backoff


def retrying(env: Environment, op_factory: Callable[[], Iterator], *,
             max_retries: Optional[int] = None,
             on_retry: Optional[Callable[[int, Exception], None]] = None,
             policy: Optional[RetryPolicy] = None,
             deadline: Optional[Union[float, Deadline]] = None,
             breaker: Optional[CircuitBreaker] = None):
    """Run a client-op generator, backing off and retrying on failure.

    ``op_factory`` must build a *fresh* generator per attempt (generators
    are single-use).  Usage::

        result = yield from retrying(env, lambda: table.insert(...))

    Retryable errors are :data:`repro.storage.errors.RETRYABLE_ERRORS`
    (ServerBusy 503s plus the transient 500s the fault engine injects).

    * ``max_retries=None`` retries forever (the paper's behaviour).
    * ``on_retry(attempt, exc)`` is invoked before each back-off sleep;
      ``attempt`` counts retryable failures so far, starting at 1.
    * ``policy`` supplies the back-off delay (default: the paper-faithful
      :class:`~repro.resilience.FixedBackoff`, honouring each error's
      ``retry_after`` hint).  A policy may give up (e.g. an exhausted
      :class:`~repro.resilience.RetryBudget`), re-raising the error.
    * ``deadline`` bounds cumulative time: a float is a budget in
      simulated seconds from the first attempt; a
      :class:`~repro.resilience.Deadline` is an absolute give-up time
      (pass the same object through nested calls to propagate it).  Once
      expired — or if the next sleep would outlive it — the error is
      re-raised instead of retried.
    * ``breaker`` short-circuits attempts while its circuit is open
      (raises :class:`~repro.resilience.CircuitOpenError`).
    """
    if policy is None:
        backoff, stats = _PAPER_BACKOFF, None
    else:
        backoff, stats = policy.backoff, policy.stats
    start = env.now
    if isinstance(deadline, (int, float)):
        deadline = Deadline(start + float(deadline))
    attempt = 0
    while True:
        if breaker is not None:
            breaker.before_attempt(env.now)
        if stats is not None:
            stats.attempts += 1
        try:
            result = yield from op_factory()
        except RETRYABLE_ERRORS as exc:
            if breaker is not None:
                breaker.record_failure(env.now)
            attempt += 1
            delay = None  # None: give up and re-raise
            if max_retries is None or attempt <= max_retries:
                # The policy may give up too (e.g. budget exhausted).
                delay = backoff(attempt, exc, now=env.now)
                if (delay is not None and deadline is not None
                        and not deadline.allows_sleep(env.now, delay)):
                    delay = None
            if delay is None:
                if stats is not None:
                    stats.giveups += 1
                raise
            if stats is not None:
                stats.retries += 1
                stats.total_backoff += delay
            if on_retry is not None:
                on_retry(attempt, exc)
            yield env.timeout(delay)
        else:
            if breaker is not None:
                breaker.record_success(env.now)
            if stats is not None:
                stats.successes += 1
            return result
