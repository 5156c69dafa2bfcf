"""Deadline propagation: a retry loop must not outlive its caller's patience.

A :class:`Deadline` is an absolute point in simulated time after which no
further attempt or back-off sleep may start.  Passing the *same* deadline
object down through nested operations propagates the caller's overall
budget (each callee consumes from it) instead of resetting the clock at
every layer — the standard fix for "retry storms of retries".

:func:`repro.sim.retrying` accepts either a :class:`Deadline` or a plain
``float`` (seconds from the first attempt, converted internally).
"""

from __future__ import annotations

__all__ = ["Deadline"]


class Deadline:
    """An absolute give-up time in simulated seconds."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, now: float, seconds: float) -> "Deadline":
        """Deadline ``seconds`` from ``now`` (e.g. ``Deadline.after(env.now, 30)``)."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        return cls(now + seconds)

    def remaining(self, now: float) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def allows_sleep(self, now: float, delay: float) -> bool:
        """Would sleeping ``delay`` seconds still leave time to retry?"""
        return now + delay < self.expires_at
