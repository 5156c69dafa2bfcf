"""Rate throttles enforcing the published scalability targets in sim time.

Azure storage does not queue requests beyond a target — it *rejects* them
with ServerBusy and the client is expected to back off.  The paper's
benchmarks do exactly that ("the worker sleeps for a second before retrying
the same operation"), so the throttle here raises
:class:`~repro.storage.errors.ServerBusyError` rather than delaying.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..storage.errors import ServerBusyError

__all__ = ["SlidingWindowThrottle"]


class SlidingWindowThrottle:
    """Rejects operations once ``limit`` units pass within ``window`` seconds.

    Units are arbitrary (transactions, messages, entities or bytes).  The
    window slides in simulation time supplied by the caller, which keeps the
    throttle backend-agnostic and deterministic.
    """

    def __init__(self, limit: float, window: float = 1.0, *,
                 name: str = "", retry_after: float = 1.0) -> None:
        if limit <= 0:
            raise ValueError("limit must be > 0")
        if window <= 0:
            raise ValueError("window must be > 0")
        self.limit = float(limit)
        self.window = float(window)
        self.name = name
        self.retry_after = retry_after
        self._events: Deque[Tuple[float, float]] = deque()
        self._in_window = 0.0
        #: Total units admitted / rejected (diagnostics).
        self.admitted = 0.0
        self.rejected_ops = 0

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        events = self._events
        while events and events[0][0] <= horizon:
            _, units = events.popleft()
            self._in_window -= units

    def would_admit(self, now: float, units: float = 1.0) -> bool:
        """True if ``charge`` would currently succeed."""
        self._expire(now)
        return self._in_window + units <= self.limit

    def charge(self, now: float, units: float = 1.0) -> None:
        """Admit ``units`` at time ``now`` or raise :class:`ServerBusyError`."""
        events = self._events
        if events and events[0][0] <= now - self.window:
            self._expire(now)
        if self._in_window + units > self.limit:
            self.rejected_ops += 1
            raise ServerBusyError(
                f"throttled: {self.name or 'target'} exceeded "
                f"{self.limit:g}/{self.window:g}s",
                retry_after=self.retry_after,
            )
        events.append((now, units))
        self._in_window += units
        self.admitted += units

    @property
    def current_load(self) -> float:
        """Units currently counted inside the window (not expired lazily)."""
        return self._in_window

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SlidingWindowThrottle {self.name!r} "
                f"{self._in_window:g}/{self.limit:g} per {self.window:g}s>")
