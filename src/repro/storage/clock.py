"""Clock abstraction shared by the data plane, emulator and simulator.

The storage state machines are time-dependent (message visibility timeouts,
TTL expiry, entity timestamps) but must not care whether time is simulated
(:class:`SimClock`), real (:class:`WallClock`), script-controlled
(:class:`ManualClock`) or an asyncio event loop's (:class:`LoopClock`).
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "WallClock", "ManualClock", "SimClock", "LoopClock"]


@runtime_checkable
class Clock(Protocol):
    """Anything with a ``now()`` returning seconds as a float."""

    def now(self) -> float:  # pragma: no cover - protocol
        ...


class WallClock:
    """Real time (monotonic)."""

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin


class ManualClock:
    """A clock advanced explicitly by tests."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("cannot move a ManualClock backwards")
        self._now += dt
        return self._now

    def set(self, t: float) -> float:
        if t < self._now:
            raise ValueError("cannot move a ManualClock backwards")
        self._now = float(t)
        return self._now


class SimClock:
    """Adapter exposing a :class:`repro.simkit.Environment` as a Clock."""

    def __init__(self, env) -> None:
        self._env = env

    def now(self) -> float:
        # The field behind ``Environment.now``: the data plane asks the
        # clock about twice per simulated round trip.
        return self._env._now


class LoopClock:
    """The ``time()`` of the asyncio event loop :meth:`bind` names: the
    service tier's one time base (``time.monotonic()`` on a real loop)."""

    _loop = None

    def now(self) -> float:
        return self._loop.time()

    def bind(self, loop) -> None:
        self._loop = loop
