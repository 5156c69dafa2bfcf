"""Simulation environment (event loop and clock) for :mod:`repro.simkit`."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Iterable, List, Optional, Tuple

from .events import AllOf, AnyOf, Event, NORMAL, Timeout
from .exceptions import EmptySchedule
from .process import Process, ProcessGenerator

__all__ = ["Environment"]


class Environment:
    """A discrete-event simulation environment.

    The environment owns the simulation clock (:attr:`now`) and the event
    queue.  Events scheduled at the same time are processed in (priority,
    insertion-order); this makes runs fully deterministic given the same
    sequence of scheduling operations.

    The queue is one binary heap of ``(time, priority, seq, event)``
    tuples.  Nine in ten events of this repository's workloads are alone
    at their instant and fewer than forty instants are ever pending, so
    per-instant buckets have nothing to save (the measurements are under
    "Why one event queue" in ``docs/performance.md``).

    Example::

        env = Environment()

        def worker(env):
            yield env.timeout(3)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 3 and proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0,
                 scheduler: str = "heap") -> None:
        # Selects nothing: benchmarks/suite still passes both old names.
        if scheduler not in ("heap", "calendar"):
            raise ValueError(f"unknown scheduler {scheduler!r}; "
                             "choose from heap, calendar")
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: Optional hook ``f(time, event)`` invoked as each event is
        #: processed — tracing/debugging only, must not mutate the schedule.
        self.tracer = None
        self.events_processed = 0

    # -- clock & scheduling --------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue ``event`` to be processed after ``delay`` time units.

        ``delay`` must not be negative: an event scheduled before ``now``
        would make the clock run backwards for its callbacks.  The check
        matters most after ``run(until=t)`` — the clock is advanced exactly
        to ``t`` on return, so a caller that computed a delay from a stale
        absolute timestamp would otherwise silently corrupt event order.
        """
        if delay < 0:
            raise ValueError(
                f"cannot schedule {event!r} at t={self._now + delay:g}, "
                f"which is {-delay:g} time units before now "
                f"({self._now:g}); events must not be scheduled in the "
                f"past (typical cause: a delay computed from an absolute "
                f"timestamp that went stale when run(until=...) advanced "
                f"the clock)")
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` if no events remain.  Re-raises the
        exception of a failed event that nobody defused (i.e. no process or
        condition took delivery of the failure).
        """
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        self.events_processed += 1
        if self.tracer is not None:
            self.tracer(self._now, event)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(exc)  # pragma: no cover - defensive

    @staticmethod
    def _reraise(event: Event) -> None:
        """Surface an undefused failure (cold path of the inlined loops)."""
        exc = event._value
        if isinstance(exc, BaseException):
            raise exc
        raise RuntimeError(exc)  # pragma: no cover - defensive

    def run(self, until: Any = None) -> Any:
        """Run until the queue empties, time ``until`` passes, or an event fires.

        * ``until is None`` — run until no events remain.
        * ``until`` is a number — run until the clock reaches it (the clock is
          set exactly to ``until`` on return).
        * ``until`` is an :class:`Event` — run until it is processed and
          return its value (re-raising its exception on failure).

        The loops below inline :meth:`step`: one method call, one
        try/except, and one counter store per event are measurable at
        millions of events per run.  Event semantics are identical to
        calling :meth:`step` in a loop (``tests/simkit`` and the pinned
        golden trace digest hold either way); a tracer, when installed,
        is invoked inline on the same shared loop — traced runs pay one
        extra call per event, never a fallback to per-event ``step``.
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0

        if until is None:
            try:
                while queue:
                    self._now, _, _, event = pop(queue)
                    processed += 1
                    if self.tracer is not None:
                        self.tracer(self._now, event)
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        self._reraise(event)
            finally:
                self.events_processed += processed
            return None

        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed.
                if until._ok:
                    return until._value
                raise until._value
            stop: List[Event] = []
            until.callbacks.append(stop.append)
            try:
                while not stop:
                    if not queue:
                        raise RuntimeError(
                            f"no scheduled events left but {until!r} was "
                            f"not triggered")
                    self._now, _, _, event = pop(queue)
                    processed += 1
                    if self.tracer is not None:
                        self.tracer(self._now, event)
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        self._reraise(event)
            finally:
                self.events_processed += processed
            if until._ok:
                return until._value
            # The stop callback took delivery of the failure.
            until._defused = True
            raise until._value

        # Numeric horizon.
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until ({horizon}) must not be before now ({self._now})")
        try:
            while queue and queue[0][0] <= horizon:
                self._now, _, _, event = pop(queue)
                processed += 1
                if self.tracer is not None:
                    self.tracer(self._now, event)
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    self._reraise(event)
        finally:
            self.events_processed += processed
        self._now = horizon
        return None

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now.

        Fast path for the kernel's dominant allocation: the object is
        built field-by-field and pushed on the heap directly, skipping
        the ``Timeout.__init__`` -> ``Event.__init__`` -> ``schedule``
        call chain (three Python frames per storage round-trip leg).
        Behaviour is identical to ``Timeout(self, delay, value)``.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        heapq.heappush(
            self._queue, (self._now + delay, NORMAL, next(self._eid), event)
        )
        return event

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing once any of ``events`` has fired."""
        return AnyOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Environment now={self._now} queued={len(self._queue)}>"
