"""Event types for the :mod:`repro.simkit` discrete-event kernel.

The kernel follows the classic SimPy event model: an :class:`Event` is a
one-shot future scheduled on an :class:`~repro.simkit.environment.Environment`.
Processes (generators) yield events to suspend until the event fires.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
]


class _Pending:
    """Sentinel marking an event whose value has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Sentinel value of untriggered events.
PENDING = _Pending()

#: Scheduling priority for events that must run before ordinary events at the
#: same simulation time (e.g. process resumption after an interrupt).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it, scheduling its callbacks to run at the current simulation
    time.  Once the callbacks have run the event is *processed*.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env) -> None:
        self.env = env
        #: Callbacks ``f(event)`` invoked when the event is processed.  Set to
        #: ``None`` once processed; appending afterwards is an error.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state -------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or will be) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception instance if it failed)."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure has been handled by some waiter."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering --------------------------------------------------------
    def trigger(self, event: "Event") -> None:
        """Trigger with the state (ok/value) of another event.

        Used as a callback to chain events together.
        """
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        The exception is re-raised in every process waiting on the event; if
        nobody waits (and nobody defuses it) the environment re-raises it out
        of :meth:`Environment.step` to avoid silently swallowed errors.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} object at {id(self):#x} [{state}]>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("_delay",)

    def __init__(self, env, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout({self._delay}) object at {id(self):#x}>"


class ConditionValue:
    """Result of a :class:`Condition` — an ordered event → value mapping.

    Only contains events that actually triggered.  Behaves like a read-only
    dict keyed by the original event objects; :meth:`todict` produces a plain
    dictionary.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (e._value for e in self.events)

    def items(self):
        return ((e, e._value) for e in self.events)

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """An event that triggers when ``evaluate(events, n_done)`` is true.

    Fails as soon as any constituent event fails.  Nested conditions are
    flattened into the :class:`ConditionValue`.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env, evaluate: Callable[[List[Event], int], bool],
                 events: Iterable[Event]) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        if not self._events:
            # Trivially met (AllOf([]) succeeds, AnyOf([]) succeeds too by
            # the any_events predicate below).
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments cannot be mixed")

        # _build_value must run before any waiter's callback, so register it
        # first: it swaps the placeholder value for the populated
        # ConditionValue once the condition fires.
        self.callbacks.append(self._build_value)

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _build_value(self, event: Event) -> None:
        """Populate the condition value once all interesting events fired."""
        self._remove_check_callbacks()
        if event._ok:
            cond_value = ConditionValue()
            self._populate_value(cond_value)
            self._value = cond_value

    def _remove_check_callbacks(self) -> None:
        for event in self._events:
            if event.callbacks is not None and self._check in event.callbacks:
                event.callbacks.remove(self._check)
            if isinstance(event, Condition):
                event._remove_check_callbacks()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Propagate failure; mark the constituent as defused because this
            # condition takes responsibility for the exception.
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(None)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition that fires once *all* of ``events`` have fired."""

    def __init__(self, env, events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires once *any* of ``events`` has fired."""

    def __init__(self, env, events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
