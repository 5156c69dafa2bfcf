"""Process abstraction for the :mod:`repro.simkit` kernel.

A *process* wraps a Python generator.  The generator yields events; the
process suspends until the yielded event fires and is resumed with the
event's value (or the event's exception thrown into it).  A
:class:`Detached` generator is driven by the same loop without being an
event itself.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import Event, PENDING, URGENT
from .exceptions import Interrupt, StopProcess

__all__ = ["Process", "Detached", "ProcessGenerator"]

ProcessGenerator = Generator[Event, Any, Any]


class _Initialize(Event):
    """Immediate event that starts the execution of a process.

    Built field-by-field by :class:`Process` (the kernel's per-process
    fast path, mirroring ``Environment.timeout``), so it defines no
    constructor of its own.
    """

    __slots__ = ()


class _Interruption(Event):
    """Immediate event that throws an :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process._value is not PENDING:
            raise RuntimeError(f"{process!r} has terminated and cannot be interrupted")
        if process is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.env.schedule(self, priority=URGENT)
        self.callbacks.append(self._interrupt)

    def _interrupt(self, event: Event) -> None:
        if self.process._value is not PENDING:
            # The process terminated between scheduling and delivery.
            return
        # Unsubscribe the process from the event it currently waits on; it
        # will re-subscribe if it yields that event again.
        target = self.process._target
        if target is not None and target.callbacks is not None:
            if self.process._resume in target.callbacks:
                target.callbacks.remove(self.process._resume)
        self.process._resume(self)


class _Resumable:
    """The resume loop of :class:`Process` and :class:`Detached`.

    Hosts supply ``_send`` (the generator's bound ``send``), ``_resume``
    (this method, bound; appended to a callback list per suspension, so
    a process stores one rather than allocate one per event), ``_active``
    (what ``env.active_process`` reports) and ``_exit(ok, value)``.
    """

    __slots__ = ()

    @property
    def target(self) -> Optional[Event]:
        """The event the generator currently waits for, if suspended."""
        return self._target

    def _do_resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_proc = self._active
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    # The waited-on event failed: throw its exception into the
                    # generator.  Mark it defused: the waiter took delivery.
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, BaseException):
                        next_event = self._generator.throw(exc)
                    else:  # pragma: no cover - defensive
                        next_event = self._generator.throw(RuntimeError(exc))
            except (StopIteration, StopProcess) as stop:
                self._exit(True, stop.value)
                break
            except BaseException as exc:
                self._exit(False, exc)
                break

            try:
                # One attribute load doubles as the is-it-an-Event check:
                # only events carry ``callbacks``.
                callbacks = next_event.callbacks
            except AttributeError:
                gen = self._generator
                gen.close()
                self._exit(False, RuntimeError(
                    f"{gen!r} yielded {next_event!r}, expected an Event"))
                break

            if callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                callbacks.append(self._resume)
                self._target = next_event
                break

            # Event already processed: continue immediately with its value.
            event = next_event

        env._active_proc = None


class Process(Event, _Resumable):
    """An event-yielding coroutine executing on an environment.

    The process itself is an event that triggers when the generator returns
    (successfully, with the generator's return value) or raises (failed with
    that exception).
    """

    __slots__ = ("_generator", "_target", "name", "_resume", "_send",
                 "_active")

    def __init__(self, env, generator: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._active = self
        resume = self._resume = self._do_resume
        self._send = generator.send
        init = _Initialize.__new__(_Initialize)
        init.env = env
        init.callbacks = [resume]
        init._value = None
        init._ok = True
        init._defused = False
        env.schedule(init, URGENT)
        self._target: Optional[Event] = init
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True until the generator has terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        _Interruption(self, cause)

    def _exit(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        if not ok:
            self._defused = False
        self.env.schedule(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else "dead"
        return f"<Process({self.name}) object at {id(self):#x} [{state}]>"


#: What a :class:`Detached` generator's first ``send`` is resumed with.
_START = _Initialize.__new__(_Initialize)
_START._ok, _START._value = True, None


class Detached(_Resumable):
    """A generator driven by the events it yields that is no event itself.

    For fire-and-forget work at volume.  Nothing can wait on it or
    interrupt it and ``env.active_process`` is ``None`` while it runs; it
    costs no kernel event of its own: the first ``send`` happens in the
    constructor and ``on_exit(ok, value)`` is called on the spot when the
    generator returns (``value``) or raises (``ok=False``, the
    exception).  What ``on_exit`` raises propagates out of ``env.run``.
    """

    __slots__ = ("env", "_generator", "_target", "_send", "_exit")

    _active = None
    #: Bound per suspension: holding it would be a cycle for the gc to free.
    _resume = _Resumable._do_resume

    def __init__(self, env, generator: ProcessGenerator, on_exit) -> None:
        self.env = env
        self._generator = generator
        self._send = generator.send
        self._exit = on_exit
        active = env._active_proc  # when started from inside a process
        self._do_resume(_START)
        env._active_proc = active
