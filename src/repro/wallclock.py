"""Sim-style generators on the wall clock: one env, one account, one driver.

Bodies are written once, in simkit style (``yield from client.op(...)``,
``yield env.timeout(...)``).  Off the DES they run on real threads:

* :class:`ThreadedEnv` is the slice of ``Environment`` a body uses —
  ``now`` in virtual seconds and ``timeout`` returning a sleep marker;
* :class:`ShimAccount` dresses an :class:`~repro.emulator.EmulatorAccount`
  in never-yielding generator clients (the wire clients of
  :mod:`repro.service.client` are the same kind of shim over sockets);
* :func:`exhaust` runs such a body to its return value on the calling
  thread, turning each marker into a scaled ``time.sleep``.

Everything that runs a body on a thread goes through :func:`exhaust`:
figure role bodies (:mod:`repro.backend`), the open-loop op bodies
(:mod:`repro.traffic.engine`), the dn-failover campaign and the threaded
task pool (:mod:`repro.framework.threaded`).  This module imports neither
``repro.backend`` nor ``repro.core``, so ``repro.framework`` can use it.
"""

from __future__ import annotations

import time
from typing import Callable

from .emulator import EmulatorAccount
from .emulator.clients import _EmulatorClientBase
from .pipeline import derive_client_class, locked_local_method, shim_method

__all__ = ["ThreadedEnv", "ShimAccount", "exhaust"]


class _Timeout:
    """Sleep marker yielded by :meth:`ThreadedEnv.timeout`."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds


class ThreadedEnv:
    """The slice of the simkit ``Environment`` surface role bodies use.

    ``now`` is the backend's wall clock (the ``now`` callable, in
    seconds) in *virtual* seconds, i.e. divided by ``time_scale``;
    ``timeout`` returns a marker :func:`exhaust` turns into a scaled
    ``time.sleep``.  One virtual second therefore costs ``time_scale``
    wall seconds everywhere.
    """

    def __init__(self, now: Callable[[], float], time_scale: float) -> None:
        self._now = now
        self.time_scale = time_scale

    @property
    def now(self) -> float:
        return self._now() / self.time_scale

    def timeout(self, delay: float = 0.0) -> _Timeout:
        return _Timeout(delay)


def exhaust(gen, time_scale: float = 1.0):
    """Run a sim-style generator to its return value on this thread.

    Over shim clients a client call never yields, so the only thing a
    body can yield is an ``env.timeout(...)`` marker, slept here for
    ``seconds * time_scale`` wall seconds.  Anything else (a DES event,
    a sim client's request) has no clock to fire it on a thread and is a
    ``TypeError`` naming the yielded value.
    """
    try:
        value = next(gen)
        while True:
            if not isinstance(value, _Timeout):
                raise TypeError(
                    f"cannot wait on {value!r} off the DES; a body run on "
                    f"a thread may only yield env.timeout(...) sleeps and "
                    f"shim-client calls")
            if value.seconds > 0:
                time.sleep(value.seconds * time_scale)
            value = gen.send(None)
    except StopIteration as stop:
        return stop.value


def _shim_class(kind: str):
    return derive_client_class(
        f"_Shim{kind.title()}Client", kind, _EmulatorClientBase,
        method_factory=shim_method, local_factory=locked_local_method,
        doc="Emulator client whose methods are never-yielding generators.")


class ShimAccount:
    """An emulator account dressed up as a :class:`SimStorageAccount`.

    Its clients are generator shims, so sim-style bodies (``yield from
    client.op(...)``) drive the thread-safe emulator unchanged.
    """

    _CLIENTS = {kind: _shim_class(kind)
                for kind in ("blob", "queue", "table", "cache")}

    def __init__(self, account: EmulatorAccount, env: ThreadedEnv) -> None:
        self.emulator = account
        self.env = env
        self.state = account.state
        self.cache_state = account.cache_state
        self.pipeline = account.pipeline

    def _make(self, kind: str):
        client = self._CLIENTS[kind](self.emulator)
        client.env = self.env  # QueueBarrier's fallback clock source
        return client

    def blob_client(self):
        return self._make("blob")

    def queue_client(self):
        return self._make("queue")

    def table_client(self):
        return self._make("table")

    def cache_client(self):
        return self._make("cache")
