"""The thin executors driving operation bodies through the pipeline.

An executor owns the *how* of a round trip; the operation bodies in
:mod:`repro.pipeline.registry` own the *what*.

* On the DES there is no executor object: a derived sim client method
  (:func:`repro.pipeline.clients.sim_method`) ``yield from``s
  :meth:`repro.cluster.model.StorageCluster.execute`, which runs the
  interceptor chain and then the cost model (RTT + partition-server
  occupancy) in simulated time.
* :class:`BlockingExecutor` — the emulator path: serialize on the
  account's reentrant lock, run the same interceptor chain against the
  wall (or injectable) clock, then apply the data-plane change.  No cost
  model — the only time consumed is real time (optional artificial
  latency, and injected TIMEOUT faults, which burn their budget on the
  account clock).
* :class:`AsyncExecutor` — the service-tier path: one data-node event
  loop drives the same sequence without a lock (the loop itself
  serializes operations); injected TIMEOUT budgets burn as
  ``asyncio.sleep`` awaits so other requests keep flowing.

The prepare → interceptors → apply sequence itself lives in
:func:`drive_operation`, a generator shared by the blocking and async
executors: it yields the seconds of any injected timeout budget.  What
the two executors add is the wait alone — ``time.sleep`` or ``await
asyncio.sleep`` — around one burn rule (:func:`_burn_on_clock`) and one
settle step (:func:`_settle`).  Emulator threads and data-node event
loops therefore execute byte-for-byte the same state-machine code.
"""

from __future__ import annotations

import threading
import time

from .context import OpContext

__all__ = ["BlockingExecutor", "AsyncExecutor", "drive_operation"]


def drive_operation(spec, call, args, kwargs, *, pipeline, clock,
                    backend: str, worker=None):
    """The backend-agnostic core of one non-DES round trip.

    A generator: runs prepare, the interceptor ``before`` chain, then —
    if a TIMEOUT fault fired — **yields the seconds to burn** and, once
    resumed, raises the recorded timeout error.  Otherwise it runs the
    ``after`` chain and applies the state change, returning the op
    result via ``StopIteration``.  Exactly one caller-visible yield can
    occur, and only on the timeout path.

    Both :class:`BlockingExecutor` (emulator threads) and
    :class:`AsyncExecutor` (data-node event loops) drive this one
    function, so the storage state machines and the interceptor
    contract cannot drift between the two.
    """
    gen = spec.body(call, *args, **kwargs)
    desc = next(gen)  # prepare: validation errors raise here
    ctx = OpContext(op=desc, backend=backend,
                    started_at=clock.now(), worker=worker)
    try:
        pipeline.run_before(ctx)
        if ctx.timeout_spec is not None:
            # The request is doomed: it consumes the timeout budget
            # (the server never completes the work).
            yield ctx.timeout_spec.timeout_after
            raise ctx.fault_plan.record_timeout(
                ctx.timeout_spec, desc, clock.now())
    except BaseException as exc:
        gen.close()
        ctx.finished_at = clock.now()
        pipeline.run_failed(ctx, exc)
        raise
    ctx.finished_at = clock.now()
    pipeline.run_after(ctx)
    try:
        gen.send(None)  # apply at the completion instant
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise RuntimeError(
        f"operation body {spec.name!r} yielded more than once")


def _burn_on_clock(clock, seconds: float) -> bool:
    """Burn an injected timeout budget on a clock that can be advanced.

    A :class:`~repro.storage.clock.ManualClock` consumes the budget
    itself, so tests stay instant; ``False`` means the caller has to
    wait the seconds out for real.
    """
    if hasattr(clock, "advance"):
        clock.advance(seconds)
        return True
    return False


def _settle(drive, spec):
    """Resume a burned :func:`drive_operation` into its timeout raise."""
    try:
        drive.send(None)
    except StopIteration as stop:  # pragma: no cover - defensive
        return stop.value
    raise RuntimeError(  # pragma: no cover - drive always raises
        f"operation body {spec.name!r} survived its timeout")


class BlockingExecutor:
    """Emulator executor: lock, run interceptors on the clock, apply."""

    backend = "emulator"

    def __init__(self, account) -> None:
        self.account = account

    def run(self, spec, call, args, kwargs):
        """Drive one operation body: prepare, pipeline, apply, return."""
        account = self.account
        account._maybe_sleep()
        with account._lock:
            clock = account.state.clock
            drive = drive_operation(
                spec, call, args, kwargs,
                pipeline=account.pipeline, clock=clock,
                backend=self.backend,
                worker=threading.current_thread().name)
            try:
                seconds = next(drive)
            except StopIteration as stop:
                return stop.value
            if not _burn_on_clock(clock, seconds):
                time.sleep(seconds)
            return _settle(drive, spec)


class AsyncExecutor:
    """Data-node executor: the event loop serializes, awaits burn time.

    The owning node exposes ``state`` (a
    :class:`~repro.storage.account.StorageAccountState`) and ``pipeline``
    (its interceptor stack); operations run to completion between
    awaits, so — exactly like the DES and the emulator's lock — no two
    state-machine mutations interleave.  Only an injected TIMEOUT
    budget suspends mid-operation, *after* the failure verdict is
    already decided, so the interleaving cannot produce states the
    other backends could not.
    """

    backend = "service"

    def __init__(self, state, pipeline) -> None:
        self.state = state
        self.pipeline = pipeline

    async def run(self, spec, call, args, kwargs, *, worker=None):
        clock = self.state.clock
        drive = drive_operation(
            spec, call, args, kwargs,
            pipeline=self.pipeline, clock=clock,
            backend=self.backend, worker=worker)
        try:
            seconds = next(drive)
        except StopIteration as stop:
            return stop.value
        if not _burn_on_clock(clock, seconds):
            import asyncio  # the DES backends never load it
            await asyncio.sleep(seconds)
        return _settle(drive, spec)
