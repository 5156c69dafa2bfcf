"""A thread-safe, in-process Azure storage emulator (Azurite-equivalent).

Wraps the same data-plane state machines the simulator uses with a reentrant
lock and a real (or injectable) clock, so multi-threaded application code —
like the bag-of-tasks framework driven by ``threading`` workers — runs
against semantics identical to the simulation.

The client APIs mirror :mod:`repro.sim.clients` method-for-method, minus the
``yield from`` (these are plain blocking calls). ::

    account = EmulatorAccount()
    queue = account.queue_client()
    queue.create_queue("tasks")
    queue.put_message("tasks", b"hello")
    msg = queue.get_message("tasks")
    queue.delete_message("tasks", msg.message_id, msg.pop_receipt)

The method bodies are not written here: like the sim clients, every class
below is derived from the shared operation registry
(:mod:`repro.pipeline.registry`), and every call runs through
:meth:`EmulatorAccount.run`: the account's lock, its interceptor
pipeline on the account clock, then the state change.  Because every call
crosses the same interceptor pipeline, the emulator supports fault
injection (:meth:`EmulatorAccount.set_fault_plan`), Storage Analytics
(:func:`repro.storage.analytics.attach_analytics`), and — opt-in —
enforcement of the published scalability targets, with zero sim-only code.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..pipeline import (
    FaultInterceptor,
    OpCall,
    OpContext,
    Pipeline,
    ThrottleInterceptor,
    blocking_method,
    derive_client_class,
    locked_local_method,
)
from ..storage import (
    Clock,
    LIMITS_2012,
    ServiceLimits,
    StorageAccountState,
    WallClock,
)
from ..storage.cache import CacheServiceState

__all__ = [
    "EmulatorAccount",
    "EmulatorBlobClient",
    "EmulatorQueueClient",
    "EmulatorTableClient",
    "EmulatorCacheClient",
]


class EmulatorAccount:
    """One emulated storage account shared by any number of threads."""

    def __init__(self, name: str = "devstoreaccount1", *,
                 limits: ServiceLimits = LIMITS_2012,
                 clock: Optional[Clock] = None,
                 fifo_jitter_seed: Optional[int] = None,
                 enforce_targets: bool = False) -> None:
        self.state = StorageAccountState(
            name, clock if clock is not None else WallClock(), limits,
            fifo_jitter_seed=fifo_jitter_seed,
        )
        self._lock = threading.RLock()
        #: The co-located caching service (paper II.B).
        self.cache_state = CacheServiceState(self.state.clock)
        self.limits = limits
        #: Fault schedule consulted on every operation (None = no faults);
        #: windows are evaluated against this account's clock.
        self.fault_plan = None
        stages = [FaultInterceptor(lambda: self.fault_plan, cluster=None)]
        if enforce_targets:
            # Opt-in: the framework's retry loop sleeps on real wall-clock
            # seconds, so target enforcement is off unless asked for.
            stages.append(ThrottleInterceptor(limits))
        self.pipeline = Pipeline(stages)
        self._op_call = OpCall(
            self.state, self.cache_state,
            now_fn=self.state.clock.now,
            plan_fn=lambda: self.fault_plan,
        )

    def set_fault_plan(self, plan) -> None:
        """Install (or clear, with ``None``) a :class:`FaultPlan`.

        Fault windows fire on this account's clock — wall-clock seconds by
        default, or a :class:`~repro.storage.clock.ManualClock` in tests.
        """
        self.fault_plan = plan

    def run(self, spec, call, args, kwargs):
        """Run one op body: prepare, the pipeline, then apply, locked.

        An injected TIMEOUT dooms the request: it burns the budget on
        the account clock (a :class:`~repro.storage.ManualClock`
        advances, any other clock is slept on) and raises, and the
        change is never applied.
        """
        with self._lock:
            clock = self.state.clock
            body = spec.body(call, *args, **kwargs)
            desc = next(body)  # prepare: validation errors raise here
            ctx = OpContext(op=desc, backend="emulator",
                            started_at=clock.now(),
                            worker=threading.current_thread().name)
            pipeline = self.pipeline
            try:
                pipeline.run_before(ctx)
                timeout = ctx.timeout_spec
                if timeout is not None:
                    if hasattr(clock, "advance"):
                        clock.advance(timeout.timeout_after)
                    else:
                        time.sleep(timeout.timeout_after)
                    raise ctx.fault_plan.record_timeout(
                        timeout, desc, clock.now())
            except BaseException as exc:
                body.close()
                ctx.finished_at = clock.now()
                pipeline.run_failed(ctx, exc)
                raise
            ctx.finished_at = clock.now()
            pipeline.run_after(ctx)
            return spec.apply(body)

    def blob_client(self) -> "EmulatorBlobClient":
        return EmulatorBlobClient(self)

    def queue_client(self) -> "EmulatorQueueClient":
        return EmulatorQueueClient(self)

    def table_client(self) -> "EmulatorTableClient":
        return EmulatorTableClient(self)

    def cache_client(self) -> "EmulatorCacheClient":
        return EmulatorCacheClient(self)


class _EmulatorClientBase:
    """Plumbing every derived emulator client shares."""

    def __init__(self, account: EmulatorAccount) -> None:
        self.account = account
        self.state = account.state
        self._call = account._op_call


EmulatorBlobClient = derive_client_class(
    "EmulatorBlobClient", "blob", _EmulatorClientBase,
    method_factory=blocking_method, local_factory=locked_local_method,
    doc="Blocking blob client over the emulator (registry-derived).",
)

EmulatorQueueClient = derive_client_class(
    "EmulatorQueueClient", "queue", _EmulatorClientBase,
    method_factory=blocking_method, local_factory=locked_local_method,
    doc="Blocking queue client over the emulator (registry-derived).",
)

EmulatorTableClient = derive_client_class(
    "EmulatorTableClient", "table", _EmulatorClientBase,
    method_factory=blocking_method, local_factory=locked_local_method,
    doc="Blocking table client over the emulator (registry-derived).",
)

EmulatorCacheClient = derive_client_class(
    "EmulatorCacheClient", "cache", _EmulatorClientBase,
    method_factory=blocking_method, local_factory=locked_local_method,
    doc="Blocking cache client over the emulator (registry-derived).",
)
