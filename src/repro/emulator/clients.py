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
(:mod:`repro.pipeline.registry`), bound to the account's
:class:`~repro.pipeline.executors.BlockingExecutor`.  Because every call
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
    BlockingExecutor,
    FaultInterceptor,
    OpCall,
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
                 latency: float = 0.0,
                 fifo_jitter_seed: Optional[int] = None,
                 enforce_targets: bool = False) -> None:
        self.state = StorageAccountState(
            name, clock if clock is not None else WallClock(), limits,
            fifo_jitter_seed=fifo_jitter_seed,
        )
        self._lock = threading.RLock()
        #: The co-located caching service (paper II.B).
        self.cache_state = CacheServiceState(self.state.clock)
        #: Artificial per-operation latency in seconds (0 disables); useful
        #: to make race conditions and contention observable in examples.
        self.latency = latency
        self.limits = limits
        #: Fault schedule consulted on every operation (None = no faults);
        #: windows are evaluated against this account's clock.
        self.fault_plan = None
        #: ServerBusy rejections served (injected faults + throttles).
        self.server_busy_count = 0
        stages = [
            FaultInterceptor(lambda: self.fault_plan, cluster=None,
                             on_busy=self._note_busy),
        ]
        if enforce_targets:
            # Opt-in: the framework's retry loop sleeps on real wall-clock
            # seconds, so target enforcement is off unless asked for.
            stages.append(ThrottleInterceptor(limits, on_busy=self._note_busy))
        self.pipeline = Pipeline(stages)
        self.executor = BlockingExecutor(self)
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

    def _note_busy(self) -> None:
        self.server_busy_count += 1

    def _maybe_sleep(self) -> None:
        if self.latency > 0:
            time.sleep(self.latency)

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
        self._executor = account.executor
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
