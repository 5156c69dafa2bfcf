"""Simulated storage clients: data-plane semantics + fabric timing.

These clients expose the same operations the 2012 Azure SDK offered (the
bold API names in the paper's Algorithms 1-5), implemented as **simkit
process generators**: call them with ``yield from`` inside a process. ::

    def worker(env, account):
        queue = account.queue_client()
        yield from queue.create_queue("tasks")
        yield from queue.put_message("tasks", b"hello")
        msg = yield from queue.get_message("tasks")
        yield from queue.delete_message("tasks", msg.message_id, msg.pop_receipt)

Each call charges the cluster's cost model (latency, server contention,
throttling) and applies the state change when the simulated round trip
completes.

The per-operation method bodies are *not* written here: every class below
is derived from the shared operation registry
(:mod:`repro.pipeline.registry`) via
:func:`repro.pipeline.clients.derive_client_class`, charging the
account's cluster.  The emulator derives its clients from the same table,
which is what keeps the two backends semantically identical.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import StorageCluster
from ..cluster.calibration import DEFAULT_CALIBRATION, FabricCalibration
from ..pipeline import OpCall, derive_client_class, sim_method
from ..simkit import Environment
from ..storage import (
    LIMITS_2012,
    ServiceLimits,
    SimClock,
    StorageAccountState,
)
from ..storage.cache import CacheServiceState

__all__ = [
    "SimStorageAccount",
    "SimBlobClient",
    "SimQueueClient",
    "SimTableClient",
    "SimCacheClient",
]


class SimStorageAccount:
    """A storage account bound to a simulated fabric.

    Owns the backend-agnostic :class:`StorageAccountState` (driven by the
    simulation clock) and the :class:`StorageCluster` performance model,
    whose ``execute`` charges every operation through the cluster's
    interceptor pipeline.
    """

    def __init__(self, env: Environment, name: str = "azurebench", *,
                 limits: ServiceLimits = LIMITS_2012,
                 calibration: FabricCalibration = DEFAULT_CALIBRATION,
                 seed: int = 0,
                 fifo_jitter_seed: Optional[int] = None) -> None:
        self.env = env
        self.state = StorageAccountState(
            name, SimClock(env), limits, fifo_jitter_seed=fifo_jitter_seed
        )
        self.cluster = StorageCluster(
            env, limits=limits, calibration=calibration, seed=seed
        )
        #: The co-located caching service (paper II.B; separate billing, so
        #: it lives beside — not inside — the storage account state).
        self.cache_state = CacheServiceState(self.state.clock)
        self._op_call = OpCall(
            self.state, self.cache_state,
            now_fn=self.state.clock.now,
            plan_fn=lambda: self.cluster.fault_plan,
        )

    @property
    def pipeline(self):
        """The cluster's interceptor stack (see :mod:`repro.pipeline`)."""
        return self.cluster.pipeline

    def blob_client(self) -> "SimBlobClient":
        return SimBlobClient(self)

    def queue_client(self) -> "SimQueueClient":
        return SimQueueClient(self)

    def table_client(self) -> "SimTableClient":
        return SimTableClient(self)

    def cache_client(self) -> "SimCacheClient":
        return SimCacheClient(self)


class _SimClientBase:
    """Plumbing every derived sim client shares."""

    def __init__(self, account: SimStorageAccount) -> None:
        self.account = account
        self.env = account.env
        self.cluster = account.cluster
        self.state = account.state
        self._call = account._op_call


SimBlobClient = derive_client_class(
    "SimBlobClient", "blob", _SimClientBase, method_factory=sim_method,
    doc="""Blob service client (paper Algorithm 1/5 API surface).

    Derived from the operation registry; every method is a simkit
    generator — call with ``yield from``.
    """,
)

SimQueueClient = derive_client_class(
    "SimQueueClient", "queue", _SimClientBase, method_factory=sim_method,
    doc="""Queue service client (paper Algorithms 2-4 API surface).

    Derived from the operation registry; every method is a simkit
    generator — call with ``yield from``.
    """,
)

SimTableClient = derive_client_class(
    "SimTableClient", "table", _SimClientBase, method_factory=sim_method,
    doc="""Table service client (paper section IV.C API surface).

    Derived from the operation registry; every method is a simkit
    generator — call with ``yield from``.
    """,
)

SimCacheClient = derive_client_class(
    "SimCacheClient", "cache", _SimClientBase, method_factory=sim_method,
    doc="""Caching service client (paper II.B; billed separately).

    Derived from the operation registry; every method is a simkit
    generator — call with ``yield from``.
    """,
)
