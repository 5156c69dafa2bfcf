"""The per-operation context flowing through the interceptor stack.

One :class:`OpContext` is created per storage round trip, regardless of
backend.  Interceptors read the immutable
:class:`~repro.cluster.ops.OpDescriptor` and annotate the mutable fields:
fault interceptors set ``latency_factor``/``timeout_spec``, the executors
fill in the timing fields, and observers (Storage Analytics) read the
finished record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # annotation only
    from ..cluster.ops import OpDescriptor

__all__ = ["OpContext"]


class OpContext:
    """Mutable state of one storage operation crossing the pipeline.

    The descriptor says *what* is being done; everything else records what
    the pipeline decided about it and how the round trip went.  One is
    built per round trip, so it is a slotted class with a four-argument
    constructor; the ``extras`` dict is made on first use.
    """

    __slots__ = ("op", "backend", "worker", "started_at", "finished_at",
                 "server_latency", "latency_factor", "timeout_spec",
                 "fault_plan", "error", "_extras")

    def __init__(self, op: "OpDescriptor", backend: str = "sim",
                 worker: Optional[str] = None,
                 started_at: float = 0.0) -> None:
        #: What operation (service, kind, partition, bytes) is in flight.
        self.op = op
        #: Which executor is driving: ``"sim"``, ``"emulator"``, ``"service"``.
        self.backend = backend
        #: Worker role the op is attributed to (the active simkit process
        #: name on the DES fabric, the thread name on the emulator); None
        #: when the executor could not tell.  Read by the tracing stage.
        self.worker = worker
        #: Backend clock reading when the round trip began (sim time or
        #: wall seconds since the emulator account was created).
        self.started_at = started_at
        #: Clock reading when the round trip completed (or failed).
        self.finished_at = 0.0
        #: Un-jittered server occupancy — what Storage Analytics reports as
        #: server latency.  The emulator has no cost model, so it stays 0.
        self.server_latency = 0.0
        #: Multiplier injected by active LATENCY fault windows (1.0 = none).
        self.latency_factor = 1.0
        #: The TIMEOUT fault spec that fired for this op, if any.  The
        #: executor burns ``timeout_spec.timeout_after`` and raises.
        self.timeout_spec: Optional[Any] = None
        #: The fault plan that set ``timeout_spec`` (the executor asks it
        #: to record the fired timeout).
        self.fault_plan: Optional[Any] = None
        #: The error that terminated the round trip, if it failed.
        self.error: Optional[BaseException] = None
        self._extras: Optional[dict] = None

    @property
    def extras(self) -> dict:
        """Free-form scratch space for custom interceptors."""
        extras = self._extras
        if extras is None:
            extras = self._extras = {}
        return extras

    @property
    def elapsed(self) -> float:
        """Round-trip duration as observed by the backend clock."""
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<OpContext {self.op!r} backend={self.backend!r} "
                f"started_at={self.started_at!r}>")
