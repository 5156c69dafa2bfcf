"""The span: one storage round trip, fully attributed.

A :class:`Span` is the trace-level record of a single operation crossing
the pipeline — the unit the paper's per-phase numbers are made of, but
with everything the aggregates throw away: *which* worker issued it,
*which* partition server absorbed it, what the fault and throttle stages
decided, and how the round trip ended.

All times are backend-clock readings (simulated seconds on the DES
fabric, account-clock seconds on the emulator); tracing never reads the
wall clock on the sim backend, so enabling it cannot perturb timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["Span", "STATUS_OK", "STATUS_ERROR"]

STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class Span:
    """One completed (or rejected) storage round trip."""

    #: Identifier of the traced run this span belongs to.
    trace_id: str
    #: Monotonic per-buffer sequence number (completion order).
    span_id: int
    #: Worker role that issued the op ("azurebench#3"), or "" if unknown.
    worker: str
    #: Open benchmark phase at completion ("put_16384"), or None when the
    #: op ran outside any recorded phase (barrier traffic, setup).
    phase: Optional[str]
    #: Backend that drove the round trip: "sim" or "emulator".
    backend: str
    #: Service / operation / partition from the :class:`OpDescriptor`.
    service: str
    operation: str
    partition: str
    #: Partition server that absorbed the op ("queue/azurebenchqueue0"),
    #: or None when no placement model applies (emulator, rejected ops).
    server: Optional[str]
    #: Payload bytes moved and units charged against per-second targets.
    nbytes: int
    units: int
    #: Backend-clock readings bracketing the round trip.
    start: float
    end: float
    #: Un-jittered server occupancy (0 where no cost model ran).
    server_latency: float
    #: Latency multiplier injected by active fault windows (1.0 = none).
    latency_factor: float
    #: Failed attempts of this same (worker, op, partition) immediately
    #: preceding this one — the retry burn attributable to this span.
    retries: int
    #: "ok" or "error".
    status: str
    #: Error class name ("ServerBusyError") and protocol code, if failed.
    error: str = ""
    error_code: str = ""
    #: Fault verdict: comma-joined kinds of the injected faults that hit
    #: this round trip ("message_loss", "duplicate_delivery", "outage",
    #: ...), or "" when nothing was injected.  Lets a history checker
    #: distinguish injected anomalies from genuine bugs.
    fault: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_tuple(self) -> Tuple:
        """The ordered, digest-stable projection of this span.

        The fault verdict is appended only when set, so fault-free runs
        keep the digests pinned before the field existed (chaos off ==
        bit-identical golden traces).
        """
        base = (
            self.span_id, self.worker, self.phase, self.backend,
            self.service, self.operation, self.partition, self.server,
            self.nbytes, self.units, self.start, self.end,
            self.server_latency, self.latency_factor, self.retries,
            self.status, self.error, self.error_code,
        )
        return base + (self.fault,) if self.fault else base

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (one JSONL line of a trace export)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "worker": self.worker,
            "phase": self.phase,
            "backend": self.backend,
            "service": self.service,
            "operation": self.operation,
            "partition": self.partition,
            "server": self.server,
            "nbytes": self.nbytes,
            "units": self.units,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "server_latency": self.server_latency,
            "latency_factor": self.latency_factor,
            "retries": self.retries,
            "status": self.status,
            "error": self.error,
            "error_code": self.error_code,
            "fault": self.fault,
        }
