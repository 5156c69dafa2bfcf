"""Windows Azure Storage Analytics (August 2011), as instrumentation.

Storage Analytics shipped right before the paper's measurement window: the
service could log every request and aggregate hourly capacity/transaction
metrics.  This module reproduces that shape as an opt-in observer over the
simulated fabric — benchmark runs can be audited the way a 2012 operator
would have audited them, and the metrics tables give the repo's own
dashboards something faithful to read.

* :class:`RequestLog` — the per-request log (operation, target, payload
  size, end-to-end and server latency, HTTP-ish status).
* :class:`MetricsAggregator` — hourly rollups per service and operation:
  request counts, error counts, availability, average latencies, ingress
  and egress bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "RequestRecord",
    "RequestLog",
    "HourlyMetrics",
    "MetricsAggregator",
    "attach_analytics",
    "ResilienceSummary",
    "resilience_summary",
]


@dataclass(frozen=True)
class RequestRecord:
    """One logged storage request (one line of the 2011 $logs format)."""

    time: float
    service: str
    operation: str
    partition: str
    nbytes: int
    end_to_end_latency: float
    server_latency: float
    status_code: int
    error_code: str = ""
    #: Direction of the payload: writes are account ingress, reads egress.
    is_write: bool = False

    @property
    def ok(self) -> bool:
        return self.status_code < 400

    @property
    def throttled(self) -> bool:
        return self.status_code == 503


class RequestLog:
    """Append-only request log with simple query helpers."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._records: List[RequestRecord] = []
        self.capacity = capacity
        self.dropped = 0

    def append(self, record: RequestRecord) -> None:
        if self.capacity is not None and len(self._records) >= self.capacity:
            # Like the real service's retention limit: oldest entries go.
            self._records.pop(0)
            self.dropped += 1
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records(self, *, service: Optional[str] = None,
                operation: Optional[str] = None,
                since: float = float("-inf"),
                until: float = float("inf")) -> List[RequestRecord]:
        """Filtered view of the log."""
        out = []
        for r in self._records:
            if service is not None and r.service != service:
                continue
            if operation is not None and r.operation != operation:
                continue
            if not (since <= r.time < until):
                continue
            out.append(r)
        return out

    def error_rate(self, **filters) -> float:
        records = self.records(**filters)
        if not records:
            return 0.0
        return sum(1 for r in records if not r.ok) / len(records)


@dataclass
class HourlyMetrics:
    """One hour's rollup for one (service, operation) pair."""

    hour: int
    service: str
    operation: str
    total_requests: int = 0
    total_errors: int = 0
    total_throttles: int = 0
    total_bytes: int = 0
    #: Payload bytes split by direction (ingress = writes, egress = reads);
    #: ``total_ingress + total_egress == total_bytes`` always holds.
    total_ingress: int = 0
    total_egress: int = 0
    _latency_sum: float = 0.0
    _server_latency_sum: float = 0.0

    def observe(self, record: RequestRecord) -> None:
        self.total_requests += 1
        if not record.ok:
            self.total_errors += 1
        if record.throttled:
            self.total_throttles += 1
        self.total_bytes += record.nbytes
        if record.is_write:
            self.total_ingress += record.nbytes
        else:
            self.total_egress += record.nbytes
        self._latency_sum += record.end_to_end_latency
        self._server_latency_sum += record.server_latency

    @property
    def availability(self) -> float:
        if self.total_requests == 0:
            return 1.0
        return 1.0 - self.total_errors / self.total_requests

    @property
    def average_latency(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self._latency_sum / self.total_requests


class MetricsAggregator:
    """Hourly metrics rollups keyed by (hour, service, operation)."""

    def __init__(self, hour_seconds: float = 3600.0) -> None:
        if hour_seconds <= 0:
            raise ValueError("hour_seconds must be > 0")
        self.hour_seconds = hour_seconds
        self._cells: Dict[Tuple[int, str, str], HourlyMetrics] = {}

    def observe(self, record: RequestRecord) -> None:
        hour = int(record.time // self.hour_seconds)
        for op_key in (record.operation, "*"):
            key = (hour, record.service, op_key)
            cell = self._cells.get(key)
            if cell is None:
                cell = HourlyMetrics(hour, record.service, op_key)
                self._cells[key] = cell
            cell.observe(record)

    def cell(self, hour: int, service: str,
             operation: str = "*") -> Optional[HourlyMetrics]:
        return self._cells.get((hour, service, operation))

    def hours(self) -> List[int]:
        return sorted({h for h, _, _ in self._cells})

    def services(self) -> List[str]:
        """Service names that have observed any traffic."""
        return sorted({s for _, s, _ in self._cells})

    def service_totals(self, service: str) -> HourlyMetrics:
        """All-hours aggregate for one service."""
        total = HourlyMetrics(-1, service, "*")
        for (h, s, op), cell in self._cells.items():
            if s == service and op == "*":
                total.total_requests += cell.total_requests
                total.total_errors += cell.total_errors
                total.total_throttles += cell.total_throttles
                total.total_bytes += cell.total_bytes
                total.total_ingress += cell.total_ingress
                total.total_egress += cell.total_egress
                total._latency_sum += cell._latency_sum
                total._server_latency_sum += cell._server_latency_sum
        return total


def attach_analytics(target, *, log: Optional[RequestLog] = None,
                     metrics: Optional[MetricsAggregator] = None
                     ) -> Tuple[RequestLog, MetricsAggregator]:
    """Instrument a backend in place; returns ``(log, metrics)``.

    ``target`` is anything exposing an operation ``pipeline`` — a
    :class:`~repro.cluster.model.StorageCluster`, a
    :class:`~repro.sim.clients.SimStorageAccount`, or an
    :class:`~repro.emulator.clients.EmulatorAccount`.  An
    :class:`~repro.pipeline.interceptors.AnalyticsInterceptor` is inserted
    ahead of the fault stage, so every operation — successes, throttle
    rejections, injected faults, timeouts — is logged and aggregated,
    exactly as the August 2011 Storage Analytics release would have.
    """
    # Imported here, not at module level: repro.pipeline depends on this
    # module for the record types, and layering flows pipeline -> storage.
    from ..pipeline.interceptors import AnalyticsInterceptor

    log = log if log is not None else RequestLog()
    metrics = metrics if metrics is not None else MetricsAggregator()
    pipeline = getattr(target, "pipeline", None)
    if pipeline is None:
        raise TypeError(
            f"attach_analytics needs an object with an operation pipeline "
            f"(StorageCluster, SimStorageAccount, or EmulatorAccount); "
            f"got {target!r}")
    pipeline.add(AnalyticsInterceptor(log, metrics), before="faults")
    return log, metrics


@dataclass(frozen=True)
class ResilienceSummary:
    """Observed availability plus per-policy retry accounting for one run.

    Ties together the three instrumentation layers of a robustness
    experiment: Storage Analytics (what the service observed), the retry
    policy's :class:`~repro.resilience.RetryStats` (what the client paid),
    and the fault plan's occurrence counts (what was injected).
    """

    policy: str
    #: Client-side attempts (first tries + retries).
    attempts: int
    #: Back-off sleeps taken.
    retries: int
    #: Retryable failures surfaced to the application.
    giveups: int
    #: Total simulated seconds slept between attempts.
    total_backoff: float
    #: attempts / logical ops — the paper's 1.0 means "no retry storm".
    retry_amplification: float
    #: Observed availability per service, from the analytics rollups.
    availability: Dict[str, float]
    #: Injected fault occurrences per fault kind (empty without a plan).
    faults_injected: Dict[str, int]
    #: Circuit-breaker trips (0 without a breaker).
    breaker_trips: int = 0


def resilience_summary(metrics: MetricsAggregator, *, policy=None,
                       plan=None, breaker=None) -> ResilienceSummary:
    """Fold a run's resilience counters into one reportable record.

    ``policy`` is a :class:`repro.resilience.RetryPolicy` (or anything
    with a compatible ``stats``), ``plan`` a
    :class:`repro.faults.FaultPlan`, ``breaker`` a
    :class:`repro.resilience.CircuitBreaker`; each is optional.
    """
    stats = getattr(policy, "stats", None)
    availability = {
        service: metrics.service_totals(service).availability
        for service in metrics.services()
    }
    faults = {}
    if plan is not None:
        faults = {kind.value: n for kind, n in sorted(
            plan.counts.items(), key=lambda kv: kv[0].value)}
    return ResilienceSummary(
        policy=stats.policy if stats is not None else "none",
        attempts=stats.attempts if stats is not None else 0,
        retries=stats.retries if stats is not None else 0,
        giveups=stats.giveups if stats is not None else 0,
        total_backoff=stats.total_backoff if stats is not None else 0.0,
        retry_amplification=stats.amplification if stats is not None else 1.0,
        availability=availability,
        faults_injected=faults,
        breaker_trips=breaker.trips if breaker is not None else 0,
    )
