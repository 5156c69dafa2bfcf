"""The tracing stage of the operation pipeline.

:class:`Tracer` is an :class:`~repro.pipeline.interceptors.Interceptor`
that sits at the *front* of the stack (``trace -> auth -> analytics ->
faults -> throttles``), so its ``after``/``failed`` hooks see the verdict
of every stage behind it.  It emits one :class:`~.span.Span` per storage
round trip into a :class:`~.buffer.TraceBuffer` and feeds a
:class:`~.histogram.HistogramSet` of per-``service.operation`` latencies.

Determinism contract: the tracer only *reads* the context — the clock
fields the backend already filled (sim time on the DES backend, account
clock on the emulator), the descriptor, and the fault/throttle
annotations.  It never sleeps, never draws randomness, and never touches
the wall clock on the sim backend, so a traced run is bit-identical to an
untraced one.

Worker attribution comes from :attr:`OpContext.worker` (set by the
backends: the active simkit process name on the DES fabric, the thread
name on the emulator).  Benchmark-phase attribution comes from the
:func:`repro.core.metrics.set_phase_hook` callback, which the backends
point at :meth:`Tracer.on_phase` for the duration of a traced run.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from ..pipeline.interceptors import Interceptor
from .buffer import TraceBuffer
from .histogram import HistogramSet
from .span import STATUS_ERROR, STATUS_OK, Span

__all__ = [
    "Tracer",
    "sim_worker_resolver",
    "thread_worker_resolver",
]


def sim_worker_resolver(env) -> Callable[[], str]:
    """Current worker = the simkit process being resumed."""
    def resolve() -> str:
        proc = env.active_process
        return proc.name if proc is not None else ""
    return resolve


def thread_worker_resolver() -> Callable[[], str]:
    """Current worker = the current thread (emulator backend)."""
    def resolve() -> str:
        return threading.current_thread().name
    return resolve


class Tracer(Interceptor):
    """Pipeline stage recording one span per storage round trip."""

    name = "trace"

    def __init__(self, *, trace_id: str = "trace",
                 buffer: Optional[TraceBuffer] = None,
                 histograms: Optional[HistogramSet] = None,
                 worker_resolver: Optional[Callable[[], str]] = None) -> None:
        self.trace_id = trace_id
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self.histograms = (histograms if histograms is not None
                           else HistogramSet())
        #: Resolves "who is executing right now" for phase bookkeeping;
        #: defaults to the thread name (correct off the DES fabric).
        self.worker_resolver = (worker_resolver if worker_resolver is not None
                                else thread_worker_resolver())
        self._next_span_id = 0
        #: Open benchmark phase per worker (fed by the metrics phase hook).
        self._phases: Dict[str, str] = {}
        #: Consecutive failed attempts per (worker, service, op, partition).
        self._failures: Dict[Tuple[str, str, str, str], int] = {}
        #: Placement model for target-server attribution (sim only).
        self._cluster = None
        #: Injected-fault kinds awaiting the next span (pre-execute faults
        #: fire before the span is recorded; see :meth:`attach_fault_plan`).
        self._pending_faults: List[str] = []

    # -- installation ------------------------------------------------------
    def install(self, target) -> "Tracer":
        """Hook into ``target``'s pipeline at the front of the stack.

        ``target`` is anything with an operation ``pipeline`` — a
        :class:`~repro.sim.clients.SimStorageAccount`, an
        :class:`~repro.emulator.clients.EmulatorAccount`, or a
        :class:`~repro.cluster.model.StorageCluster`.
        """
        pipeline = getattr(target, "pipeline", None)
        if pipeline is None:
            raise TypeError(
                f"Tracer.install needs an object with an operation pipeline; "
                f"got {target!r}")
        cluster = getattr(target, "cluster", None)
        if cluster is None and hasattr(target, "pool_for"):
            cluster = target  # a bare StorageCluster
        self._cluster = cluster
        pipeline.add_first(self)
        # Fault attribution: when a plan is already set, subscribe so
        # injected anomalies land on the spans they hit.
        plan_owner = cluster if cluster is not None else target
        plan = getattr(plan_owner, "fault_plan", None)
        if plan is not None:
            self.attach_fault_plan(plan)
        return self

    def attach_fault_plan(self, plan) -> "Tracer":
        """Record injected-fault verdicts on the spans they hit.

        Pre-execute faults (outage, throttle, transient, timeout,
        partition crash) fire *before* the round trip's span exists, so
        their kinds are parked and drained into the next recorded span —
        always the failing round trip, since every such fault terminates
        its op.  Data-plane faults (message loss, duplicate delivery)
        fire at the apply instant, *after* the span was recorded, so the
        last span is rewritten in place.
        """
        plan.subscribe(self._on_fault_event)
        return self

    #: Fault kinds injected during apply, after the span was recorded.
    _APPLY_STAGE_FAULTS = frozenset({"message_loss", "duplicate_delivery"})

    def _on_fault_event(self, event) -> None:
        kind = event.kind.value
        if kind in self._APPLY_STAGE_FAULTS:
            spans = self.buffer._spans
            if spans:
                last = spans[-1]
                joined = f"{last.fault},{kind}" if last.fault else kind
                self.buffer.replace_last(replace(last, fault=joined))
        else:
            self._pending_faults.append(kind)

    # -- phase bookkeeping -------------------------------------------------
    def on_phase(self, event: str, name: str) -> None:
        """Target for :func:`repro.core.metrics.set_phase_hook`.

        ``start``/``stop`` bracket a recorded phase for the *current*
        worker; ``span`` events (post-hoc :meth:`PhaseRecorder.record_span`
        phases, e.g. Algorithm 4's accumulated timings) carry no live
        window and are ignored.
        """
        worker = self.worker_resolver()
        if event == "start":
            self._phases[worker] = name
        elif event == "stop":
            self._phases.pop(worker, None)

    # -- interceptor hooks -------------------------------------------------
    def after(self, ctx) -> None:
        self._record(ctx, STATUS_OK, None)

    def failed(self, ctx, exc: BaseException) -> None:
        self._record(ctx, STATUS_ERROR, exc)

    def _server_of(self, op) -> Optional[str]:
        if self._cluster is None:
            return None
        pool = self._cluster.pool_for(op.service)
        # server_key is a pure lookup: attribution must not create servers
        # (a rejected op never reached one).
        return f"{pool.name}/{pool.server_key(op.partition)}"

    def _record(self, ctx, status: str, exc: Optional[BaseException]) -> None:
        op = ctx.op
        worker = ctx.worker or ""
        key = (worker, op.service.value, op.kind.value, op.partition)
        if status == STATUS_OK:
            retries, self._failures[key] = self._failures.get(key, 0), 0
            server = self._server_of(op)
            error = error_code = ""
        else:
            retries = self._failures.get(key, 0)
            self._failures[key] = retries + 1
            server = None  # the round trip never reached a partition server
            error = type(exc).__name__
            error_code = getattr(exc, "error_code", "") or ""
        span = Span(
            trace_id=self.trace_id,
            span_id=self._next_span_id,
            worker=worker,
            phase=self._phases.get(worker),
            backend=ctx.backend,
            service=op.service.value,
            operation=op.kind.value,
            partition=op.partition,
            server=server,
            nbytes=op.nbytes,
            units=op.units,
            start=ctx.started_at,
            end=ctx.finished_at,
            server_latency=ctx.server_latency,
            latency_factor=ctx.latency_factor,
            retries=retries,
            status=status,
            error=error,
            error_code=error_code,
            fault=",".join(self._pending_faults),
        )
        self._pending_faults.clear()
        self._next_span_id += 1
        if self.buffer.append(span):
            self.histograms.observe(span.service, span.operation,
                                    span.duration)

    # -- convenience reads -------------------------------------------------
    def digest(self) -> str:
        return self.buffer.digest()

    @property
    def spans(self):
        return self.buffer.spans
