"""Trace-level observability for the storage-operation pipeline.

The paper reports per-phase times and throughputs; this package explains
them.  A :class:`Tracer` interceptor at the front of the shared pipeline
emits one attributed :class:`Span` per storage round trip — worker role,
benchmark phase, target partition server, fault/throttle verdicts, retry
burn — into a bounded :class:`TraceBuffer` with JSONL and Chrome
trace-event exporters (one track per worker role in Perfetto), plus
mergeable log-bucketed latency :class:`Histogram` rollups and a
:class:`RunManifest` pinning the provenance (seed, calibration, backend,
version) of every figure output.

Tracing is opt-in (``RunConfig(trace=True)`` or ``repro trace <figure>``)
and reads only the backend clock: enabling it does not move a single
simulated event.
"""

from .buffer import TraceBuffer, chrome_trace
from .histogram import DEFAULT_GROWTH, Histogram, HistogramSet
from .manifest import RunManifest
from .span import STATUS_ERROR, STATUS_OK, Span
from .tracer import (
    Tracer,
    sim_worker_resolver,
    thread_worker_resolver,
)

__all__ = [
    "Span",
    "STATUS_OK",
    "STATUS_ERROR",
    "TraceBuffer",
    "chrome_trace",
    "Histogram",
    "HistogramSet",
    "DEFAULT_GROWTH",
    "RunManifest",
    "Tracer",
    "sim_worker_resolver",
    "thread_worker_resolver",
]
