"""Open-loop traffic generation, windowed statistics, and SLO gates.

The paper's workloads are closed-loop (N workers, think time), which
self-throttle at saturation; this package adds the DiPerF-style
open-loop side: seeded arrival processes scheduled independently of
completions (:mod:`~repro.traffic.arrivals`), a streaming
windowed aggregator (:mod:`~repro.traffic.stats`), per-window SLO
verdicts (:mod:`~repro.traffic.slo`), the engine driving any backend
(:mod:`~repro.traffic.engine`), and bisection saturation search for the
latency knee (:mod:`~repro.traffic.knee`).  See ``docs/traffic.md``.
"""

from .arrivals import (
    PROCESSES,
    ArrivalProcess,
    ArrivalSpec,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    RampProcess,
    TraceReplayProcess,
    build_process,
    parse_arrival_spec,
)
from .engine import (
    MIXES,
    LoadConfig,
    LoadResult,
    ScheduledOp,
    run_load,
    schedule_digest,
)
from .flock import FlockSchedule, build_flock_schedule
from .knee import KneeProbe, KneeResult, find_knee
from .slo import SLOReport, SLOSpec, WindowViolation
from .stats import WINDOW_CSV_HEADER, StatsAggregator, WindowRow

__all__ = [
    "PROCESSES",
    "ArrivalProcess",
    "ArrivalSpec",
    "DiurnalProcess",
    "MMPPProcess",
    "PoissonProcess",
    "RampProcess",
    "TraceReplayProcess",
    "build_process",
    "parse_arrival_spec",
    "MIXES",
    "LoadConfig",
    "LoadResult",
    "ScheduledOp",
    "run_load",
    "schedule_digest",
    "FlockSchedule",
    "build_flock_schedule",
    "KneeProbe",
    "KneeResult",
    "find_knee",
    "SLOReport",
    "SLOSpec",
    "WindowViolation",
    "WINDOW_CSV_HEADER",
    "StatsAggregator",
    "WindowRow",
]
