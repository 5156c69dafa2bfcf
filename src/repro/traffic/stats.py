"""Streaming windowed statistics for open-loop runs.

:class:`StatsAggregator` folds completed operations into fixed-width
time windows as they finish.  The stored state is integer counters,
byte totals, log-bucketed latency
:class:`~repro.observability.histogram.Histogram`\\ s, and an exact
in-flight time integral (each operation contributes its overlap with
every window it spans, so boundary-crossing work is neither
double-counted nor dropped).  ``record`` and ``record_chunk`` fold the
same operations into equal aggregators.

Attribution rules (fixed):

* an operation's *arrival* counts in the window containing its start;
* its *completion*, latency sample, error flag, and bytes count in the
  window containing its end (a completion exactly on a boundary belongs
  to the later window — windows are ``[k·w, (k+1)·w)``);
* its *in-flight* contribution to each window is the exact overlap of
  ``[start, end)`` with that window.

Derived metrics (throughput, percentiles, mean in-flight, utilization)
are computed at read time from the stored state, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..observability.histogram import DEFAULT_GROWTH, Histogram

__all__ = ["StatsAggregator", "WindowRow", "WINDOW_CSV_HEADER",
           "windows_csv"]


class _Window:
    """Per-window state (internal)."""

    __slots__ = ("arrivals", "completions", "errors", "nbytes",
                 "latency", "inflight_area", "ops")

    def __init__(self, growth: float) -> None:
        self.arrivals = 0
        self.completions = 0
        self.errors = 0
        self.nbytes = 0
        self.latency = Histogram(growth)
        #: ∫ in-flight dt restricted to this window (exact overlap sum).
        self.inflight_area = 0.0
        #: operation name -> completions (successful + failed).
        self.ops: Dict[str, int] = {}

    def eq_exact(self, other: "_Window") -> bool:
        # inflight_area is float-summed in fold order, so like
        # Histogram.total it is compared with a tolerance, not exactly.
        return (self.arrivals == other.arrivals
                and self.completions == other.completions
                and self.errors == other.errors
                and self.nbytes == other.nbytes
                and self.latency == other.latency
                and self.ops == other.ops
                and math.isclose(self.inflight_area, other.inflight_area,
                                 rel_tol=1e-9, abs_tol=1e-9))


@dataclass(frozen=True)
class WindowRow:
    """Derived, read-only view of one window."""

    index: int
    start: float
    end: float
    arrivals: int
    completions: int
    errors: int
    throughput: float       #: successful completions / s
    error_rate: float       #: errors / (completions + errors)
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_latency_ms: float
    mean_in_flight: float   #: time-averaged concurrency (Little's L)
    utilization: float      #: mean_in_flight / servers hint
    mb_per_s: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "window": self.index, "start": self.start, "end": self.end,
            "arrivals": self.arrivals, "completions": self.completions,
            "errors": self.errors,
            "throughput": round(self.throughput, 6),
            "error_rate": round(self.error_rate, 6),
            "p50_ms": round(self.p50_ms, 6),
            "p95_ms": round(self.p95_ms, 6),
            "p99_ms": round(self.p99_ms, 6),
            "mean_latency_ms": round(self.mean_latency_ms, 6),
            "mean_in_flight": round(self.mean_in_flight, 6),
            "utilization": round(self.utilization, 6),
            "mb_per_s": round(self.mb_per_s, 6),
        }


WINDOW_CSV_HEADER = ("window,start,end,arrivals,completions,errors,"
                     "throughput,error_rate,p50_ms,p95_ms,p99_ms,"
                     "mean_latency_ms,mean_in_flight,utilization,mb_per_s")


def windows_csv(rows: Sequence[WindowRow]) -> str:
    """``rows`` as CSV text under :data:`WINDOW_CSV_HEADER`."""
    columns = WINDOW_CSV_HEADER.split(",")
    lines = [WINDOW_CSV_HEADER]
    for row in rows:
        d = row.to_dict()
        lines.append(",".join(str(d[col]) for col in columns))
    return "\n".join(lines) + "\n"


class StatsAggregator:
    """Fold operation completions into fixed-width windows."""

    def __init__(self, window_s: float, *,
                 growth: float = DEFAULT_GROWTH) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        self.window_s = float(window_s)
        self.growth = growth
        self._windows: Dict[int, _Window] = {}
        #: Run-level latency histogram over every completion.
        self.overall = Histogram(growth)
        self.total_arrivals = 0
        self.total_completions = 0
        self.total_errors = 0
        self.total_bytes = 0

    # -- recording ---------------------------------------------------------
    def _window(self, index: int) -> _Window:
        win = self._windows.get(index)
        if win is None:
            win = _Window(self.growth)
            self._windows[index] = win
        return win

    def index_of(self, t: float) -> int:
        return int(math.floor(t / self.window_s))

    def record(self, start: float, end: float, *, ok: bool = True,
               nbytes: int = 0, operation: Optional[str] = None) -> None:
        """Fold one finished operation (times relative to the run origin)."""
        if end < start:
            raise ValueError(f"operation ends ({end}) before it starts "
                             f"({start})")
        if start < 0:
            raise ValueError("start must be >= 0")
        latency = end - start
        self._window(self.index_of(start)).arrivals += 1
        done = self._window(self.index_of(end))
        done.completions += 1
        done.latency.observe(latency)
        done.nbytes += nbytes
        if not ok:
            done.errors += 1
        if operation:
            done.ops[operation] = done.ops.get(operation, 0) + 1
        # Exact in-flight split across every window [start, end) touches.
        if latency > 0:
            first, last = self.index_of(start), self.index_of(end)
            for idx in range(first, last + 1):
                lo = max(start, idx * self.window_s)
                hi = min(end, (idx + 1) * self.window_s)
                if hi > lo:
                    self._window(idx).inflight_area += hi - lo
        self.overall.observe(latency)
        self.total_arrivals += 1
        self.total_completions += 1
        self.total_bytes += nbytes
        if not ok:
            self.total_errors += 1

    def record_chunk(self, starts, ends, *, oks=None, nbytes=None,
                     operations=None) -> None:
        """Fold a batch of finished operations in one call.

        The state change is exactly equivalent to calling
        :meth:`record` once per element, in order (pinned by
        ``tests/traffic/test_stats_chunk.py``): validation and window
        indexing are vectorized with numpy, while latency observations
        reuse the scalar histogram path so bucket boundaries agree to
        the last ulp.  Flock-mode load runs flush their completion
        buffers through here.

        ``oks``/``nbytes``/``operations`` are optional parallel
        sequences (defaults: ok, 0 bytes, unattributed).
        """
        import numpy as np

        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        n = len(starts)
        if len(ends) != n:
            raise ValueError("starts and ends must have equal length")
        if n == 0:
            return
        bad = ends < starts
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"operation ends ({ends[i]}) before it "
                             f"starts ({starts[i]})")
        if (starts < 0).any():
            raise ValueError("start must be >= 0")
        w = self.window_s
        first = np.floor(starts / w).astype(np.int64).tolist()
        last = np.floor(ends / w).astype(np.int64).tolist()
        lats = (ends - starts).tolist()
        starts_l = starts.tolist()
        ends_l = ends.tolist()
        window = self._window
        overall_observe = self.overall.observe
        total_nbytes = 0
        nerr = 0
        for i in range(n):
            fi = first[i]
            li = last[i]
            lat = lats[i]
            window(fi).arrivals += 1
            done = window(li)
            done.completions += 1
            done.latency.observe(lat)
            nb = 0 if nbytes is None else nbytes[i]
            done.nbytes += nb
            total_nbytes += nb
            ok = True if oks is None else oks[i]
            if not ok:
                done.errors += 1
                nerr += 1
            if operations is not None:
                op = operations[i]
                if op:
                    done.ops[op] = done.ops.get(op, 0) + 1
            if lat > 0:
                if fi == li:
                    # Single-window op: the overlap is the whole latency.
                    window(fi).inflight_area += lat
                else:
                    start = starts_l[i]
                    end = ends_l[i]
                    for idx in range(fi, li + 1):
                        lo = max(start, idx * w)
                        hi = min(end, (idx + 1) * w)
                        if hi > lo:
                            window(idx).inflight_area += hi - lo
            overall_observe(lat)
        self.total_arrivals += n
        self.total_completions += n
        self.total_bytes += total_nbytes
        self.total_errors += nerr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatsAggregator):
            return NotImplemented
        if (self.window_s != other.window_s
                or self.growth != other.growth
                or self.overall != other.overall
                or self.total_arrivals != other.total_arrivals
                or self.total_completions != other.total_completions
                or self.total_errors != other.total_errors
                or self.total_bytes != other.total_bytes):
            return False
        empty = _Window(self.growth)
        indices = set(self._windows) | set(other._windows)
        return all(
            self._windows.get(i, empty).eq_exact(other._windows.get(i, empty))
            for i in indices)

    __hash__ = None  # mutable container

    # -- reading -----------------------------------------------------------
    def window_count(self, duration: Optional[float] = None) -> int:
        if duration is not None:
            return max(1, int(math.ceil(duration / self.window_s)))
        return (max(self._windows) + 1) if self._windows else 0

    def rows(self, duration: Optional[float] = None, *,
             servers: int = 1) -> List[WindowRow]:
        """Derived per-window rows, 0..N-1 (gaps become empty windows).

        ``servers`` scales the utilization column: mean in-flight
        operations per server (a pure read-time hint — the stored
        state never depends on it).
        """
        if servers < 1:
            raise ValueError("servers must be >= 1")
        out: List[WindowRow] = []
        w = self.window_s
        empty = _Window(self.growth)
        for idx in range(self.window_count(duration)):
            win = self._windows.get(idx, empty)
            hist = win.latency
            attempts = win.completions
            good = win.completions - win.errors
            mean_if = win.inflight_area / w
            out.append(WindowRow(
                index=idx, start=idx * w, end=(idx + 1) * w,
                arrivals=win.arrivals, completions=win.completions,
                errors=win.errors,
                throughput=good / w,
                error_rate=(win.errors / attempts) if attempts else 0.0,
                p50_ms=hist.p50 * 1e3 if hist.count else 0.0,
                p95_ms=hist.percentile(95) * 1e3 if hist.count else 0.0,
                p99_ms=hist.p99 * 1e3 if hist.count else 0.0,
                mean_latency_ms=hist.mean * 1e3,
                mean_in_flight=mean_if,
                utilization=mean_if / servers,
                mb_per_s=win.nbytes / w / (1024 * 1024),
            ))
        return out

    def totals(self) -> Dict[str, float]:
        return {
            "arrivals": self.total_arrivals,
            "completions": self.total_completions,
            "errors": self.total_errors,
            "bytes": self.total_bytes,
            "latency": self.overall.to_dict(),
        }
