"""The windowed stats folded the slow way: one operation at a time.

:meth:`~repro.traffic.stats.StatsAggregator.record_chunk` vectorizes
validation and window indexing over a batch.  :func:`record` folds one
finished operation with plain scalar arithmetic, so the tests can hold
the batch path to the state a fold in the same order must leave.
"""

from repro.traffic import StatsAggregator


def record(agg: StatsAggregator, start: float, end: float, *,
           ok: bool = True, nbytes: int = 0, operation=None) -> None:
    """Fold one finished operation (times relative to the run origin)."""
    if end < start:
        raise ValueError(f"operation ends ({end}) before it starts "
                         f"({start})")
    if start < 0:
        raise ValueError("start must be >= 0")
    latency = end - start
    agg._window(agg.index_of(start)).arrivals += 1
    done = agg._window(agg.index_of(end))
    done.completions += 1
    done.latency.observe(latency)
    done.nbytes += nbytes
    if not ok:
        done.errors += 1
    if operation:
        done.ops[operation] = done.ops.get(operation, 0) + 1
    # Exact in-flight split across every window [start, end) touches.
    if latency > 0:
        first, last = agg.index_of(start), agg.index_of(end)
        for idx in range(first, last + 1):
            lo = max(start, idx * agg.window_s)
            hi = min(end, (idx + 1) * agg.window_s)
            if hi > lo:
                agg._window(idx).inflight_area += hi - lo
    agg.overall.observe(latency)
    agg.total_arrivals += 1
    agg.total_completions += 1
    agg.total_bytes += nbytes
    if not ok:
        agg.total_errors += 1
