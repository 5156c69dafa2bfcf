"""Window-attribution laws for the windowed StatsAggregator.

Percentile error bounded by the log-bucket width, read-only rows, and
exact in-flight attribution across window boundaries (no double count,
no drop).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.histogram import DEFAULT_GROWTH
from repro.traffic import StatsAggregator

#: One operation: (start, latency, ok, nbytes).
operations = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.integers(min_value=0, max_value=1 << 20),
    ),
    max_size=60,
)

window_widths = st.floats(min_value=0.5, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


def fill(agg, ops):
    agg.record_chunk([o[0] for o in ops], [o[0] + o[1] for o in ops],
                     oks=[o[2] for o in ops], nbytes=[o[3] for o in ops],
                     operations=[f"op{o[3] % 3}" for o in ops])
    return agg


def offline(ops, window_s):
    """The single-pass reference aggregate."""
    return fill(StatsAggregator(window_s), ops)


@given(operations, window_widths)
@settings(max_examples=60, deadline=None)
def test_no_window_boundary_double_count_or_drop(ops, w):
    """Totals across windows equal the per-operation ground truth: every
    arrival/completion lands in exactly one window, and the in-flight
    integral sums to exactly the total busy time."""
    agg = offline(ops, w)
    rows = agg.rows()
    assert sum(r.arrivals for r in rows) == len(ops)
    assert sum(r.completions for r in rows) == len(ops)
    assert sum(r.errors for r in rows) == sum(1 for o in ops if not o[2])
    total_area = sum(r.mean_in_flight * w for r in rows)
    total_latency = sum(o[1] for o in ops)
    assert math.isclose(total_area, total_latency,
                        rel_tol=1e-7, abs_tol=1e-7)
    total_bytes = sum(r.mb_per_s * w * 1024 * 1024 for r in rows)
    assert math.isclose(total_bytes, sum(o[3] for o in ops),
                        rel_tol=1e-7, abs_tol=1e-4)


@given(operations.filter(lambda v: len(v) > 0))
@settings(max_examples=60, deadline=None)
def test_percentiles_within_bucket_error(ops):
    """Windowed percentiles stay within one log-bucket of the exact
    order statistics (the Histogram's documented error bound)."""
    agg = offline(ops, 1e9)  # one window: compare against all latencies
    row = agg.rows()[0]
    latencies = sorted(o[1] for o in ops)

    def exact(q):
        return latencies[min(len(latencies) - 1,
                             int(math.ceil(q / 100 * len(latencies))) - 1)]

    for q, got_ms in ((50, row.p50_ms), (95, row.p95_ms),
                      (99, row.p99_ms)):
        got = got_ms / 1e3
        lo = exact(q)
        # Upper-bound semantics: within one bucket's relative width above
        # the exact statistic, never below the sample minimum.
        assert got >= min(latencies) - 1e-12
        assert got <= max(lo * DEFAULT_GROWTH, lo + 1e-9) or got <= max(latencies)


@given(operations, window_widths)
@settings(max_examples=40, deadline=None)
def test_rows_are_read_only_derivations(ops, w):
    """Reading rows twice (and with different server hints) neither
    mutates state nor changes the stored content."""
    agg = offline(ops, w)
    before = offline(ops, w)
    r1 = agg.rows(servers=1)
    r2 = agg.rows(servers=4)
    assert agg == before
    for a, b in zip(r1, r2):
        assert math.isclose(a.utilization, b.utilization * 4,
                            rel_tol=1e-9, abs_tol=1e-12)


def test_boundary_completion_goes_to_later_window():
    agg = StatsAggregator(5.0)
    agg.record_chunk([4.0], [5.0])  # completes exactly on the boundary
    rows = agg.rows()
    assert rows[0].arrivals == 1 and rows[0].completions == 0
    assert rows[1].completions == 1
    # in-flight: the [4,5) second belongs entirely to window 0
    assert math.isclose(rows[0].mean_in_flight, 1.0 / 5.0)
    assert rows[1].mean_in_flight == 0.0


def test_spanning_op_splits_inflight_exactly():
    agg = StatsAggregator(2.0)
    agg.record_chunk([1.0], [6.5])  # spans windows 0..3
    areas = [r.mean_in_flight * 2.0 for r in agg.rows()]
    assert [round(a, 9) for a in areas] == [1.0, 2.0, 2.0, 0.5]
