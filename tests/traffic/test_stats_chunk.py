"""``StatsAggregator.record_chunk`` == the one-at-a-time oracle.

The chunked path vectorizes validation and window indexing but must
leave the aggregator in *exactly* the state the scalar path would —
same windows, same histogram buckets, same inflight areas — so flock
and classic runs stay comparable with plain ``==``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import StatsAggregator
from repro.traffic.stats import CompletionBuffer
from tests.traffic.stats_oracle import record

WINDOW_S = 2.0


def _scalar(ops):
    agg = StatsAggregator(WINDOW_S)
    for start, lat, ok, nbytes, op in ops:
        record(agg, start, start + lat, ok=ok, nbytes=nbytes, operation=op)
    return agg


def _chunked(ops, chunk):
    agg = StatsAggregator(WINDOW_S)
    for base in range(0, len(ops), chunk):
        part = ops[base:base + chunk]
        agg.record_chunk([o[0] for o in part],
                         [o[0] + o[1] for o in part],
                         oks=[o[2] for o in part],
                         nbytes=[o[3] for o in part],
                         operations=[o[4] for o in part])
    return agg


_OP = st.tuples(
    st.floats(min_value=0.0, max_value=30.0),          # start
    st.floats(min_value=0.0, max_value=9.0),           # latency
    st.booleans(),                                     # ok
    st.integers(min_value=0, max_value=4096),          # nbytes
    st.sampled_from((None, "", "queue.put", "blob.get")))


class TestChunkEquivalence:
    @given(ops=st.lists(_OP, min_size=0, max_size=60),
           chunk=st.sampled_from((1, 3, 7, 64)))
    @settings(max_examples=60, deadline=None)
    def test_chunked_state_equals_scalar_state(self, ops, chunk):
        scalar = _scalar(ops)
        chunked = _chunked(ops, chunk)
        assert chunked == scalar
        assert ([r.to_dict() for r in chunked.rows()]
                == [r.to_dict() for r in scalar.rows()])

    @given(ops=st.lists(_OP, min_size=0, max_size=60),
           size=st.sampled_from((1, 3, 64)))
    @settings(max_examples=40, deadline=None)
    def test_completion_buffer_folds_in_completion_order(self, ops, size):
        """Both load loops' buffer: every ``size`` completions it folds
        what it holds, and after the last flush the aggregator is the
        one-at-a-time fold of the same completions."""
        labels = ("", "queue.put", "blob.get")
        kind_nbytes = (0, 4096, 17)
        agg = StatsAggregator(WINDOW_S)
        buffer = CompletionBuffer(agg, size, kind_nbytes, labels)
        ref = StatsAggregator(WINDOW_S)
        for n, (start, lat, ok, _nbytes, _op) in enumerate(ops, 1):
            kind = n % len(labels)
            buffer.add(start, start + lat, ok, kind)
            assert agg.total_completions == n - n % size
            record(ref, start, start + lat, ok=ok, nbytes=kind_nbytes[kind],
                   operation=labels[kind])
        buffer.flush()
        assert agg == ref
        assert agg.total_completions == len(ops)

    def test_boundary_crossing_op_splits_inflight_identically(self):
        """One op spanning three windows: the inflight split is exact."""
        ops = [(1.5, 4.0, True, 10, "blob.get")]
        assert _chunked(ops, 8) == _scalar(ops)
        rows = {r.index: r for r in _chunked(ops, 8).rows()}
        assert rows[0].mean_in_flight == pytest.approx(0.5 / WINDOW_S)
        assert rows[1].mean_in_flight == pytest.approx(2.0 / WINDOW_S)
        assert rows[2].mean_in_flight == pytest.approx(1.5 / WINDOW_S)

    def test_defaults_mean_ok_zero_bytes_unattributed(self):
        agg = StatsAggregator(WINDOW_S)
        agg.record_chunk([0.0, 1.0], [0.5, 1.5])
        ref = StatsAggregator(WINDOW_S)
        record(ref, 0.0, 0.5)
        record(ref, 1.0, 1.5)
        assert agg == ref
        assert agg.total_errors == 0 and agg.total_bytes == 0


class TestChunkValidation:
    def test_empty_chunk_is_a_no_op(self):
        agg = StatsAggregator(WINDOW_S)
        agg.record_chunk([], [])
        assert agg == StatsAggregator(WINDOW_S)
        assert agg.total_completions == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            StatsAggregator(WINDOW_S).record_chunk([0.0, 1.0], [0.5])

    def test_end_before_start_rejected_with_offender(self):
        with pytest.raises(ValueError, match=r"ends \(1\.0\) before"):
            StatsAggregator(WINDOW_S).record_chunk([0.0, 2.0], [0.5, 1.0])

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start must be >= 0"):
            StatsAggregator(WINDOW_S).record_chunk([-0.5], [0.5])

    def test_failed_chunk_leaves_totals_untouched(self):
        agg = StatsAggregator(WINDOW_S)
        with pytest.raises(ValueError):
            agg.record_chunk([0.0, -1.0], [1.0, 2.0])
        assert agg.total_arrivals == 0
        assert agg.total_completions == 0
