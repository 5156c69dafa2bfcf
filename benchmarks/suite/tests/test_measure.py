"""Percentiles, sample-count rule, spread, and span self-time arithmetic."""

import json

import measure
import pytest
import reference
from measure import (Spans, median, percentile, repeat_for, spread,
                     supported_tail)


def test_percentile_is_nearest_rank_and_observed():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 95) == 5.0
    assert percentile(values, 20) == 1.0
    assert percentile([7.0], 95) == 7.0
    hundred = list(range(1, 101))
    assert percentile(hundred, 95) == 95
    assert percentile(hundred, 99) == 99


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_supported_tail_needs_ten_samples_beyond():
    assert supported_tail(3) is None
    assert supported_tail(99) is None
    assert supported_tail(100) == 90
    assert supported_tail(200) == 95
    assert supported_tail(1000) == 99


def test_spread_is_iqr_over_median():
    assert spread([10.0]) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert spread(values) == pytest.approx((6.0 - 2.0) / 4.0)


def test_self_time_subtracts_children_only():
    spans = Spans()
    root = spans.add("handle", 0.0, 10.0, -1, 1)
    child = spans.add("pipeline", 1.0, 4.0, root, 1)
    spans.add("verify", 2.0, 3.0, child, 1)
    spans.add("render", 20.0, 22.0, root, 1)  # replayed in its own pass
    own = spans.self_times()
    assert own["handle"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own["pipeline"] == pytest.approx(3.0 - 1.0)
    assert own["verify"] == pytest.approx(1.0)
    assert own["render"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_is_floored_and_summed_per_name():
    spans = Spans()
    a = spans.add("layer", 0.0, 1.0)
    spans.add("child", 0.0, 5.0, a)
    spans.add("layer", 2.0, 4.0)
    own = spans.self_times()
    assert own["layer"] == pytest.approx(0.0 + 2.0)
    assert spans.counts() == {"layer": 2, "child": 1}


def test_spans_round_trip_to_jsonl(tmp_path):
    spans = Spans()
    root = spans.add("a", 0.5, 1.5, -1, 7)
    spans.add("b", 0.6, 0.7, root, 7)
    path = tmp_path / "x.spans.jsonl"
    spans.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[1] == {"id": 1, "name": "b", "start": 0.6, "end": 0.7,
                       "parent": 0, "op_id": 7}


def test_pace_takes_its_share_of_slices_and_scales_to_the_reference(
        monkeypatch):
    monkeypatch.setattr(reference, "slice_s", lambda: 0.03)
    pace = reference.Pace()
    assert len(pace.slices) == 1
    pace.worked(1.0)  # 15% of 1 s is five 30 ms slices
    assert len(pace.slices) == 5
    pace.worked(0.1)  # 165 ms owed, 150 ms taken
    assert len(pace.slices) == 6
    # Slices twice as fast as the reference: a time read here counts
    # for more at reference speed, by the elasticity's power of two.
    ratio = reference.REFERENCE_SLICE_S / 0.03
    assert pace.factor() == pytest.approx(ratio ** reference.ELASTICITY)
    monkeypatch.setattr(reference, "slice_s",
                        lambda: reference.REFERENCE_SLICE_S)
    assert reference.Pace().factor() == pytest.approx(1.0)


def test_repeat_for_repeats_at_least_thrice_and_stops_in_budget(
        monkeypatch):
    assert len(repeat_for(dict, 0.0)) == 3
    clock = iter(range(100))
    monkeypatch.setattr(measure.time, "perf_counter",
                        lambda: float(next(clock)))
    # One second a repeat: a seventh would end past 6.5 s.
    assert len(repeat_for(dict, 6.5)) == 6
