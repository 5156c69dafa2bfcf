"""Unit tests for simkit measurement helpers."""

import math

import pytest

from repro.simkit import Tally


class TestTally:
    def test_empty_tally(self):
        t = Tally("x")
        assert t.count == 0
        with pytest.raises(ValueError):
            _ = t.mean
        with pytest.raises(ValueError):
            _ = t.min
        with pytest.raises(ValueError):
            _ = t.max

    def test_basic_stats(self):
        t = Tally()
        t.extend([1.0, 2.0, 3.0, 4.0])
        assert t.count == 4
        assert t.mean == pytest.approx(2.5)
        assert t.total == pytest.approx(10.0)
        assert t.min == 1.0 and t.max == 4.0
        assert t.variance == pytest.approx(5.0 / 3.0)
        assert t.stdev == pytest.approx(math.sqrt(5.0 / 3.0))

    def test_single_sample_variance_zero(self):
        t = Tally()
        t.record(5.0)
        assert t.variance == 0.0

    def test_welford_matches_numpy(self):
        import numpy as np
        rng = np.random.default_rng(1)
        data = rng.normal(100, 15, size=1000)
        t = Tally()
        t.extend(data)
        assert t.mean == pytest.approx(float(np.mean(data)))
        assert t.variance == pytest.approx(float(np.var(data, ddof=1)))

    def test_summary_keys(self):
        t = Tally()
        t.record(1.0)
        assert set(t.summary()) == {"count", "total", "mean", "stdev", "min", "max"}

