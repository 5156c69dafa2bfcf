"""Unit tests for the sliding-window throttle."""

import pytest

from repro.cluster import SlidingWindowThrottle
from repro.storage import ServerBusyError


class TestSlidingWindowThrottle:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowThrottle(0)
        with pytest.raises(ValueError):
            SlidingWindowThrottle(10, window=0)

    def test_admits_under_limit(self):
        t = SlidingWindowThrottle(5, window=1.0)
        for i in range(5):
            t.charge(0.0, 1)
        assert t.admitted == 5

    def test_rejects_over_limit(self):
        t = SlidingWindowThrottle(5, window=1.0, name="test")
        for _ in range(5):
            t.charge(0.0)
        with pytest.raises(ServerBusyError) as exc_info:
            t.charge(0.5)
        assert exc_info.value.retry_after == 1.0
        assert t.rejected_ops == 1

    def test_window_slides(self):
        t = SlidingWindowThrottle(5, window=1.0)
        for _ in range(5):
            t.charge(0.0)
        with pytest.raises(ServerBusyError):
            t.charge(0.99)
        t.charge(1.01)  # the 0.0 events expired

    def test_weighted_units(self):
        t = SlidingWindowThrottle(100, window=1.0)
        t.charge(0.0, 60)
        t.charge(0.0, 40)
        with pytest.raises(ServerBusyError):
            t.charge(0.0, 1)

    def test_units_larger_than_limit_rejected(self):
        t = SlidingWindowThrottle(10, window=1.0)
        with pytest.raises(ServerBusyError):
            t.charge(0.0, 11)

    def test_rejection_does_not_consume(self):
        t = SlidingWindowThrottle(5, window=1.0)
        for _ in range(5):
            t.charge(0.0)
        for _ in range(10):
            with pytest.raises(ServerBusyError):
                t.charge(0.5)
        # Rejections did not extend the window occupancy.
        t.charge(1.01)

    def test_retry_after_customizable(self):
        t = SlidingWindowThrottle(1, retry_after=2.5)
        t.charge(0.0)
        with pytest.raises(ServerBusyError) as exc_info:
            t.charge(0.0)
        assert exc_info.value.retry_after == 2.5
