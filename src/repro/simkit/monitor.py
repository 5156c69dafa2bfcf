"""Lightweight measurement helpers for simulations.

These utilities collect time-stamped samples inside a simulation run and
aggregate them into the statistics the benchmark harness reports.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

__all__ = ["Tally"]


class Tally:
    """Streaming summary statistics (count/mean/variance/min/max).

    Uses Welford's online algorithm, so it is stable for long runs.
    """

    __slots__ = ("name", "_n", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def record(self, value: float) -> None:
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.record(v)

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return self._mean

    @property
    def variance(self) -> float:
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return self._min

    @property
    def max(self) -> float:
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return self._max

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._n == 0:
            return f"<Tally {self.name!r} empty>"
        return f"<Tally {self.name!r} n={self._n} mean={self._mean:.6g}>"
