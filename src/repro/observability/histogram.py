"""Mergeable log-bucketed latency histograms.

The paper reports one mean per (operation, size, worker-count) cell;
explaining tail behaviour needs percentiles.  :class:`Histogram` buckets
positive values into geometrically-growing bins (~9% relative resolution
at the default growth factor), so histograms from different workers,
worker counts, or whole runs can be **merged exactly** — merging is
associative and commutative because the state is integer bucket counts
plus min/max/count.  Percentile reads are approximate (bucket upper
bound) but always clamped into the observed ``[min, max]``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["Histogram", "HistogramSet", "DEFAULT_GROWTH"]

#: ~9% relative bucket width: 2 ** (1/8).
DEFAULT_GROWTH = 2.0 ** 0.125


class Histogram:
    """Log-bucketed histogram of non-negative values."""

    __slots__ = ("growth", "_log_growth", "counts", "zeros", "count",
                 "total", "min", "max")

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.growth = growth
        self._log_growth = math.log(growth)
        #: bucket index -> count; bucket ``i`` covers
        #: ``[growth**i, growth**(i+1))``.
        self.counts: Dict[int, int] = {}
        #: Exact-zero observations get their own bucket.
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording ---------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """The bucket a positive ``value`` falls into."""
        if value <= 0:
            raise ValueError("bucket_index needs a positive value")
        return int(math.floor(math.log(value) / self._log_growth))

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``[low, high)`` bounds of one bucket."""
        return self.growth ** index, self.growth ** (index + 1)

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be >= 0")
        if value == 0:
            self.zeros += 1
        else:
            idx = self.bucket_index(value)
            self.counts[idx] = self.counts.get(idx, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    # -- merging -----------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both sets of observations.

        Pure on its inputs; associative and commutative over the compared
        state (bucket counts, count, min, max — see :meth:`__eq__`).
        """
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with different growth factors "
                f"({self.growth} vs {other.growth})")
        merged = Histogram(self.growth)
        merged.counts = dict(self.counts)
        for idx, n in other.counts.items():
            merged.counts[idx] = merged.counts.get(idx, 0) + n
        merged.zeros = self.zeros + other.zeros
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxs) if maxs else None
        return merged

    def __eq__(self, other: object) -> bool:
        # ``total`` is deliberately excluded: float addition is not
        # associative, and equality is what the merge laws are stated over.
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.growth == other.growth
                and self.counts == other.counts
                and self.zeros == other.zeros
                and self.count == other.count
                and self.min == other.min
                and self.max == other.max)

    __hash__ = None  # mutable container

    # -- reading -----------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (``0 < q <= 100``).

        Returns the upper bound of the bucket holding the q-th ranked
        observation, clamped into the observed ``[min, max]`` — so the
        result is always bounded by real data points.  0.0 when empty.
        """
        if not 0 < q <= 100:
            raise ValueError("q must be in (0, 100]")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q / 100.0 * self.count)
        cum = self.zeros
        if cum >= rank:
            value = 0.0
        else:
            value = self.max  # fallback: the top bucket
            for idx in sorted(self.counts):
                cum += self.counts[idx]
                if cum >= rank:
                    value = self.bucket_bounds(idx)[1]
                    break
        return min(max(value, self.min), self.max)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.p50 if self.count else 0.0,
            "p90": self.p90 if self.count else 0.0,
            "p99": self.p99 if self.count else 0.0,
        }


class HistogramSet:
    """Latency histograms keyed by ``service.operation``."""

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        self.growth = growth
        self._hists: Dict[str, Histogram] = {}

    @staticmethod
    def key(service: str, operation: str) -> str:
        return f"{service}.{operation}"

    def observe(self, service: str, operation: str, value: float) -> None:
        key = self.key(service, operation)
        hist = self._hists.get(key)
        if hist is None:
            hist = Histogram(self.growth)
            self._hists[key] = hist
        hist.observe(value)

    def get(self, service: str, operation: str) -> Optional[Histogram]:
        return self._hists.get(self.key(service, operation))

    def keys(self) -> Iterable[str]:
        return sorted(self._hists)

    def merge(self, other: "HistogramSet") -> "HistogramSet":
        merged = HistogramSet(self.growth)
        for key, hist in self._hists.items():
            theirs = other._hists.get(key)
            merged._hists[key] = hist.merge(theirs) if theirs else hist.merge(
                Histogram(self.growth))
        for key, hist in other._hists.items():
            if key not in self._hists:
                merged._hists[key] = Histogram(self.growth).merge(hist)
        return merged

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {key: self._hists[key].to_dict() for key in self.keys()}
