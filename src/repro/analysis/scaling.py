"""Scalability analysis of benchmark sweeps.

Quantifies the shapes the paper describes in prose: speedup and parallel
efficiency curves, saturation ("the throughput … increases with increasing
number of worker role instances" — until where?), knees, crossovers between
competing series, and a Universal-Scalability-Law fit separating contention
from coherency costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "speedup",
    "efficiency",
    "saturation_point",
    "knee_point",
    "crossover",
    "USLFit",
    "fit_usl",
]


def _validate(workers: Sequence[float], values: Sequence[float]) -> None:
    if len(workers) != len(values):
        raise ValueError(f"{len(workers)} workers vs {len(values)} values")
    if len(workers) < 2:
        raise ValueError("need at least two points")
    if any(w <= 0 for w in workers):
        raise ValueError("worker counts must be positive")
    if list(workers) != sorted(workers):
        raise ValueError("worker counts must be increasing")


def speedup(workers: Sequence[float], times: Sequence[float]) -> List[float]:
    """Speedup relative to the smallest worker count: ``t_1 / t_n``.

    ``times`` are per-worker completion times of a fixed total workload
    (the paper's upload phases), so perfect scaling gives speedup == n.
    """
    _validate(workers, times)
    if any(t <= 0 for t in times):
        raise ValueError("times must be positive")
    base = times[0] * workers[0]
    return [base / t / 1.0 for t in times]


def efficiency(workers: Sequence[float], times: Sequence[float]) -> List[float]:
    """Parallel efficiency: speedup / (n / n_min)."""
    s = speedup(workers, times)
    n0 = workers[0]
    return [si / (w / n0) for si, w in zip(s, workers)]


def saturation_point(workers: Sequence[float], throughput: Sequence[float],
                     *, threshold: float = 0.05) -> Optional[float]:
    """First worker count where throughput stops growing meaningfully.

    Returns the x where the marginal gain of the next doubling drops below
    ``threshold`` (fractional), or None if the series never saturates.
    """
    _validate(workers, throughput)
    for i in range(len(workers) - 1):
        if throughput[i] <= 0:
            continue
        gain = (throughput[i + 1] - throughput[i]) / throughput[i]
        if gain < threshold:
            return float(workers[i])
    return None


def knee_point(workers: Sequence[float], times: Sequence[float],
               *, threshold: float = 0.20) -> Optional[float]:
    """First worker count where a (flat-ish) time series starts climbing.

    Used on the paper's Figure 8 curves: "almost constant till 4 concurrent
    clients" — the knee is where time exceeds the initial plateau by
    ``threshold`` (fractional).
    """
    _validate(workers, times)
    base = times[0]
    if base <= 0:
        raise ValueError("times must be positive")
    for w, t in zip(workers, times):
        if t > base * (1 + threshold):
            return float(w)
    return None


def crossover(workers: Sequence[float], series_a: Sequence[float],
              series_b: Sequence[float]) -> Optional[float]:
    """Interpolated x where series A overtakes series B (or None).

    Returns the first crossing point going left to right; series equal at a
    sample count as crossing there.
    """
    _validate(workers, series_a)
    _validate(workers, series_b)
    diff = [a - b for a, b in zip(series_a, series_b)]
    for i in range(len(diff) - 1):
        d0, d1 = diff[i], diff[i + 1]
        if d0 == 0:
            return float(workers[i])
        if d0 * d1 < 0:
            # Linear interpolation of the zero crossing.
            frac = abs(d0) / (abs(d0) + abs(d1))
            return float(workers[i] + frac * (workers[i + 1] - workers[i]))
    if diff[-1] == 0:
        return float(workers[-1])
    return None


@dataclass(frozen=True)
class USLFit:
    """Universal Scalability Law fit: C(n) = n / (1 + a(n-1) + b n(n-1)).

    ``alpha`` is contention (serialization), ``beta`` coherency (crosstalk);
    ``peak_workers`` the n maximizing throughput (infinite if beta == 0).
    """

    alpha: float
    beta: float
    gamma: float  # throughput of one worker (scale factor)
    residual: float

    def predict(self, n: float) -> float:
        return self.gamma * n / (1 + self.alpha * (n - 1)
                                 + self.beta * n * (n - 1))

    @property
    def peak_workers(self) -> float:
        if self.beta <= 0:
            return float("inf")
        return float(np.sqrt((1 - self.alpha) / self.beta))


def fit_usl(workers: Sequence[float], throughput: Sequence[float]) -> USLFit:
    """Least-squares USL fit to a throughput-vs-workers series."""
    # Imported here: SciPy costs ~0.45 s and ~40 MB, and `repro.cli`
    # reaches this module in every process, fit or no fit.
    from scipy.optimize import least_squares

    _validate(workers, throughput)
    n = np.asarray(workers, dtype=float)
    x = np.asarray(throughput, dtype=float)
    if np.any(x <= 0):
        raise ValueError("throughput must be positive")

    gamma0 = x[0] / n[0]

    def residuals(params):
        alpha, beta, gamma = params
        pred = gamma * n / (1 + alpha * (n - 1) + beta * n * (n - 1))
        return pred - x

    result = least_squares(
        residuals, x0=[0.05, 0.001, gamma0],
        bounds=([0.0, 0.0, 1e-12], [1.0, 1.0, np.inf]),
    )
    alpha, beta, gamma = result.x
    return USLFit(alpha=float(alpha), beta=float(beta), gamma=float(gamma),
                  residual=float(np.sqrt(np.mean(result.fun ** 2))))
