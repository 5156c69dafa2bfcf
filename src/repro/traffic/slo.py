"""Service-level objectives over windowed open-loop statistics.

An :class:`SLOSpec` states per-window bounds — latency percentiles, an
error-rate ceiling, a throughput floor — and :meth:`SLOSpec.check`
evaluates them over the :class:`~repro.traffic.stats.WindowRow` stream,
flagging each violating window with the metric, the observed value, and
the bound.  Warmup (and optionally trailing cooldown) windows are
excluded so ramp transients do not mask the steady state; the knee
search (:mod:`repro.traffic.knee`) bisects on "every steady-state
window clean".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .stats import WindowRow

__all__ = ["SLOSpec", "SLOReport", "WindowViolation"]


@dataclass(frozen=True)
class WindowViolation:
    """One window failing one objective."""

    window: int
    metric: str
    value: float
    bound: float

    def to_dict(self) -> Dict[str, float]:
        return {"window": self.window, "metric": self.metric,
                "value": round(self.value, 6), "bound": self.bound}


@dataclass
class SLOReport:
    """Verdict of one SLO evaluation."""

    spec: "SLOSpec"
    windows_checked: int
    violations: List[WindowViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.spec.to_dict(),
            "windows_checked": self.windows_checked,
            "clean": self.clean,
            "violations": [v.to_dict() for v in self.violations],
        }


#: value suffix -> milliseconds multiplier for latency bounds.
_LATENCY_UNITS = {"ms": 1.0, "s": 1000.0}


@dataclass(frozen=True)
class SLOSpec:
    """Per-window objectives.  ``None`` disables a bound.

    Latency bounds are milliseconds; ``max_error_rate`` is a fraction in
    [0, 1]; ``min_throughput`` is successful ops/s.  The first
    ``warmup_windows`` and last ``cooldown_windows`` rows are skipped.
    Windows with zero attempts are judged only against the throughput
    floor (there is no latency sample to bound — but an *empty* window
    under a throughput floor is itself the violation that matters).
    """

    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    max_error_rate: Optional[float] = None
    min_throughput: Optional[float] = None
    warmup_windows: int = 1
    cooldown_windows: int = 1

    def __post_init__(self) -> None:
        for name in ("p50_ms", "p95_ms", "p99_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} bound must be > 0")
        if (self.max_error_rate is not None
                and not 0 <= self.max_error_rate <= 1):
            raise ValueError("max_error_rate must be in [0, 1]")
        if self.min_throughput is not None and self.min_throughput < 0:
            raise ValueError("min_throughput must be >= 0")
        if self.warmup_windows < 0 or self.cooldown_windows < 0:
            raise ValueError("warmup/cooldown window counts must be >= 0")

    # -- parsing -----------------------------------------------------------
    @classmethod
    def parse(cls, text: str, *, warmup_windows: int = 1,
              cooldown_windows: int = 1) -> "SLOSpec":
        """Parse a CLI objective list.

        Comma-separated ``metric=value`` terms; whitespace is ignored::

            p95=250ms, p99=1s, err=1%, tput=100

        Metrics: ``p50``/``p95``/``p99`` (latency, ``ms`` default, ``s``
        accepted), ``err`` (fraction or percent), ``tput`` (ops/s floor).
        """
        kwargs: Dict[str, float] = {}
        for term in text.split(","):
            term = term.strip()
            if not term:
                continue
            if "=" not in term:
                raise ValueError(f"bad SLO term {term!r}; expected "
                                 f"metric=value")
            metric, value = (p.strip().lower() for p in term.split("=", 1))
            if metric in ("p50", "p95", "p99"):
                match = re.fullmatch(r"([0-9.]+)\s*(ms|s)?", value)
                if not match:
                    raise ValueError(f"bad latency bound {value!r} for "
                                     f"{metric}")
                ms = float(match.group(1)) * _LATENCY_UNITS[
                    match.group(2) or "ms"]
                kwargs[f"{metric}_ms"] = ms
            elif metric in ("err", "error", "error_rate"):
                if value.endswith("%"):
                    kwargs["max_error_rate"] = float(value[:-1]) / 100.0
                else:
                    kwargs["max_error_rate"] = float(value)
            elif metric in ("tput", "throughput"):
                kwargs["min_throughput"] = float(value)
            else:
                raise ValueError(
                    f"unknown SLO metric {metric!r}; choose from p50, "
                    f"p95, p99, err, tput")
        if not kwargs:
            raise ValueError(f"SLO spec {text!r} names no objectives")
        return cls(warmup_windows=warmup_windows,
                   cooldown_windows=cooldown_windows, **kwargs)

    # -- evaluation --------------------------------------------------------
    def steady_rows(self, rows: Sequence[WindowRow]) -> Sequence[WindowRow]:
        """The steady-state slice warmup/cooldown excludes."""
        end = len(rows) - self.cooldown_windows
        return rows[self.warmup_windows:max(self.warmup_windows, end)]

    def check(self, rows: Sequence[WindowRow]) -> SLOReport:
        steady = self.steady_rows(rows)
        report = SLOReport(spec=self, windows_checked=len(steady))
        for row in steady:
            has_samples = (row.completions - row.errors) > 0
            for metric, bound in (("p50_ms", self.p50_ms),
                                  ("p95_ms", self.p95_ms),
                                  ("p99_ms", self.p99_ms)):
                if bound is None or not has_samples:
                    continue
                value = getattr(row, metric)
                if value > bound:
                    report.violations.append(WindowViolation(
                        row.index, metric, value, bound))
            if (self.max_error_rate is not None and row.completions
                    and row.error_rate > self.max_error_rate):
                report.violations.append(WindowViolation(
                    row.index, "error_rate", row.error_rate,
                    self.max_error_rate))
            if (self.min_throughput is not None
                    and row.throughput < self.min_throughput):
                report.violations.append(WindowViolation(
                    row.index, "throughput", row.throughput,
                    self.min_throughput))
        return report

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name in ("p50_ms", "p95_ms", "p99_ms", "max_error_rate",
                     "min_throughput"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out["warmup_windows"] = self.warmup_windows
        out["cooldown_windows"] = self.cooldown_windows
        return out
