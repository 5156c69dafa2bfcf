"""Bisection saturation search: find a service's latency knee.

DiPerF-style capacity location: the **knee** is the highest open-loop
arrival rate whose steady-state windows are all SLO-clean.  Closed-loop
sweeps never see it (a saturated closed loop self-throttles its offered
rate); an open-loop probe at rate λ either keeps every window inside the
objectives or it does not, which makes "clean at λ" a monotone-enough
predicate to bisect.

Every probe is a full seeded :func:`~repro.traffic.engine.run_load` run,
so the search is deterministic: same seed and bounds ⇒ same probe
sequence ⇒ same knee (pinned by ``tests/traffic``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from .engine import LoadConfig, run_load

__all__ = ["KneeProbe", "KneeResult", "find_knee"]


@dataclass(frozen=True)
class KneeProbe:
    """One bisection probe at a fixed arrival rate."""

    rate: float
    clean: bool
    completions: int
    errors: int
    p95_ms: float
    violation_windows: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "rate": round(self.rate, 6),
            "clean": self.clean,
            "completions": self.completions,
            "errors": self.errors,
            "p95_ms": round(self.p95_ms, 6),
            "violation_windows": self.violation_windows,
        }


@dataclass
class KneeResult:
    """Outcome of one saturation search."""

    #: Highest probed rate with every steady-state window SLO-clean,
    #: or ``None`` when even the lowest probe violated the objectives.
    knee_rate: Optional[float]
    converged: bool
    probes: List[KneeProbe] = field(default_factory=list)
    low: float = 0.0
    high: float = 0.0
    rel_tol: float = 0.0

    def verdict(self) -> Dict[str, object]:
        return {
            "kind": "saturation-search",
            "knee_rate": (round(self.knee_rate, 6)
                          if self.knee_rate is not None else None),
            "converged": self.converged,
            "bracket": {"low": self.low, "high": self.high},
            "rel_tol": self.rel_tol,
            "probes": [p.to_dict() for p in self.probes],
        }

    def to_json(self) -> str:
        return json.dumps(self.verdict(), indent=2, sort_keys=True)


def _probe(config: LoadConfig, rate: float) -> tuple:
    result = run_load(replace(
        config, arrivals=config.arrivals.with_rate(rate)))
    report = result.slo_report
    assert report is not None  # find_knee requires an SLO
    steady = report.spec.steady_rows(result.rows)
    p95 = max((row.p95_ms for row in steady), default=0.0)
    probe = KneeProbe(
        rate=rate, clean=report.clean,
        completions=result.aggregator.total_completions,
        errors=result.aggregator.total_errors,
        p95_ms=p95,
        violation_windows=len({v.window for v in report.violations}),
    )
    return probe, result


def find_knee(config: LoadConfig, *, low: float = 1.0,
              high: float = 200.0, rel_tol: float = 0.1,
              max_probes: int = 12) -> KneeResult:
    """Bisect [low, high] for the highest SLO-clean arrival rate.

    ``config.slo`` must be set; ``config.arrivals`` supplies the process
    shape and seed while its rate is overridden per probe.  The bracket
    endpoints are probed first: an unclean ``low`` means the service
    cannot meet the SLO anywhere in the bracket (``knee_rate=None``); a
    clean ``high`` means the knee lies at or beyond ``high`` (returned
    as the knee, ``converged=False``).  Otherwise bisection narrows the
    clean/unclean bracket until ``high - low <= rel_tol * high``.
    """
    if config.slo is None:
        raise ValueError("find_knee requires a LoadConfig with an SLO")
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    if rel_tol <= 0 or max_probes < 2:
        raise ValueError("rel_tol must be > 0 and max_probes >= 2")

    result = KneeResult(knee_rate=None, converged=False,
                        low=low, high=high, rel_tol=rel_tol)

    probe, _ = _probe(config, low)
    result.probes.append(probe)
    if not probe.clean:
        result.converged = True  # answer is definitive: no clean rate
        return result

    probe, _ = _probe(config, high)
    result.probes.append(probe)
    if probe.clean:
        result.knee_rate = high  # knee is at or beyond the bracket top
        return result

    lo, hi = low, high  # invariant: lo clean, hi unclean
    while len(result.probes) < max_probes and (hi - lo) > rel_tol * hi:
        mid = (lo + hi) / 2.0
        probe, _ = _probe(config, mid)
        result.probes.append(probe)
        if probe.clean:
            lo = mid
        else:
            hi = mid
    result.knee_rate = lo
    result.converged = (hi - lo) <= rel_tol * hi
    return result
