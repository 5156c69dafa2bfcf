"""The chaos verdict: what ran, what was injected, what was violated."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from .invariants import Violation

__all__ = ["ChaosRunError", "ChaosVerdict"]


@dataclass
class ChaosVerdict:
    """Outcome of one chaos conformance run (CLI- and JSON-friendly)."""

    workload: str
    profile: str
    seed: int
    #: Per-run labels, e.g. ``queue_sep/w2``.
    runs: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    #: Evidence sizes: audited ops, spans, injected faults, crashes, ...
    counts: Dict[str, int] = field(default_factory=dict)
    #: Schedule echoes (one per run) for reproduction.
    schedules: List[Dict] = field(default_factory=list)
    #: Geo-replication evidence (GeoAccount.describe()); empty when the
    #: workload ran single-region.
    geo: Dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        doc = {
            "workload": self.workload,
            "profile": self.profile,
            "seed": self.seed,
            "passed": self.passed,
            "runs": list(self.runs),
            "violations": [v.to_dict() for v in self.violations],
            "counts": dict(self.counts),
            "schedules": list(self.schedules),
        }
        if self.geo:
            doc["geo"] = dict(self.geo)
        return doc

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.violations)})"
        return (f"chaos {self.workload} profile={self.profile} "
                f"seed={self.seed}: {state}")


class ChaosRunError(RuntimeError):
    """A chaos run crashed mid-campaign.

    Carries the **partial** :class:`ChaosVerdict` accumulated up to the
    crash — with the crash itself appended as a ``harness`` violation —
    so the CLI can still write the verdict JSON artifact before exiting
    nonzero (CI captures *what* failed, not just that something did).
    """

    def __init__(self, message: str, verdict: ChaosVerdict) -> None:
        super().__init__(message)
        self.verdict = verdict
