"""Paper-vs-measured comparison: the claims table, evaluated.

Turns a :class:`~repro.bench.figures.FigureRunner`'s campaign into one
:class:`ComparisonRow` per row of :data:`repro.bench.paper.CLAIMS`: the
measured value, its margin against the claim's band, and whether the claim
holds or why this scale cannot evaluate it.  No finding is stated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .figures import FigureRunner
from .paper import CLAIMS, Claim, Figures, INF
from .report import format_table

__all__ = ["ComparisonRow", "compare_to_paper", "comparison_table", "evaluate"]


@dataclass
class ComparisonRow:
    """One paper-vs-measured line."""

    key: str
    description: str
    paper_value: Optional[float]
    measured: float
    unit: str
    holds: bool  # False only for a claim that was evaluated and failed
    note: str = ""  # why not, for a claim the scale cannot evaluate
    #: How far inside its band the measurement is (``>= 1`` holds); ``None``
    #: for a claim that was not evaluated.
    margin: Optional[float] = None

    @property
    def ratio(self) -> Optional[float]:
        if self.paper_value in (None, 0) or self.margin is None:
            return None
        return self.measured / self.paper_value


def _margin(quantity: float, band) -> float:
    lo, hi = band
    return min(quantity / lo if lo else INF, hi / quantity if quantity else INF)


def evaluate(claim: Claim, runner: FigureRunner) -> ComparisonRow:
    """One claim against ``runner``'s campaign (runs only the sweeps behind
    the figures the claim reads)."""
    top = runner.scale.worker_counts[-1]
    saturated = claim.strict is not None and top >= claim.strict_from
    why = claim.unmet(runner.scale)
    if not why and claim.holds is None and not saturated:
        why = f"needs a sweep reaching {claim.strict_from} workers, top is {top}"
    if why:
        return ComparisonRow(claim.id, claim.text, claim.paper_value,
                             float("nan"), claim.unit, True, why)
    got = claim.measure(Figures(runner))
    printed, *quantities = got if isinstance(got, tuple) else (got, got)
    margins = [_margin(quantities[0], claim.holds)] if claim.holds else []
    if saturated:
        margins.append(_margin(quantities[-1], claim.strict))
    margin = min(margins)
    return ComparisonRow(claim.id, claim.text, claim.paper_value, printed,
                         claim.unit, margin >= 1, margin=margin)


def compare_to_paper(runner: FigureRunner) -> List[ComparisonRow]:
    """Evaluate every row of the claims table against the runner's sweeps
    (the scale rule — which form applies from how many workers — is the
    table's: ``Claim.strict_from``)."""
    return [evaluate(claim, runner) for claim in CLAIMS]


def comparison_table(rows: List[ComparisonRow]) -> str:
    """Render comparison rows as an aligned text table, the reasons of the
    n/a rows and the "H hold, K n/a of T" verdict line."""
    out = [["claim / anchor", "paper", "measured", "ratio", "margin", "holds"]]
    skipped = [row for row in rows if row.margin is None]
    for row in rows:
        evaluated = row.margin is not None
        out.append([
            row.key,
            f"{row.paper_value:g} {row.unit}" if row.paper_value is not None
            else "(shape)",
            f"{row.measured:.3g} {row.unit}" if evaluated else "-",
            f"{row.ratio:.2f}" if row.ratio is not None else "-",
            f"{row.margin:.2f}" if evaluated else "-",
            "n/a" if not evaluated else "yes" if row.holds else "NO",
        ])
    held = sum(row.holds for row in rows) - len(skipped)
    return "\n".join(
        [format_table(out), ""]
        + [f"  n/a {row.key}: {row.note}" for row in skipped]
        + [f"{held} checks hold, {len(skipped)} n/a of {len(rows)}."])
