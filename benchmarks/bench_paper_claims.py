"""Table I and Figures 4-9: regenerated, printed, and held to the claims table.

What each figure must show — sentence, measured quantity, band, the worker
count from which the saturation form applies — is stated once, in
``repro.bench.paper.CLAIMS`` (``python -m repro claims``).  This file states
no finding: it regenerates each figure under the benchmark timer, prints its
series, and requires every row of the table about it to hold (a row this
scale cannot evaluate is n/a, with its reason, and does not fail).
"""

from __future__ import annotations

import dataclasses

import pytest
from conftest import emit

from repro.bench import (
    CLAIMS,
    FigureRunner,
    QUICK_SCALE,
    compare_to_paper,
    comparison_table,
    figure_table1,
)
from repro.bench.compare import evaluate


@pytest.mark.parametrize("figure", ["Table I"] + [f"Fig {n}" for n in "456789"])
def test_figure_and_its_claims(benchmark, runner, figure):
    def regenerate():
        if figure == "Table I":
            return [figure_table1()]
        return runner.panels(figure[-1])

    for panel in benchmark.pedantic(regenerate, rounds=1, iterations=1):
        emit(panel)
    rows = [evaluate(c, runner) for c in CLAIMS if c.where.endswith(figure)]
    assert rows and all(row.holds for row in rows), comparison_table(rows)


@pytest.mark.parametrize("seed", (1, 7))
def test_claims_are_not_calibration_luck(request, seed):
    """The whole table at quick scale under two more seeds than the session
    runner's 2012: a claim that holds at one seed is luck, not a finding."""
    scale = dataclasses.replace(QUICK_SCALE, seed=seed)
    runner = FigureRunner(scale, jobs=request.config.getoption("--jobs"))
    rows = compare_to_paper(runner)
    assert all(row.holds for row in rows), comparison_table(rows)
