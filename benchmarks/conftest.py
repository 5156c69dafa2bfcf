"""Shared fixtures for the figure-regeneration benchmarks.

Run with::

    pytest benchmarks/ --benchmark-only            # quick scale
    pytest benchmarks/ --benchmark-only --jobs 4   # parallel sweeps
    AZUREBENCH_FULL=1 pytest benchmarks/ --benchmark-only   # paper scale

``bench_paper_claims.py`` regenerates every table/figure of the paper,
prints the series (use ``-s`` to see them mid-run; they also land in the
captured output), and holds each to its rows of the claims table
(``repro.bench.paper.CLAIMS``); the other benches are ablations beyond the
paper's figures.  ``--jobs`` fans the sweeps behind the figures over a
process pool; the numbers are byte-identical to a serial run
(docs/performance.md), only faster.
"""

from __future__ import annotations

import pytest

from repro.bench import FigureRunner, active_scale


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=None, metavar="N",
        help="fan sweep cells over N worker processes (default: serial)")


@pytest.fixture(scope="session")
def runner(request) -> FigureRunner:
    """One FigureRunner per session so figures share cached sweeps."""
    return FigureRunner(active_scale(),
                        jobs=request.config.getoption("--jobs"))


def emit(fig) -> None:
    """Print one figure's series table (shown with pytest -s)."""
    print()
    print(fig.to_text())
