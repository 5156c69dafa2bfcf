"""Reporting and figure-regeneration layer of the reproduction."""

from .compare import ComparisonRow, compare_to_paper, comparison_table
from .executor import SweepExecutor, default_jobs, run_chaos_matrix
from .figures import (
    BenchScale,
    FigureRunner,
    PAPER_SCALE,
    QUICK_SCALE,
    SWEEP_BUILDERS,
    active_scale,
    build_body_factory,
    figure_table1,
)
from .paper import CLAIMS, Claim, PAPER_ANCHORS, PaperAnchor, qualitative_claims
from .reportgen import generate_report
from .report import FigureData, Series, format_table

__all__ = [
    "BenchScale",
    "FigureRunner",
    "QUICK_SCALE",
    "PAPER_SCALE",
    "SWEEP_BUILDERS",
    "SweepExecutor",
    "active_scale",
    "build_body_factory",
    "default_jobs",
    "run_chaos_matrix",
    "figure_table1",
    "FigureData",
    "Series",
    "format_table",
    "CLAIMS",
    "Claim",
    "PAPER_ANCHORS",
    "PaperAnchor",
    "qualitative_claims",
    "ComparisonRow",
    "compare_to_paper",
    "comparison_table",
    "generate_report",
]
