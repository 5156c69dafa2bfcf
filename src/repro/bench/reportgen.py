"""One-shot reproduction report: figures + audit + scalability analysis.

``python -m repro report`` (or :func:`generate_report`) runs the sweeps at
the requested scale and produces a single text document: every figure as a
table and an ASCII chart, the paper-vs-measured audit, and derived analysis
(saturation points, knees, USL contention fits).
"""

from __future__ import annotations

import io
from typing import Optional

from ..analysis import ascii_chart, fit_usl, knee_point, saturation_point
from ..core import (
    OP_UPDATE,
    PHASE_BLOCK_UPLOAD,
    PHASE_PAGE_UPLOAD,
    table_phase_name,
)
from ..storage import KB
from .compare import compare_to_paper, comparison_table
from .figures import BenchScale, FigureRunner

__all__ = ["generate_report"]


def generate_report(runner: Optional[FigureRunner] = None, *,
                    scale: Optional[BenchScale] = None,
                    charts: bool = True) -> str:
    """Build the full reproduction report as a string."""
    if runner is None:
        runner = FigureRunner(scale)
    out = io.StringIO()
    w = out.write

    w("=" * 72 + "\n")
    w("AzureBench reproduction report\n")
    w(f"scale: {runner.scale.name} "
      f"(workers {list(runner.scale.worker_counts)})\n")
    w("=" * 72 + "\n\n")

    # -- figures -------------------------------------------------------------
    for fig in runner.all_figures():
        w(fig.to_text() + "\n")
        if charts and len(fig.x_values) >= 2 and fig.series and \
                not isinstance(fig.x_values[0], str):
            w("\n" + ascii_chart(fig, width=56, height=10) + "\n")
        w("\n")

    # -- audit ---------------------------------------------------------------
    w("-" * 72 + "\n")
    w("Paper-vs-measured audit\n")
    w("-" * 72 + "\n")
    w(comparison_table(compare_to_paper(runner)) + "\n\n")

    # -- analysis --------------------------------------------------------
    w("-" * 72 + "\n")
    w("Scalability analysis\n")
    w("-" * 72 + "\n")
    workers = list(runner.scale.worker_counts)
    blob = runner.blob_sweep()
    for label, phase in (("page upload", PHASE_PAGE_UPLOAD),
                         ("block upload", PHASE_BLOCK_UPLOAD)):
        thr = [blob[n].phase(phase).throughput_mb_per_s for n in workers]
        sat = saturation_point(workers, thr)
        try:
            fit = fit_usl(workers, thr)
            w(f"{label:14s}: saturates at ~{sat or '>' + str(workers[-1])} "
              f"workers; USL alpha={fit.alpha:.3f} beta={fit.beta:.5f} "
              f"(peak ~{fit.peak_workers:.0f} workers)\n")
        except Exception as exc:  # pragma: no cover - diagnostic path
            w(f"{label:14s}: USL fit failed ({exc})\n")

    table = runner.table_sweep()
    for size in runner.scale.table_entity_sizes:
        times = [table[n].phase(
            table_phase_name(OP_UPDATE, size)).mean_worker_time
            for n in workers]
        knee = knee_point(workers, times)
        w(f"table update {size // KB:3d} KB: knee at "
          f"{knee if knee is not None else 'beyond ' + str(workers[-1])} "
          f"workers\n")

    return out.getvalue()
