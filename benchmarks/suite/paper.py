"""``paper-figs``: the paper's own closed-loop campaign on the DES.

One repeat is ``SweepExecutor(1).run_sweeps`` over every cell of the four
sweep labels behind Figures 4-9 (Algorithms 1-5: blob chunks, a queue barrier with
per-worker shallow queues, one contended shared queue with think time,
table CRUD) on the default heap scheduler.  The scale is owned here, so
retuning the library's ``QUICK_SCALE`` cannot change the benchmark: it
is that scale's shape at ``worker_counts=(1, 8, 32)`` with the queue,
shared-queue and table totals cut to a tenth so that a run fits several
campaigns.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List

LABELS = ("fig4/5", "fig6", "fig7", "fig8")
KB = 1024


def bench_scale(seed: int):
    from repro.bench.figures import BenchScale

    return BenchScale(
        name="suite",
        worker_counts=(1, 8, 32),
        blob_total_chunks=64,
        blob_repeats=1,
        queue_total_messages=200,
        queue_message_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
        shared_total_transactions=200,
        shared_think_times=(1.0, 3.0, 5.0),
        table_entity_count=10,
        table_entity_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
        seed=seed,
    )


def setup(seed: int) -> None:
    """Import the campaign machinery and build the scale."""
    from repro.bench.executor import SweepExecutor

    SweepExecutor(1)
    bench_scale(seed)


def records_digest(sweeps) -> str:
    """SHA-256 over every phase record of every cell, in sweep order.

    The figure CSVs are roundings of these records, so equal digests
    imply byte-identical CSVs, and a drift the rounding would hide still
    shows here.
    """
    h = hashlib.sha256()
    for label, by_workers in sweeps.items():
        for workers, result in by_workers.items():
            for r in result.records:
                h.update(f"{label},{workers},{r.name},{r.worker_id},"
                         f"{r.start!r},{r.end!r},{r.ops},{r.nbytes},"
                         f"{r.retries}\n".encode())
    return h.hexdigest()


def run_once(seed: int,
             worked: Callable[[float], None] = lambda seconds: None
             ) -> Dict[str, object]:
    """One campaign, timed cell by cell.

    Cells share nothing (each re-seeds its own environment from the
    scale), so sweeping a one-worker-count scale per cell runs exactly
    what one ``run_sweeps`` call over all of them runs; timing them
    apart gives the traced run its per-figure times and lets the timed
    run's :class:`reference.Pace` (``worked``) take its slices between
    cells rather than once in three seconds.
    """
    from dataclasses import replace

    from repro.bench.executor import SweepExecutor

    scale = bench_scale(seed)
    executor = SweepExecutor(1)
    sweeps: Dict[str, Dict[int, object]] = {label: {} for label in LABELS}
    parts: List[float] = []
    for label in LABELS:
        for workers in scale.worker_counts:
            cell_scale = replace(scale, worker_counts=(workers,))
            start = time.perf_counter()
            cell = executor.run_sweeps(cell_scale, [label], backend="sim")
            parts.append(time.perf_counter() - start)
            worked(parts[-1])
            sweeps[label][workers] = cell[label][workers]
    records = [r for by_workers in sweeps.values()
               for result in by_workers.values() for r in result.records]
    return {
        "wall_s": sum(parts),
        "parts": parts,
        "attempted": sum(r.ops for r in records),
        "refused": sum(r.retries for r in records),
        "digest": records_digest(sweeps),
    }
