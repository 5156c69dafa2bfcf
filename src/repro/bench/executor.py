"""Sweep execution: the one place a ``label@workers`` cell is run.

Every figure in the paper is a sweep over independent worker counts, and
every cell of that sweep (one ``label@workers`` benchmark run) builds its
own seeded :class:`~repro.simkit.environment.Environment` and storage
account from scratch.  Cells therefore share *nothing* at runtime — the
only coupling is the deterministic seed each cell derives from the scale
— so a campaign can fan its cells out over a
:class:`concurrent.futures.ProcessPoolExecutor` and merge the results in
serial order without moving a single simulated number: a parallel run is
bit-identical to the serial one, cell for cell (pinned by
``tests/bench/test_parallel_equivalence.py``).

:meth:`SweepExecutor.run_sweeps` is the only cell path — serial or
fanned out, it looks a cell up in the checkpoint, builds its
:class:`~repro.core.runner.RunConfig`, runs it and stores it.  A cell
travels to a pool worker as plain picklable data — ``(scale, label,
RunConfig)`` — and its role bodies are rebuilt there through
:func:`repro.bench.figures.build_body_factory`, so no closures cross the
process boundary.  Checkpointed cells are resolved in the parent before
anything is submitted (the checkpoint file never travels either), and
each finished cell is persisted the moment it completes.

:func:`run_chaos_matrix` applies the same fan-out to the chaos harness's
seed matrices: one seeded :func:`~repro.chaos.runner.run_chaos` per
process, verdicts merged in seed order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import replace
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..core.metrics import BenchResult
from ..core.runner import RunConfig, run_bench

__all__ = ["SweepExecutor", "default_jobs", "run_chaos_matrix"]


def default_jobs() -> int:
    """A sensible ``--jobs`` default: every core the scheduler grants us."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_cell(scale, label: str, config: RunConfig) -> BenchResult:
    """Run one sweep cell, in this process or in a pool worker.

    The cell re-seeds its own fresh environment from ``config.seed``, so
    the result is bit-identical no matter which process (or how many
    siblings) ran it.
    """
    from .figures import build_body_factory

    return run_bench(build_body_factory(scale, label), config)


def _each(jobs: int, fn: Callable, calls: List[tuple]) -> Iterator[tuple]:
    """Yield ``(args, fn(*args))`` for every call: one after another in
    this process, or — ``jobs`` > 1 and more than one call — from a
    process pool, in completion order."""
    if jobs <= 1 or len(calls) <= 1:
        for args in calls:
            yield args, fn(*args)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
        futures = {pool.submit(fn, *args): args for args in calls}
        for future in as_completed(futures):
            yield futures[future], future.result()


class SweepExecutor:
    """Runs sweep cells, fanned out over ``jobs`` worker processes.

    The executor owns the cell loop only; what a cell *is* lives in
    :mod:`repro.bench.figures` (the sweep registry) and what it *means*
    in :mod:`repro.core.runner`.  Results come back as
    ``{label: {workers: BenchResult}}``, labels as given, worker counts
    as the scale orders them, whatever finished first.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def run_sweeps(self, scale, labels: Sequence[str], *,
                   backend: object = "sim", checkpoint=None,
                   trace: bool = False,
                   instrument: Optional[Callable] = None,
                   arrivals: Optional[object] = None,
                   ) -> Dict[str, Dict[int, BenchResult]]:
        """Run every cell of ``labels`` x ``scale.worker_counts``.

        ``backend``, ``trace``, ``instrument`` and ``arrivals`` are the
        per-run :class:`RunConfig` fields of every cell.  Checkpoint hits
        load in the parent and never run; misses land in the checkpoint
        as they complete.  Cells cross a process boundary only when
        ``jobs`` > 1 *and* nothing the caller needs back lives in this
        process: a tracer or an instrument hook holds live objects
        (tracers, fault plans, audit state), and a backend *instance*
        may carry unpicklable state, so those run here, in serial order.
        """
        base = RunConfig(seed=scale.seed, backend=backend, trace=trace,
                         instrument=instrument, arrivals=arrivals)
        results: Dict[str, BenchResult] = {}
        pending: List[tuple] = []
        for label in labels:
            for workers in scale.worker_counts:
                config = replace(base, workers=workers,
                                 label=f"{label}@{workers}")
                cached = (checkpoint.get(config.label)
                          if checkpoint is not None else None)
                if cached is not None:
                    results[config.label] = cached
                else:
                    pending.append((scale, label, config))

        portable = (isinstance(backend, str) and not trace
                    and instrument is None)
        for (_, _, config), result in _each(
                self.jobs if portable else 1, _run_cell, pending):
            if checkpoint is not None:
                checkpoint.put(config.label, result)
            results[config.label] = result

        return {
            label: {workers: results[f"{label}@{workers}"]
                    for workers in scale.worker_counts}
            for label in labels
        }


def run_chaos_matrix(figure: str, profile: str, seeds: Sequence[int], *,
                     jobs: Optional[int] = None, retry_budget: int = 64,
                     splice: bool = False) -> Dict[int, object]:
    """Run one chaos workload across a seed matrix, optionally in parallel.

    Returns ``{seed: ChaosVerdict}`` in the order seeds were given.
    Each seed is fully independent (its own schedule, environment, and
    account), so the fan-out cannot change any verdict — a parallel
    matrix equals running ``repro chaos --seed s`` once per seed.
    """
    from ..chaos import run_chaos

    # Only the verdict crosses back from a pool worker.
    run = partial(run_chaos, retry_budget=retry_budget, splice=splice)
    seeds = list(seeds)
    verdicts = {args[2]: verdict for args, verdict in _each(
        jobs or 1, run, [(figure, profile, seed) for seed in seeds])}
    return {seed: verdicts[seed] for seed in seeds}
