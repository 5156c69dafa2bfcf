"""Regeneration harness for every table and figure in the paper.

:class:`FigureRunner` runs the AzureBench sweeps on the simulated fabric and
shapes the results into :class:`~repro.bench.report.FigureData` matching the
paper's plots:

* Table I — VM configurations,
* Fig 4   — Blob storage throughput & time (upload + whole-blob download),
* Fig 5   — Blob download one page/block at a time,
* Fig 6   — Queue benchmarks, separate queue per worker (Put/Peek/Get),
* Fig 7   — Queue benchmarks, single shared queue (think times),
* Fig 8   — Table storage (Insert/Query/Update/Delete),
* Fig 9   — Per-operation time, Queue vs Table.

Sweep results are cached per scale so figures sharing a run (4 & 5; 6 & 9;
8 & 9) do not recompute it.  ``QUICK_SCALE`` keeps the full suite fast for
CI; ``PAPER_SCALE`` uses the paper's parameters (AZUREBENCH_FULL=1).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..compute import TABLE_I
from ..core import (
    OP_DELETE,
    OP_GET,
    OP_INSERT,
    OP_PEEK,
    OP_PUT,
    OP_QUERY,
    OP_UPDATE,
    PHASE_BLOCK_FULL_DOWNLOAD,
    PHASE_BLOCK_SEQ_DOWNLOAD,
    PHASE_BLOCK_UPLOAD,
    PHASE_PAGE_FULL_DOWNLOAD,
    PHASE_PAGE_RANDOM_DOWNLOAD,
    PHASE_PAGE_UPLOAD,
    BenchResult,
    BlobBenchConfig,
    SeparateQueueBenchConfig,
    SharedQueueBenchConfig,
    TableBenchConfig,
    blob_bench_body,
    phase_name,
    separate_queue_bench_body,
    shared_phase_name,
    shared_queue_bench_body,
    table_bench_body,
    table_phase_name,
)
from ..storage import KB, MB
from .executor import SweepExecutor
from .report import FigureData, format_table

__all__ = [
    "BenchScale",
    "MINI_SCALE",
    "QUICK_SCALE",
    "PAPER_SCALE",
    "SWEEP_BUILDERS",
    "active_scale",
    "build_body_factory",
    "FigureRunner",
    "figure_table1",
]


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes of one benchmarking campaign."""

    name: str
    worker_counts: Tuple[int, ...]
    blob_total_chunks: int
    blob_repeats: int
    queue_total_messages: int
    queue_message_sizes: Tuple[int, ...]
    shared_total_transactions: int
    shared_think_times: Tuple[float, ...]
    table_entity_count: int
    table_entity_sizes: Tuple[int, ...]
    seed: int = 2012


#: Fast scale: full sweep in well under a minute.
QUICK_SCALE = BenchScale(
    name="quick",
    worker_counts=(1, 2, 4, 8, 16, 32),
    blob_total_chunks=64,
    blob_repeats=1,
    queue_total_messages=2_000,
    queue_message_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
    shared_total_transactions=2_000,
    shared_think_times=(1.0, 3.0, 5.0),
    table_entity_count=100,
    table_entity_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
)

#: Minimal scale for unit tests (e.g. serial-vs-parallel equivalence):
#: every sweep still exercises each figure's phases, but the full label
#: matrix runs in a couple of seconds.
MINI_SCALE = BenchScale(
    name="mini",
    worker_counts=(1, 2),
    blob_total_chunks=4,
    blob_repeats=1,
    queue_total_messages=24,
    queue_message_sizes=(4 * KB,),
    shared_total_transactions=24,
    shared_think_times=(1.0,),
    table_entity_count=6,
    table_entity_sizes=(4 * KB,),
)

#: The paper's parameters (Section IV): 100 MB blobs x 10 repeats, 20,000
#: queue messages, 500 entities, up to 96 workers.
PAPER_SCALE = BenchScale(
    name="paper",
    worker_counts=(1, 2, 4, 8, 16, 32, 48, 64, 80, 96),
    blob_total_chunks=100,
    blob_repeats=10,
    queue_total_messages=20_000,
    queue_message_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
    shared_total_transactions=20_000,
    shared_think_times=(1.0, 2.0, 3.0, 4.0, 5.0),
    table_entity_count=500,
    table_entity_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
)


def active_scale() -> BenchScale:
    """``PAPER_SCALE`` when AZUREBENCH_FULL=1, else ``QUICK_SCALE``."""
    return PAPER_SCALE if os.environ.get("AZUREBENCH_FULL") == "1" else QUICK_SCALE


# -- sweep registry ----------------------------------------------------------
# One entry per worker-count sweep behind the figures.  Builders are
# module-level functions of the scale so a sweep cell can be described by
# plain picklable data (scale, label, RunConfig) and reconstructed inside
# a process-pool worker (:mod:`repro.bench.executor`).

def _blob_bodies(scale: BenchScale) -> Callable[[], Callable]:
    cfg = BlobBenchConfig(
        total_chunks=scale.blob_total_chunks,
        repeats=scale.blob_repeats,
        seed=scale.seed,
    )
    return lambda: blob_bench_body(cfg)


def _queue_separate_bodies(scale: BenchScale) -> Callable[[], Callable]:
    cfg = SeparateQueueBenchConfig(
        total_messages=scale.queue_total_messages,
        message_sizes=scale.queue_message_sizes,
        seed=scale.seed,
    )
    return lambda: separate_queue_bench_body(cfg)


def _queue_shared_bodies(scale: BenchScale) -> Callable[[], Callable]:
    cfg = SharedQueueBenchConfig(
        total_transactions=scale.shared_total_transactions,
        think_times=scale.shared_think_times,
        seed=scale.seed,
    )
    return lambda: shared_queue_bench_body(cfg)


def _table_bodies(scale: BenchScale) -> Callable[[], Callable]:
    cfg = TableBenchConfig(
        entity_count=scale.table_entity_count,
        entity_sizes=scale.table_entity_sizes,
        seed=scale.seed,
    )
    return lambda: table_bench_body(cfg)


#: Sweep label -> builder, in the serial execution order of ``all``.
SWEEP_BUILDERS: Dict[str, Callable[[BenchScale], Callable[[], Callable]]] = {
    "fig4/5": _blob_bodies,
    "fig6": _queue_separate_bodies,
    "fig7": _queue_shared_bodies,
    "fig8": _table_bodies,
}


def build_body_factory(scale: BenchScale, label: str) -> Callable[[], Callable]:
    """Zero-arg factory of fresh role bodies for one sweep label."""
    try:
        builder = SWEEP_BUILDERS[label]
    except KeyError:
        raise KeyError(
            f"unknown sweep {label!r}; choose from "
            f"{', '.join(sorted(SWEEP_BUILDERS))}") from None
    return builder(scale)


def pick_size(ladder: Tuple[int, ...], preferred: int = 32 * KB) -> int:
    """The size Fig 9 and the single-size claims read: 32 KB (the paper's
    shared-queue message size) when the ladder has it, else its middle."""
    return preferred if preferred in ladder else ladder[len(ladder) // 2]


def size_label(size: int) -> str:
    """Series name of one message/entity size in Figs 6 and 8."""
    return f"{size // KB} KB"


def think_label(think: float) -> str:
    """Series name of one think time in Fig 7 (``:g``, as the phase key:
    distinct times, distinct names)."""
    return f"think {think:g}s"


def figure_table1() -> FigureData:
    """Table I: VM configurations of Windows Azure roles."""
    fig = FigureData(
        "Table I", "Virtual machine configurations for web/worker roles",
        "VM Size", [v.name for v in TABLE_I],
    )
    fig.add("CPU Cores", [(-1.0 if v.shared_core else float(v.cpu_cores))
                          for v in TABLE_I],
            unit="cores; -1=shared")
    fig.add("Memory", [v.memory_mb / 1024 for v in TABLE_I], unit="GB")
    fig.add("Storage", [float(v.storage_gb) for v in TABLE_I], unit="GB")
    fig.notes = "Extra Small reports a shared core (-1 in the cores column)."
    return fig


class FigureRunner:
    """Runs and caches the sweeps behind Figures 4-9."""

    def __init__(self, scale: Optional[BenchScale] = None, *,
                 backend: object = "sim", trace: bool = False,
                 checkpoint: Optional[object] = None,
                 instrument: Optional[Callable] = None,
                 jobs: Optional[int] = None,
                 arrivals: Optional[object] = None) -> None:
        self.scale = scale if scale is not None else active_scale()
        #: Which backend runs the sweeps: "sim" (default, seeded DES) or
        #: "emulator" (threaded, wall-clock); see :mod:`repro.backend`.
        self.backend = backend
        #: Opt-in trace-level observability (:mod:`repro.observability`):
        #: each sweep run carries a Tracer, reachable via :meth:`traces`.
        self.trace = trace
        #: Optional run store with ``get(label)``/``put(label, result)``
        #: (e.g. :class:`repro.chaos.checkpoint.RunCheckpoint`): completed
        #: ``label@workers`` cells are persisted as they finish and loaded
        #: instead of re-run, so an interrupted campaign resumes where it
        #: stopped.  Key it by :meth:`campaign_key`.
        self.checkpoint = checkpoint
        #: Optional per-run account hook (``RunConfig.instrument``).
        self.instrument = instrument
        #: Fan independent sweep cells out over this many worker processes
        #: (:class:`repro.bench.executor.SweepExecutor`).  ``None``/``1``
        #: runs them in this process; parallel runs are cell-for-cell
        #: bit-identical to serial ones because every cell re-seeds its own
        #: fresh environment from the scale's seed either way.  Tracing and
        #: instrumented runs hold live objects that cannot cross a process
        #: boundary, so they run in this process regardless of ``jobs``.
        self.jobs = jobs
        #: Optional open-loop arrival spec
        #: (:class:`repro.traffic.ArrivalSpec`): worker starts in every
        #: sweep cell are staggered at the spec's seeded instants
        #: (``RunConfig.arrivals``).  Changes every number, so it is part
        #: of :meth:`campaign_key`; the spec is plain data and fans out
        #: with its cell.
        self.arrivals = arrivals
        #: Sweep label -> ``{workers: BenchResult}``, filled on first use.
        self._sweeps: Dict[str, Dict[int, BenchResult]] = {}

    def campaign_key(self) -> str:
        """Fingerprint of everything that shapes the sweep numbers.

        Two runners agree on a campaign key iff their checkpointed cells
        are interchangeable: same scale (sizes, worker counts, seed) and
        same backend.  Tracing does not change the numbers (the tracer
        only reads the clock), so it is deliberately not part of the key.
        """
        backend = getattr(self.backend, "name", None) or str(self.backend)
        key: Dict[str, object] = {"scale": asdict(self.scale),
                                  "backend": backend}
        if self.arrivals is not None:
            # Only when set, so pre-existing campaign keys stay stable.
            key["arrivals"] = self.arrivals.describe()
        payload = json.dumps(key, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def prefetch(self, labels: Optional[List[str]] = None) -> None:
        """Run the sweeps among ``labels`` (default: all) not yet cached.

        One :meth:`~repro.bench.executor.SweepExecutor.run_sweeps` call
        covers the *whole* remaining cell matrix (every missing sweep x
        every worker count), so a multi-figure campaign (``repro all
        --jobs N``) keeps all N workers busy across sweep boundaries
        instead of draining one sweep at a time.
        """
        missing = [label for label in labels or SWEEP_BUILDERS
                   if label not in self._sweeps]
        if missing:
            jobs = 1 if self.jobs is None else self.jobs
            self._sweeps.update(SweepExecutor(jobs).run_sweeps(
                self.scale, missing, backend=self.backend,
                checkpoint=self.checkpoint, trace=self.trace,
                instrument=self.instrument, arrivals=self.arrivals))

    def _sweep(self, label: str) -> Dict[int, BenchResult]:
        """One worker-count sweep, run on first use."""
        self.prefetch([label])
        return self._sweeps[label]

    # -- sweeps (cached) -------------------------------------------------
    def blob_sweep(self) -> Dict[int, BenchResult]:
        return self._sweep("fig4/5")

    def queue_separate_sweep(self) -> Dict[int, BenchResult]:
        return self._sweep("fig6")

    def queue_shared_sweep(self) -> Dict[int, BenchResult]:
        return self._sweep("fig7")

    def table_sweep(self) -> Dict[int, BenchResult]:
        return self._sweep("fig8")

    def traces(self) -> List[Tuple[str, int, object]]:
        """Tracers collected by the sweeps run so far, in sweep order.

        Returns ``[(label, workers, tracer), ...]`` — one entry per traced
        run (``trace=True``), e.g. ``("fig6@4", 4, <Tracer>)``.  Empty when
        tracing is off or no sweep has run yet.
        """
        out: List[Tuple[str, int, object]] = []
        for label in SWEEP_BUILDERS:
            for workers, result in self._sweeps.get(label, {}).items():
                tracer = getattr(result, "trace", None)
                if tracer is not None:
                    out.append((result.label, workers, tracer))
        return out

    # -- figures -----------------------------------------------------------
    def figure4(self) -> Tuple[FigureData, FigureData]:
        """Fig 4(a) throughput and 4(b) time of Blob storage benchmarks."""
        sweep = self.blob_sweep()
        workers = list(sweep)
        thr = FigureData("Fig 4a", "Blob storage benchmarks - throughput",
                         "workers", workers)
        tim = FigureData("Fig 4b", "Blob storage benchmarks - time",
                         "workers", workers)
        phases = [
            ("Page upload", PHASE_PAGE_UPLOAD),
            ("Block upload", PHASE_BLOCK_UPLOAD),
            ("Page download", PHASE_PAGE_FULL_DOWNLOAD),
            ("Block download", PHASE_BLOCK_FULL_DOWNLOAD),
        ]
        for label, key in phases:
            thr.add(label,
                    [sweep[w].phase(key).throughput_mb_per_s for w in workers],
                    unit="MB/s")
            tim.add(label,
                    [sweep[w].phase(key).mean_worker_time for w in workers],
                    unit="s")
        return thr, tim

    def figure5(self) -> Tuple[FigureData, FigureData]:
        """Fig 5: blob download one page/block at a time."""
        sweep = self.blob_sweep()
        workers = list(sweep)
        thr = FigureData("Fig 5a", "Chunked blob download - throughput",
                         "workers", workers)
        tim = FigureData("Fig 5b", "Chunked blob download - time",
                         "workers", workers)
        phases = [
            ("Page (random)", PHASE_PAGE_RANDOM_DOWNLOAD),
            ("Block (sequential)", PHASE_BLOCK_SEQ_DOWNLOAD),
        ]
        for label, key in phases:
            thr.add(label,
                    [sweep[w].phase(key).throughput_mb_per_s for w in workers],
                    unit="MB/s")
            tim.add(label,
                    [sweep[w].phase(key).mean_worker_time for w in workers],
                    unit="s")
        return thr, tim

    def figure6(self) -> Dict[str, FigureData]:
        """Fig 6(a-c): Put/Peek/Get time, separate queue per worker."""
        sweep = self.queue_separate_sweep()
        workers = list(sweep)
        out: Dict[str, FigureData] = {}
        for panel, op in (("Fig 6a", OP_PUT), ("Fig 6b", OP_PEEK),
                          ("Fig 6c", OP_GET)):
            fig = FigureData(
                panel, f"Queue benchmarks, separate queue per worker - "
                       f"{op.capitalize()} Message", "workers", workers)
            for size in self.scale.queue_message_sizes:
                fig.add(size_label(size),
                        [sweep[w].phase(phase_name(op, size)).mean_worker_time
                         for w in workers],
                        unit="s")
            out[panel] = fig
        return out

    def figure7(self) -> Dict[str, FigureData]:
        """Fig 7(a-c): Put/Peek/Get time on a single shared queue."""
        sweep = self.queue_shared_sweep()
        workers = list(sweep)
        out: Dict[str, FigureData] = {}
        for panel, op in (("Fig 7a", OP_PUT), ("Fig 7b", OP_PEEK),
                          ("Fig 7c", OP_GET)):
            fig = FigureData(
                panel, f"Queue benchmarks, single shared queue - "
                       f"{op.capitalize()} Message (32 KB)", "workers", workers)
            for think in self.scale.shared_think_times:
                fig.add(think_label(think),
                        [sweep[w].phase(
                            shared_phase_name(op, think)).mean_worker_time
                         for w in workers],
                        unit="s")
            out[panel] = fig
        return out

    def figure8(self) -> Dict[str, FigureData]:
        """Fig 8(a-d): Insert/Query/Update/Delete time of Table storage."""
        sweep = self.table_sweep()
        workers = list(sweep)
        out: Dict[str, FigureData] = {}
        for panel, op in (("Fig 8a", OP_INSERT), ("Fig 8b", OP_QUERY),
                          ("Fig 8c", OP_UPDATE), ("Fig 8d", OP_DELETE)):
            fig = FigureData(
                panel, f"Table storage - {op.capitalize()}",
                "workers", workers)
            for size in self.scale.table_entity_sizes:
                fig.add(size_label(size),
                        [sweep[w].phase(
                            table_phase_name(op, size)).mean_worker_time
                         for w in workers],
                        unit="s")
            out[panel] = fig
        return out

    def figure9(self, *, queue_size: Optional[int] = None,
                table_size: Optional[int] = None) -> FigureData:
        """Fig 9: per-operation time for Table and Queue services.

        "The reported time is the average time taken by an operation, i.e.
        the division of total time taken by all the worker roles to finish
        that operation, and the number of workers."
        """
        if queue_size is None:
            queue_size = pick_size(self.scale.queue_message_sizes)
        if table_size is None:
            table_size = pick_size(self.scale.table_entity_sizes)
        qsweep = self.queue_separate_sweep()
        tsweep = self.table_sweep()
        workers = list(qsweep)
        fig = FigureData(
            "Fig 9", "Per-operation time, Queue (put/peek/get) vs Table "
                     f"(insert/query/update/delete) at {size_label(queue_size)}",
            "workers", workers)
        for op in (OP_PUT, OP_PEEK, OP_GET):
            fig.add(f"queue {op}",
                    [qsweep[w].phase(
                        phase_name(op, queue_size)).mean_op_time * 1000
                     for w in workers],
                    unit="ms/op")
        for op in (OP_INSERT, OP_QUERY, OP_UPDATE, OP_DELETE):
            fig.add(f"table {op}",
                    [tsweep[w].phase(
                        table_phase_name(op, table_size)).mean_op_time * 1000
                     for w in workers],
                    unit="ms/op")
        return fig

    def panels(self, number: str) -> List[FigureData]:
        """The panels of Fig ``number`` ("4" .. "9") as a list, in order."""
        made = getattr(self, f"figure{number}")()
        if isinstance(made, FigureData):
            return [made]
        return list(made.values() if isinstance(made, dict) else made)

    def all_figures(self) -> List[FigureData]:
        """Every figure, in paper order (runs all sweeps)."""
        self.prefetch()
        return [figure_table1()] + [fig for number in "456789"
                                    for fig in self.panels(number)]
