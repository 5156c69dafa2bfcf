"""Measurement containers for AzureBench runs.

The paper reports, per benchmark phase (e.g. "Page blob upload" or "Get
Message, 16 KB"):

* the **time** taken (per-worker, excluding synchronization), and
* the **throughput** (total payload moved / phase wall time).

:class:`PhaseRecorder` collects per-worker phase timings inside a role body;
:class:`BenchResult` aggregates recorders across workers into those two
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..storage.limits import MB

__all__ = ["PhaseRecord", "PhaseRecorder", "PhaseStats", "BenchResult",
           "set_phase_hook"]

#: Optional observer of phase lifecycle events, ``hook(event, name)`` with
#: ``event`` in {"start", "stop", "span"}.  The tracing layer
#: (:mod:`repro.observability`) points this at ``Tracer.on_phase`` for the
#: duration of a traced run so spans can be attributed to benchmark
#: phases; None (the default) costs one global read per phase boundary.
_PHASE_HOOK: Optional[Callable[[str, str], None]] = None


def set_phase_hook(hook: Optional[Callable[[str, str], None]]) -> None:
    """Install (or clear, with ``None``) the phase lifecycle observer."""
    global _PHASE_HOOK
    _PHASE_HOOK = hook


@dataclass
class PhaseRecord:
    """One worker's timing of one benchmark phase."""

    name: str
    worker_id: int
    start: float
    end: float
    ops: int = 0
    nbytes: int = 0
    retries: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class PhaseRecorder:
    """Collects phase timings inside one worker role body. ::

        rec = PhaseRecorder(ctx.env, ctx.role_id)
        rec.start("page_upload")
        ... storage ops, counting via rec.add_op(nbytes) ...
        rec.stop()
    """

    def __init__(self, env, worker_id: int) -> None:
        self.env = env
        self.worker_id = worker_id
        self.records: List[PhaseRecord] = []
        self._open: Optional[PhaseRecord] = None

    def start(self, name: str) -> None:
        if self._open is not None:
            raise RuntimeError(
                f"phase {self._open.name!r} still open; stop it first"
            )
        self._open = PhaseRecord(
            name=name, worker_id=self.worker_id,
            start=self.env.now, end=self.env.now,
        )
        if _PHASE_HOOK is not None:
            _PHASE_HOOK("start", name)

    def add_op(self, nbytes: int = 0, ops: int = 1) -> None:
        if self._open is None:
            raise RuntimeError("no phase open")
        self._open.ops += ops
        self._open.nbytes += nbytes

    def add_retry(self) -> None:
        if self._open is None:
            raise RuntimeError("no phase open")
        self._open.retries += 1

    def stop(self) -> PhaseRecord:
        if self._open is None:
            raise RuntimeError("no phase open")
        self._open.end = self.env.now
        record, self._open = self._open, None
        self.records.append(record)
        if _PHASE_HOOK is not None:
            _PHASE_HOOK("stop", record.name)
        return record

    def record_span(self, name: str, duration: float, *, ops: int = 0,
                    nbytes: int = 0, retries: int = 0) -> PhaseRecord:
        """Record a pre-measured span ending now (for accumulated timings,
        e.g. Algorithm 4's communication-time-only measurements)."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        end = self.env.now
        record = PhaseRecord(name=name, worker_id=self.worker_id,
                             start=end - duration, end=end, ops=ops,
                             nbytes=nbytes, retries=retries)
        self.records.append(record)
        if _PHASE_HOOK is not None:
            # Post-hoc phases never had a live window; observers that need
            # one (span attribution) ignore this event kind.
            _PHASE_HOOK("span", name)
        return record


@dataclass
class PhaseStats:
    """Aggregate of one phase across all workers."""

    name: str
    workers: int
    #: max(end) - min(start): the parallel duration of the phase.
    wall_time: float
    #: Mean of per-worker durations (what the paper's time plots show).
    mean_worker_time: float
    max_worker_time: float
    total_ops: int
    total_bytes: int
    total_retries: int

    @property
    def throughput_bytes_per_s(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.total_bytes / self.wall_time

    @property
    def throughput_mb_per_s(self) -> float:
        return self.throughput_bytes_per_s / MB

    @property
    def ops_per_s(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.total_ops / self.wall_time

    @property
    def mean_op_time(self) -> float:
        """Per-operation time: total worker time / total operations.

        Matches the paper's Fig 9 definition: "the division of total time
        taken by all the worker roles to finish that operation, and the
        number of workers" (normalized per operation here).
        """
        if self.total_ops == 0:
            return 0.0
        return self.mean_worker_time * self.workers / self.total_ops


class BenchResult:
    """All phase timings of one benchmark run at one worker count."""

    def __init__(self, workers: int, recorders: Sequence[PhaseRecorder],
                 *, label: str = "", trace=None) -> None:
        self.workers = workers
        self.label = label
        #: The run's :class:`repro.observability.Tracer` when tracing was
        #: enabled (``RunConfig.trace``), else None.
        self.trace = trace
        self.records: List[PhaseRecord] = []
        for recorder in recorders:
            self.records.extend(recorder.records)
        self._by_phase: Dict[str, List[PhaseRecord]] = {}
        for record in self.records:
            self._by_phase.setdefault(record.name, []).append(record)

    @classmethod
    def from_records(cls, workers: int, records: Sequence[PhaseRecord],
                     *, label: str = "") -> "BenchResult":
        """Rebuild a result from flat phase records (checkpoint restore).

        The live ``trace`` object is not reconstructible from records, so
        restored results carry ``trace=None``.
        """
        result = cls(workers, (), label=label)
        result.records = list(records)
        for record in result.records:
            result._by_phase.setdefault(record.name, []).append(record)
        return result

    def phase_names(self) -> List[str]:
        return list(self._by_phase)

    def has_phase(self, name: str) -> bool:
        return name in self._by_phase

    def phase(self, name: str) -> PhaseStats:
        """Aggregate one phase across workers *and repeats*.

        A benchmark repeat produces one record per worker per phase, so the
        k-th record a worker holds for a phase belongs to repeat k.  Wall
        time is summed per repeat (``max end - min start`` within the
        repeat); a single max-min over all records would silently include
        the other phases and barrier waits between repeats.
        """
        try:
            records = self._by_phase[name]
        except KeyError:
            raise KeyError(
                f"phase {name!r} not recorded; have {sorted(self._by_phase)}"
            ) from None
        # Group into repeats by per-worker occurrence order.
        rounds: Dict[int, List[PhaseRecord]] = {}
        seen: Dict[int, int] = {}
        for record in records:
            k = seen.get(record.worker_id, 0)
            seen[record.worker_id] = k + 1
            rounds.setdefault(k, []).append(record)
        wall_time = sum(
            max(r.end for r in batch) - min(r.start for r in batch)
            for batch in rounds.values()
        )
        # Per-worker time: total across repeats.
        per_worker: Dict[int, float] = {}
        for record in records:
            per_worker[record.worker_id] = (
                per_worker.get(record.worker_id, 0.0) + record.duration)
        worker_times = list(per_worker.values())
        return PhaseStats(
            name=name,
            workers=self.workers,
            wall_time=wall_time,
            mean_worker_time=sum(worker_times) / len(worker_times),
            max_worker_time=max(worker_times),
            total_ops=sum(r.ops for r in records),
            total_bytes=sum(r.nbytes for r in records),
            total_retries=sum(r.retries for r in records),
        )

    def all_stats(self) -> Dict[str, PhaseStats]:
        return {name: self.phase(name) for name in self._by_phase}
