"""Measurement helpers shared by every workload of the suite.

Nothing here imports ``repro``: percentiles, the in-memory span recorder
with its self-time arithmetic, process-level resource readings and the
host fingerprint are all plain Python, so the self-tests can exercise
them without booting anything.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: The suite's one median: mean of the middle two for even counts.
median = statistics.median

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


def load_contract() -> Dict[str, object]:
    """``BENCHMARK.json``: the one list of workload and metric names."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.  No interpolation, so a
    reported latency is always one that was actually observed."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(n: int) -> Optional[int]:
    """The highest of p99/p95/p90 that still has ten samples beyond it."""
    for q in (99, 95, 90):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None


def repeat_for(run_once: Callable[[], Dict[str, object]], seconds: float,
               min_repeats: int = 3) -> List[Dict[str, object]]:
    """Repeat a fixed-work run for ``seconds`` of wall time, at least thrice.

    The budget covers whatever ``run_once`` does, reference slices
    included.  A repeat that would overrun it is not started, so a run
    measures at most ``max(seconds, min_repeats repeats)``.
    """
    repeats: List[Dict[str, object]] = []
    begin = time.perf_counter()
    while True:
        repeats.append(run_once())
        spent = time.perf_counter() - begin
        if (len(repeats) >= min_repeats
                and spent + spent / len(repeats) > seconds):
            return repeats


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the children it starts on one
    CPU, so that the reference slices see the host state the workload
    sees and nothing measures the scheduler.  No-op where unsupported."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Spans:
    """In-memory span log: ``(name, start, end, parent, op_id)`` rows.

    Spans are appended as tuples and only turned into dicts when
    :meth:`write_jsonl` runs at exit, so recording one costs two clock
    reads and a list append.  ``parent`` is the index of the span that
    caused this one (-1 for a root); spans of one operation share
    ``op_id``.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, int, int]] = []

    def add(self, name: str, start: float, end: float,
            parent: int = -1, op_id: int = -1) -> int:
        self.rows.append((name, start, end, parent, op_id))
        return len(self.rows) - 1

    def __len__(self) -> int:
        return len(self.rows)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name.

        A span's self time is its duration minus the durations of the
        spans naming it as parent, floored at zero.  In a layer replay a
        child runs in its own pass rather than inside its parent's
        interval, so durations are subtracted, not interval overlaps;
        for properly nested spans the two agree.
        """
        child_total = [0.0] * len(self.rows)
        for _name, start, end, parent, _op in self.rows:
            if parent >= 0:
                child_total[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.rows):
            own = max(0.0, (end - start) - child_total[i])
            out[name] = out.get(name, 0.0) + own
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for row in self.rows:
            out[row[0]] = out.get(row[0], 0) + 1
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op_id) in enumerate(self.rows):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id}) + "\n")


@dataclass
class Outcome:
    """What one run of one workload produced, timed or traced."""

    metrics: Dict[str, float]
    #: Operations attempted over the whole run.
    attempted: int
    #: Operations that errored unexpectedly or came back wrong.  An
    #: admission refusal the seed determines (``des-queue-overload``) is
    #: the workload's designed outcome: it is left out of goodput and
    #: reported as ``failed_op_share``, not counted here.
    failed: int = 0
    #: Failed correctness checks; any entry fails the run.
    problems: List[str] = field(default_factory=list)
    #: Extra facts printed under the metrics (sample counts, digests).
    detail: Dict[str, object] = field(default_factory=dict)
    spans: Optional[Spans] = None


def peak_rss_mb() -> float:
    """This process's high-water resident set (``ru_maxrss``) in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / divisor


def proc_peak_rss_mb(pid: int) -> float:
    """Another live process's ``VmHWM`` in MB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds another live process has consumed."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # The command name may contain spaces; fields resume after ")".
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint() -> Dict[str, object]:
    """Where and on what this run was taken (Continuous Evaluation)."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        nproc = os.cpu_count() or 1
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "loadavg_1m_at_start": load1,
        "git_commit": git_commit(),
    }


def spread(values: Iterable[float]) -> float:
    """Interquartile distance as a share of the median (0 for n < 2)."""
    vals = list(values)
    if len(vals) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    mid = statistics.median(vals)
    return (q3 - q1) / mid if mid else 0.0
