"""Performance-regression harness: kernel throughput + sweep wall-clock.

Continuous perf tracking (Rehr et al.: perf numbers are only trustworthy
when tracked over time) for the two hot layers this codebase optimizes:

* **kernel events/sec** — how fast :class:`~repro.simkit.environment.
  Environment` turns over its event loop, measured with the dominant
  sleep-then-resume pattern (``yield env.timeout(...)`` ping processes);
* **sweep wall-clock** — how long one figure campaign takes serially vs
  fanned out with :class:`~repro.bench.executor.SweepExecutor`.

:func:`run_perf` packages both into the ``BENCH_core.json`` document.
The committed copy (``benchmarks/perf/BENCH_core.json``) is the
trajectory future PRs regress against: CI re-measures and
:func:`check_regression` fails the build when kernel events/sec drops
more than ``tolerance`` (default 30%) below the committed baseline.
Absolute rates vary between machines — the committed numbers carry their
host fingerprint, and the wide tolerance absorbs runner-to-runner noise
while still catching real kernel regressions (which historically cost
2x, not 1.3x).

Simulated *numbers* are out of scope here by design: byte-identity of
figures/CSVs is enforced by the equivalence tests, so this harness only
ever measures wall-clock, never results.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "kernel_events_per_sec",
    "flock_load_metrics",
    "sweep_wall_clock",
    "run_perf",
    "check_regression",
    "load_bench",
    "write_bench",
]

#: Schema 3 drops schema 2's second kernel figure: the kernel has one
#: event queue.  ``kernel``, ``flock`` and ``sweeps`` are unchanged.
BENCH_SCHEMA_VERSION = 3

#: Default kernel microbenchmark shape: 100 concurrent sleepers x 2,000
#: round trips each -> ~200k events per repetition.
KERNEL_PROCS = 100
KERNEL_ROUNDS = 2000
KERNEL_REPEATS = 5


def _ping(env, rounds: int):
    for _ in range(rounds):
        yield env.timeout(1.0)


def kernel_events_per_sec(*, procs: int = KERNEL_PROCS,
                          rounds: int = KERNEL_ROUNDS,
                          repeats: int = KERNEL_REPEATS,
                          scheduler: str = "heap") -> Dict[str, float]:
    """Events/sec through the DES kernel on the sleep-then-resume path.

    Best-of-``repeats`` is reported (the standard microbenchmark defence
    against scheduler noise — the *fastest* run is the least disturbed
    measurement of the code itself).
    """
    from ..simkit import Environment

    best = 0.0
    events = 0
    for _ in range(repeats):
        # Selects nothing: benchmarks/suite/replay.py still passes it.
        env = Environment(scheduler=scheduler)
        for i in range(procs):
            env.process(_ping(env, rounds), name=f"perf-ping-{i}")
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        events = env.events_processed
        if elapsed > 0:
            best = max(best, events / elapsed)
    return {
        "procs": procs,
        "rounds": rounds,
        "repeats": repeats,
        "scheduler": scheduler,
        "events": events,
        "events_per_sec": round(best, 1),
    }


def flock_load_metrics(*, clients: int = 1_000_000,
                       per_client_rate: float = 0.001,
                       duration: float = 10.0,
                       flock_size: int = 8192) -> Dict[str, object]:
    """Open-loop ops/sec + peak RSS: the million-client scale figure.

    Runs one seeded open-loop ``repro load`` (columnar schedule, chunks
    of ``flock_size``); the offered rate is ``clients * per_client_rate``
    ops/s.  Peak RSS is the process high-water mark, so run this before
    anything memory-hungry when the number matters.
    """
    from ..traffic import ArrivalSpec, LoadConfig, run_load

    config = LoadConfig(
        arrivals=ArrivalSpec(rate=per_client_rate),
        duration=duration, mix="queue", clients=clients,
        flock_size=flock_size)
    result = run_load(config)
    res = result.resources or {}
    ops = result.aggregator.total_completions
    wall = res.get("wall_clock_s") or 0.0
    return {
        "clients": clients,
        "per_client_rate": per_client_rate,
        "duration_s": duration,
        "flock_size": flock_size,
        "ops": ops,
        "ops_per_sec": round(ops / wall, 1) if wall > 0 else None,
        "peak_rss_mb": res.get("peak_rss_mb"),
        "kernel_events_per_sec": res.get("kernel_events_per_sec"),
    }


def sweep_wall_clock(labels: List[str], scale, *,
                     jobs: int) -> Dict[str, object]:
    """Wall-clock of one sweep campaign, serial then with ``jobs`` procs.

    Each leg runs the full ``labels`` x ``scale.worker_counts`` matrix
    from scratch (no checkpoint, no shared cache), so the two legs do
    identical simulated work and the ratio is a pure scheduling number.
    """
    from .executor import SweepExecutor

    start = time.perf_counter()
    SweepExecutor(1).run_sweeps(scale, labels)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    SweepExecutor(jobs).run_sweeps(scale, labels)
    parallel_s = time.perf_counter() - start

    return {
        "labels": list(labels),
        "scale": scale.name,
        "cells": len(labels) * len(scale.worker_counts),
        "serial_s": round(serial_s, 3),
        "jobs": jobs,
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
    }


def _host() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def run_perf(*, quick: bool = False, jobs: Optional[int] = None,
             baseline: Optional[dict] = None,
             log: Callable[[str], None] = print) -> dict:
    """Measure the full perf surface and return the BENCH_core document.

    ``quick`` shrinks the sweep leg to the fig6 campaign (CI-smoke
    budget); the full run times every figure sweep.  ``baseline`` (a
    previously written document) is carried into the output so the
    trajectory stays in one file.
    """
    from .executor import default_jobs
    from .figures import QUICK_SCALE, SWEEP_BUILDERS

    if jobs is None:
        jobs = default_jobs()

    log(f"kernel: {KERNEL_PROCS} procs x {KERNEL_ROUNDS} rounds, "
        f"best of {KERNEL_REPEATS} ...")
    kernel = kernel_events_per_sec()
    log(f"kernel: {kernel['events_per_sec']:,.0f} events/sec")

    if quick:
        flock = flock_load_metrics(clients=100_000, per_client_rate=0.001,
                                   duration=5.0, flock_size=2048)
    else:
        flock = flock_load_metrics()
    log(f"flock: {flock['clients']:,} clients -> "
        f"{flock['ops_per_sec']:,.0f} ops/sec at "
        f"{flock['peak_rss_mb']} MB peak RSS")

    labels = ["fig6"] if quick else list(SWEEP_BUILDERS)
    log(f"sweep: {labels} at {QUICK_SCALE.name} scale, serial vs "
        f"--jobs {jobs} ...")
    sweeps = sweep_wall_clock(labels, QUICK_SCALE, jobs=jobs)
    log(f"sweep: serial {sweeps['serial_s']:.2f}s, "
        f"parallel {sweeps['parallel_s']:.2f}s "
        f"(speedup {sweeps['speedup']}x at jobs={jobs})")

    doc = {
        "schema": BENCH_SCHEMA_VERSION,
        "host": _host(),
        "kernel": kernel,
        "flock": flock,
        "sweeps": sweeps,
    }
    if baseline is not None:
        doc["baseline"] = {
            "kernel_events_per_sec":
                baseline.get("kernel", {}).get("events_per_sec"),
            "host": baseline.get("host"),
        }
    return doc


def load_bench(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    # A schema-2 baseline's ``kernel`` figure is the same measurement.
    if doc.get("schema") not in (2, BENCH_SCHEMA_VERSION):
        raise ValueError(
            f"{path!r} has BENCH schema {doc.get('schema')!r}, "
            f"expected {BENCH_SCHEMA_VERSION}")
    return doc


def write_bench(doc: dict, path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_regression(current: dict, baseline: dict, *,
                     tolerance: float = 0.30,
                     log: Callable[[str], None] = print) -> bool:
    """True when current kernel throughput is within ``tolerance`` of base.

    The gate is one-sided: faster is always fine, slower than
    ``(1 - tolerance) * baseline`` fails.
    """
    base_rate = baseline.get("kernel", {}).get("events_per_sec")
    rate = current.get("kernel", {}).get("events_per_sec")
    if not base_rate or not rate:
        raise ValueError("both documents need kernel.events_per_sec")
    floor = (1.0 - tolerance) * base_rate
    ok = rate >= floor
    verdict = "ok" if ok else "REGRESSION"
    log(f"kernel events/sec: {rate:,.0f} vs baseline {base_rate:,.0f} "
        f"(floor {floor:,.0f} at -{tolerance:.0%}): {verdict}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Tiny standalone entry point (``python -m repro.bench.perf``)."""
    from ..cli import main as cli_main
    return cli_main(["perf"] + list(argv or sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
