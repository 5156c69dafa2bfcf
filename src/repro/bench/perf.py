"""The kernel ping loop behind the suite's ``simkit.heap_us_per_event`` row.

``benchmarks/suite/replay.py`` imports :func:`kernel_events_per_sec` on
traced runs; nothing under ``src/`` calls it.  It is a row of that
table, not a harness or a gate of its own: the perf harness is
``benchmarks/suite/run.py`` + ``compare.py`` (``docs/performance.md``
says why a 100-sleeper loop must not be more than a row).
"""

from __future__ import annotations

import time
from typing import Dict

__all__ = ["kernel_events_per_sec"]

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
