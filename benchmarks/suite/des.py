"""The three open-loop DES workloads: ``repro.traffic.run_load`` on ``sim``.

One repeat is one ``run_load`` call on a fixed, seeded operation script,
so its simulated outcome (op digest, failure count, kernel event count)
is a pure function of the seed; only the host seconds it takes vary.
Every ``LoadConfig`` field that shapes the run is spelled out here so a
later change of library defaults cannot silently change the benchmark.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

#: name -> (mix, Poisson ops/s, virtual seconds).  The queue mix costs
#: 1.25 tx/op against the 500 msg/s queue target, so its knee is 400
#: ops/s: 300 is below it, 2,000 is five times above it.
SPECS: Dict[str, tuple] = {
    "des-queue-deep": ("queue", 300.0, 75.0),
    "des-mixed-flat": ("mixed", 500.0, 20.0),
    "des-queue-overload": ("queue", 2000.0, 8.0),
}


def load_config(name: str, seed: int):
    from repro.traffic import ArrivalSpec, LoadConfig

    mix, rate, duration = SPECS[name]
    return LoadConfig(
        arrivals=ArrivalSpec(process="poisson", rate=rate, seed=seed,
                             params=(), trace=()),
        duration=duration, window_s=5.0, mix=mix, payload_bytes=4096,
        seed=seed, backend="sim", slo=None, preload=16, servers=1,
        clients=1, flock_size=8192, scheduler="calendar")


def setup(name: str, seed: int) -> None:
    """What a fresh process does before the measured interval starts:
    import the traffic engine and build the columnar schedule."""
    from repro.traffic import build_flock_schedule

    build_flock_schedule(load_config(name, seed))


def run_once(name: str, seed: int,
             worked: Callable[[float], None] = lambda seconds: None
             ) -> Dict[str, object]:
    """One repeat: the whole ``run_load`` call, timed from outside, then
    reported to ``worked`` (the timed run's :class:`reference.Pace`)."""
    from repro.traffic import run_load

    config = load_config(name, seed)
    start = time.perf_counter()
    result = run_load(config)
    wall = time.perf_counter() - start
    worked(wall)
    totals = result.aggregator.totals()
    return {
        "wall_s": wall,
        "attempted": int(totals["completions"]),
        "refused": int(totals["errors"]),
        "digest": result.digest,
        "kernel_events": int(result.resources["kernel_events"]),
    }


def check_batch(name: str, seed: int, repeats, pins):
    """Simulated outcomes are seed-determined: any drift is a change of
    behaviour, never noise.  Returns the list of failed checks."""
    problems = []
    first = repeats[0]
    for rep in repeats[1:]:
        if (rep["digest"], rep["refused"], rep["attempted"]) != (
                first["digest"], first["refused"], first["attempted"]):
            problems.append(f"{name}: repeats of seed {seed} disagree")
            break
    pin = pins.get(name, {})
    if seed == pin.get("seed"):
        for key in ("digest", "attempted", "refused"):
            if first[key] != pin[key]:
                problems.append(
                    f"{name}: {key} {first[key]!r} != pinned {pin[key]!r}")
    elif name != "des-queue-overload" and first["refused"]:
        problems.append(f"{name}: {first['refused']} ops refused, expected 0")
    return problems
