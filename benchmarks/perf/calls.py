#!/usr/bin/env python3
"""Python-level calls per DES storage round trip, function by function.

    python3 benchmarks/perf/calls.py [--workload paper-figs] [--seed 2012]
    python3 benchmarks/perf/calls.py --workload des-mixed-flat --top 20
    python3 benchmarks/perf/calls.py --cell fig6:8

Runs one repeat of a workload of the frozen suite (``paper-figs``, one
cell of it, or a ``des-*`` workload) under ``sys.setprofile`` and counts
its "call" events: every Python frame whose code lives under
``src/repro``, plus the generated functions such frames call directly
(a dataclass ``__init__``, a named tuple's ``__new__``), which Python
compiles from strings.  Generator resumptions are calls too.  The count
is divided by the round trips of the run (``OpContext`` constructions,
one per op that enters the pipeline, refused ones included), and the
inventory lists each function's calls per round trip, largest first.

The counts are functions of the seed, not of the host.
``tests/cluster/test_round_trip.py`` holds one cell to a ceiling through
:func:`count_calls` and :func:`paper_cell`.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import Callable, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
SUITE = os.path.join(os.path.dirname(HERE), "suite")


def count_calls(run: Callable[[], object]) -> Tuple[Counter, int]:
    """``run()`` under the profiler: (calls per site, round trips).

    A site is ``(path under src/repro, first line, name)``, or for a
    generated function ``("<string>", caller's name, name)``."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    cut = len(root)
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        path = code.co_filename
        if path.startswith(root):
            calls[(path[cut:], code.co_firstlineno, code.co_name)] += 1
        elif path.startswith("<"):
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(
                    root):
                calls[(path, caller.f_code.co_name, code.co_name)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    trips = sum(n for (path, _line, name), n in calls.items()
                if path == os.path.join("pipeline", "context.py")
                and name == "__init__")
    return calls, trips


def _suite(module: str):
    if SUITE not in sys.path:
        sys.path.insert(0, SUITE)
    return __import__(module)


def paper_cell(label: str, workers: int, seed: int) -> Callable[[], object]:
    """One cell of ``paper-figs`` at its suite scale, ready to run."""
    from dataclasses import replace

    from repro.bench.executor import SweepExecutor

    scale = replace(_suite("paper").bench_scale(seed),
                    worker_counts=(workers,))
    return lambda: SweepExecutor(1).run_sweeps(scale, [label], backend="sim")


def workload(name: str, seed: int) -> Callable[[], object]:
    """One repeat of a DES workload of the suite, ready to run."""
    if name == "paper-figs":
        paper = _suite("paper")
        paper.setup(seed)
        return lambda: paper.run_once(seed)
    des = _suite("des")
    if name not in des.SPECS:
        raise SystemExit(f"calls.py: unknown workload {name!r}; choose from "
                         f"paper-figs, {', '.join(des.SPECS)}")
    des.setup(name, seed)
    return lambda: des.run_once(name, seed)


def report(calls: Counter, trips: int, top: int) -> None:
    total = sum(calls.values())
    print(f"round trips        {trips}")
    print(f"calls              {total}")
    print(f"calls / round trip {total / trips:.2f}")
    print()
    print(f"{'calls':>9} {'/trip':>6}  site")
    for (path, line, name), n in calls.most_common(top):
        print(f"{n:9d} {n / trips:6.2f}  {path}:{line} {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="paper-figs")
    parser.add_argument("--cell", metavar="LABEL:WORKERS",
                        help="one paper-figs cell, e.g. fig6:8")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--top", type=int, default=40,
                        help="sites listed (0: all)")
    args = parser.parse_args(argv)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if args.cell:
        label, workers = args.cell.rsplit(":", 1)
        run = paper_cell(label, int(workers), args.seed)
        print(f"paper-figs cell {label} at {workers} workers, seed {args.seed}")
    else:
        run = workload(args.workload, args.seed)
        print(f"{args.workload}, seed {args.seed}")
    calls, trips = count_calls(run)
    report(calls, trips, args.top or None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
