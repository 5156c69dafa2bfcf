"""Gate the frozen suite's exact counters against committed ceilings.

The counters the traced suite prints per operation — kernel events,
throttle transactions, failed share, retries, and on the live workloads
the SN<->DN frame bytes per request — are pure functions of the seed, so a rise is a change of behaviour, never noise, and can fail CI on
any host.  ``COUNTS.json`` beside this file holds the ceilings.

    python3 benchmarks/suite/run.py --workload W --seconds 3 --trace 1 > W.log
    python3 benchmarks/perf/check_counts.py W=W.log [W2=W2.log ...]

Each log is the standard output of one ``run.py --workload`` call; its
last line is the one-line JSON result.  Exits 1 when a count exceeds its
ceiling, or when a counter or the workload's ceilings are missing.  A
count that *fell* passes and is reported, so that the ceiling can be
lowered with it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COUNTS = Path(__file__).with_name("COUNTS.json")


def check(name: str, metrics: dict, ceilings: dict) -> list:
    problems = []
    for counter, ceiling in ceilings.items():
        if counter not in metrics:
            problems.append(f"{name}: {counter} not reported")
            continue
        value = metrics[counter]["value"]
        if value > ceiling:
            problems.append(
                f"{name}: {counter} rose to {value!r} (ceiling {ceiling!r})")
        elif value < ceiling:
            print(f"{name}: {counter} fell to {value!r} "
                  f"(ceiling {ceiling!r}): lower the ceiling")
        else:
            print(f"{name}: {counter} = {value!r} ok")
    return problems


def main(argv: list) -> int:
    ceilings = json.loads(COUNTS.read_text())["ceilings"]
    logs = dict(arg.split("=", 1) for arg in argv)
    problems = []
    for name, path in logs.items():
        if name not in ceilings:
            problems.append(f"{name}: no ceilings in {COUNTS.name}")
            continue
        result = json.loads(Path(path).read_text().splitlines()[-1])
        problems += check(name, result["metrics"], ceilings[name])
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
