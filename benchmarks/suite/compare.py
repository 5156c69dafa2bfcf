#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: the rule perf PRs meet.

``python benchmarks/suite/compare.py A.json B.json`` prints, for every
workload and end-to-end metric, both medians, the ratio B/A with its
base, the bound ``BENCHMARK.json`` fixes, and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so these runs cannot tell -- unless every run of
                B reads better than every run of A, which is ``ok``.

Exit code 1 if any pairing regressed, 0 otherwise.  Take both files with
the same ``--runs`` (ten or more) and ``--seconds``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402 - needs HERE on the path


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """Judge one metric on one workload; returns (verdict, ratio B/A)."""
    med_a, med_b = measure.median(a), measure.median(b)
    ratio = med_b / med_a if med_a else float("inf")
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    noisy = max(measure.spread(a), measure.spread(b)) > bound
    if noisy and not b_always_better:
        return "unresolved", ratio
    return ("regressed" if worse_by > bound else "ok"), ratio


def compare(doc_a, doc_b, contract) -> int:
    regressed = 0
    header = (f"{'workload':20s} {'metric':14s} {'A median':>12s} "
              f"{'B median':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    print(header)
    print("-" * len(header))
    for name in doc_a["workloads"]:
        runs_a = doc_a["workloads"].get(name, {}).get("end_to_end", {})
        runs_b = doc_b["workloads"].get(name, {}).get("end_to_end", {})
        for metric in contract["end_to_end"]:
            a, b = runs_a.get(metric["name"]), runs_b.get(metric["name"])
            if not a or not b:
                print(f"{name:20s} {metric['name']:14s} {'missing':>12s}")
                regressed += 1
                continue
            what, ratio = verdict(a, b, metric["better"], metric["bound"])
            regressed += what == "regressed"
            print(f"{name:20s} {metric['name']:14s} "
                  f"{measure.median(a):12.5g} {measure.median(b):12.5g} "
                  f"{ratio:7.3f} {metric['bound']:6.2f}  {what} "
                  f"(base A = {measure.median(a):.5g} {metric['unit']}, "
                  f"n = {len(a)} vs {len(b)})")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return compare(docs[0], docs[1], measure.load_contract())


if __name__ == "__main__":
    sys.exit(main())
