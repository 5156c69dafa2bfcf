#!/usr/bin/env python3
"""What the event queue is asked to hold, counted from outside ``src/``.

``python benchmarks/perf/queue_traffic.py [--root CHECKOUT]`` runs the
four DES workloads of ``benchmarks/suite`` once each at the pinned seed
with a counting stand-in for the ``heapq`` module the kernel pushes
through, and prints one JSON document: for each workload the share of
scheduled events whose instant is already queued or is the one being
processed (the only traffic per-instant buckets can serve without
touching a heap; ``queued_instant_share`` leaves the current instant
out) and the largest number of distinct instants pending at once (the
heap depth that bucketing would save a sift through).  The run's digest
must equal ``benchmarks/suite/pins.json``: counting changes nothing.

The numbers are in ``benchmarks/perf/BENCH_one_queue.json`` and are why
the kernel has one event queue (``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys


class CountingHeapq:
    """``heappush``/``heappop`` that tally the instants they carry."""

    def __init__(self) -> None:
        self.pending = {}      # instant -> events queued at it
        self.now = None        # instant of the last pop
        self.pushes = 0
        self.queued_hits = 0   # pushes onto an already-queued instant
        self.now_hits = 0      # pushes onto the instant being processed
        self.peak_instants = 0
        self.peak_events = 0
        self.queued = 0

    def heappush(self, queue, item) -> None:
        heapq.heappush(queue, item)
        pending = self.pending
        t = item[0]
        self.pushes += 1
        self.queued += 1
        if t in pending:
            pending[t] += 1
            self.queued_hits += 1
        else:
            pending[t] = 1
            self.now_hits += t == self.now
            if len(pending) > self.peak_instants:
                self.peak_instants = len(pending)
        if self.queued > self.peak_events:
            self.peak_events = self.queued

    def heappop(self, queue):
        item = heapq.heappop(queue)
        t = self.now = item[0]
        self.queued -= 1
        left = self.pending[t] - 1
        if left:
            self.pending[t] = left
        else:
            del self.pending[t]
        return item


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."),
        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    suite = os.path.join(root, "benchmarks", "suite")
    sys.path[:0] = [os.path.join(root, "src"), suite]

    import des
    import paper
    from repro.simkit import environment

    # Every push and pop of the kernel goes through ``environment.heapq``.
    # A checkout that still has a second queue is measured on its heap:
    # event order, and so the traffic, is pinned identical on both.
    init = environment.Environment.__init__
    environment.Environment.__init__ = (
        lambda self, initial_time=0.0, scheduler="heap":
        init(self, initial_time))

    with open(os.path.join(suite, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    doc = {}
    for name, pin in pins.items():
        counter = environment.heapq = CountingHeapq()
        run = (des.run_once(name, pin["seed"]) if name in des.SPECS
               else paper.run_once(pin["seed"]))
        if run["digest"] != pin["digest"]:
            raise SystemExit(f"{name}: digest {run['digest']} != pinned")
        doc[name] = {
            "scheduled_events": counter.pushes,
            "same_instant_share": round(
                (counter.queued_hits + counter.now_hits) / counter.pushes, 4),
            "queued_instant_share": round(
                counter.queued_hits / counter.pushes, 4),
            "peak_pending_instants": counter.peak_instants,
            "peak_pending_events": counter.peak_events,
            "digest_equals_pin": True,
        }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
