"""The host-speed reference: a frozen slice of work timed beside the workload.

The hosts this suite runs on are shared.  A fixed piece of
single-threaded Python takes anything from 1x to 2x its best time there,
in spells of a tenth of a second to minutes, with no steal time to show
for it, so no statistic taken over the repeats of a 30-second run
repeats from one run to the next.  What does repeat is the ratio to
other work done in the same minute.  A *slice* is that other work: about
60 ms of interpreter churn (generators on a heap, small objects, dict
and string traffic), a scan over a few thousand objects and a few native
calls (SHA-256, CRC-32, pickle), the mix the program under test is made
of.  A :class:`Pace` takes slices between the pieces of a run and scales
the run's times by how fast the slices were.

Nothing here imports ``repro`` or depends on the seed, and **nothing
here may change**: every end-to-end time of the suite is read against
this code, so editing it re-bases every number.
"""

from __future__ import annotations

import hashlib
import heapq
import pickle
import statistics
import time
import zlib
from typing import Dict, List

#: What one slice takes on the reference host (2 vCPUs of a Xeon at
#: 2.1 GHz, CPython 3.11) in its usual state.  Times are scaled to a
#: host on which a slice takes exactly this long.
REFERENCE_SLICE_S = 0.060
#: How much of the slices' slowdown is taken out of the workload's time.
#: Measured: over runs of 30-40 s the workloads' median times rise with
#: the slices' as their 0.5th to 0.9th power on the DES and their 0.3rd
#: on the live tier (slices sample the host's state, they do not share
#: every instant of it), and 0.5 narrowed the spread between runs on
#: every workload where 1.0 widened it on some.
ELASTICITY = 0.7
#: Slices take this share of the time the measured work takes.
SHARE = 0.15


class _Message:
    __slots__ = ("ident", "visible_at")

    def __init__(self, ident: int, visible_at: float) -> None:
        self.ident = ident
        self.visible_at = visible_at

    def visible(self, now: float) -> bool:
        return self.visible_at <= now


class _Context:
    def __init__(self, ident: int, at: float) -> None:
        self.ident = ident
        self.at = at
        self.attrs = {"ident": ident}


_MESSAGES = [_Message(i, float(i % 97)) for i in range(6000)]
_BLOB = bytes(range(256)) * 4096
_ROWS = [{"k": i, "v": "x" * 40, "t": (i, float(i))} for i in range(2000)]


def _process(ident: int, out: Dict[int, str]):
    at = 0.0
    for step in range(3):
        ctx = _Context(ident, at)
        at = yield at + 0.25 + (ident & 7) * 0.125
        out[ctx.ident & 255] = f"op{ident}:{step}"


def _churn(count: int) -> None:
    """A toy event loop: ``count`` three-step generators through a heap."""
    heap: list = []
    out: Dict[int, str] = {}
    seq = 0
    for ident in range(count):
        gen = _process(ident, out)
        heapq.heappush(heap, (next(gen), seq, gen))
        seq += 1
        while len(heap) > 48:
            seq = _resume(heap, seq)
    while heap:
        seq = _resume(heap, seq)


def _resume(heap: list, seq: int) -> int:
    at, _seq, gen = heapq.heappop(heap)
    try:
        heapq.heappush(heap, (gen.send(at), seq, gen))
    except StopIteration:
        pass
    return seq + 1


def _scan(rounds: int) -> int:
    """Walk the message list to the first visible one (there is none)."""
    found = 0
    for turn in range(rounds):
        now = -1.0 + (turn & 1) * 0.5
        for message in _MESSAGES:
            if message.visible(now):
                found += 1
                break
    return found


def _native(rounds: int) -> int:
    size = 0
    for _ in range(rounds):
        size += len(hashlib.sha256(_BLOB).digest())
        size += zlib.crc32(_BLOB) & 1
        size += len(pickle.loads(pickle.dumps(_ROWS, protocol=4)))
    return size


def slice_s() -> float:
    """Run one slice; return the seconds it took."""
    start = time.perf_counter()
    _churn(4000)
    _scan(40)
    _native(8)
    return time.perf_counter() - start


class Pace:
    """Takes slices between the pieces of one run, ``SHARE`` of their time."""

    def __init__(self) -> None:
        self.slices: List[float] = [slice_s()]
        self.work_s = 0.0

    def worked(self, seconds: float) -> None:
        """Call after each measured piece of work with its duration."""
        self.work_s += seconds
        while sum(self.slices) < SHARE * self.work_s:
            self.slices.append(slice_s())

    def slice_median_s(self) -> float:
        return statistics.median(self.slices)

    def factor(self) -> float:
        """Multiply a time measured in this run by this (divide a rate)
        to read it at the reference host's speed."""
        return (REFERENCE_SLICE_S / self.slice_median_s()) ** ELASTICITY
