"""The columnar operation schedule and the DES loop that drives it.

One object graph per arrival (an op record, a key string, a named
process) is fine at thousands of ops and prohibitive at a million
clients, so the schedule every backend runs is columnar:

* numpy arrays of arrival instants, mix-kind ids and key draws
  (13 bytes/op); key strings and :class:`ScheduledOp` views are derived
  on demand, one at a time;
* the DES injector consumes those arrays in chunks of ``flock_size``,
  converting one chunk at a time to plain scalars;
* completions are buffered and flushed to
  :meth:`~repro.traffic.stats.StatsAggregator.record_chunk` per chunk.

Each arrival is still an independent open-loop operation process
charging the simulated cluster; the chunk size changes no result
(pinned, with the goldens of the per-op-object path this replaced, by
``tests/traffic/test_flock.py``).
"""

from __future__ import annotations

from random import Random
from typing import Iterator, List, Tuple

import numpy as np

from ..storage.errors import StorageError
from .engine import (LOAD_PARTITION, LOAD_QUEUE, MIXES, LoadConfig,
                     ScheduledOp, _op_script, _run_script_des,
                     _setup_script)

__all__ = ["FlockSchedule", "build_flock_schedule", "run_flock_des"]

#: Ops that carry the configured payload.
_PAYLOAD_OPS = ("put", "upload", "insert", "upsert")


class FlockSchedule:
    """Columnar operation schedule for one load run.

    ``at`` (float64), ``kind`` (int8 index into ``kinds``) and
    ``key_id`` (int32 preload draw) fully determine every op; key
    strings and :class:`ScheduledOp` views are derived on demand.
    """

    __slots__ = ("at", "kind", "key_id", "kinds", "payload_bytes",
                 "labels", "kind_nbytes")

    def __init__(self, at: "np.ndarray", kind: "np.ndarray",
                 key_id: "np.ndarray", kinds: Tuple[Tuple[str, str], ...],
                 payload_bytes: int) -> None:
        self.at = at
        self.kind = kind
        self.key_id = key_id
        self.kinds = kinds
        self.payload_bytes = payload_bytes
        self.labels = tuple(f"{s}.{o}" for s, o in kinds)
        self.kind_nbytes = tuple(
            payload_bytes if op in _PAYLOAD_OPS else 0
            for _, op in kinds)

    def __len__(self) -> int:
        return len(self.at)

    def op(self, index: int) -> ScheduledOp:
        """The :class:`ScheduledOp` view of arrival ``index``."""
        k = self.kind[index]
        service, opname = self.kinds[k]
        if (service, opname) in (("blob", "upload"), ("table", "insert")):
            key = f"new-{index}"
        elif (service, opname) == ("table", "query"):
            key = LOAD_PARTITION
        elif service == "queue":
            key = LOAD_QUEUE
        else:
            key = f"obj-{self.key_id[index]}"
        return ScheduledOp(index, float(self.at[index]), service, opname,
                           key, self.kind_nbytes[k])

    def iter_ops(self) -> Iterator[ScheduledOp]:
        """Stream every op as a transient view (O(1) extra memory)."""
        return (self.op(i) for i in range(len(self.at)))


def build_flock_schedule(config: LoadConfig) -> FlockSchedule:
    """The full, deterministic operation schedule for one run.

    Arrival instants come from the arrival process; the operation mix
    and key choices come from an independent stream seeded off the same
    arrival seed — so changing the mix does not perturb the instants and
    vice versa.  Every arrival takes one mix draw plus one preload draw,
    whether or not its key is used: the golden digests depend on it.
    """
    instants = config.effective_arrivals().build().times(config.duration)
    n = len(instants)
    at = np.array(instants, dtype=np.float64)
    del instants  # free the Python float list before the op loop
    kind = np.empty(n, dtype=np.int8)
    key_id = np.empty(n, dtype=np.int32)
    rng = Random(f"{config.arrivals.seed}:{config.mix}:ops")
    random = rng.random
    randrange = rng.randrange
    mix = MIXES[config.mix]
    total = sum(w for w, _, _ in mix)
    weights = tuple(w for w, _, _ in mix)
    preload = config.preload
    for i in range(n):
        draw = random() * total
        k = len(weights) - 1  # float-edge fallthrough
        for j, w in enumerate(weights):
            draw -= w
            if draw < 0:
                k = j
                break
        kind[i] = k
        key_id[i] = randrange(preload)
    kinds = tuple((service, op) for _, service, op in mix)
    return FlockSchedule(at, kind, key_id, kinds, config.payload_bytes)


def run_flock_des(backend, config: LoadConfig, flock: FlockSchedule,
                  agg) -> Tuple["np.ndarray", float, int]:
    """Seeded DES execution (sim and geo backends).

    Every arrival spawns an independent operation process at its
    scheduled instant, driven off the columnar schedule in
    ``flock_size`` chunks, with unnamed op processes and batched stats
    flushes.  Returns ``(outcomes, last_end, events_processed)``.
    """
    from ..core.runner import RunConfig
    from ..simkit import Environment

    env = Environment(scheduler=config.scheduler)
    account = backend._make_account(
        env, RunConfig(seed=config.seed, label="load"))
    clients = {"queue": account.queue_client(),
               "blob": account.blob_client(),
               "table": account.table_client()}

    setup = env.process(_run_script_des(_setup_script(clients, config)),
                        name="load-setup")
    env.run(until=setup)
    origin = env.now

    n = len(flock)
    #: -1 = never completed (impossible after run), 0 = error, 1 = ok.
    outcomes = np.full(n, -1, dtype=np.int8)
    pending = {"n": n}
    done = env.event()
    last_end = {"t": 0.0}
    chunk = config.flock_size
    kind_nbytes = flock.kind_nbytes
    labels = flock.labels

    buf_start: List[float] = []
    buf_end: List[float] = []
    buf_ok: List[bool] = []
    buf_kind: List[int] = []

    def flush() -> None:
        if not buf_start:
            return
        agg.record_chunk(
            buf_start, buf_end, oks=buf_ok,
            nbytes=[kind_nbytes[k] for k in buf_kind],
            operations=[labels[k] for k in buf_kind])
        buf_start.clear()
        buf_end.clear()
        buf_ok.clear()
        buf_kind.clear()

    def op_proc(i: int, k: int):
        t0 = env.now
        try:
            yield from _run_script_des(
                _op_script(clients, config, flock.op(i)))
            ok = True
        except StorageError:
            ok = False
        outcomes[i] = ok
        end = env.now - origin
        buf_start.append(t0 - origin)
        buf_end.append(end)
        buf_ok.append(ok)
        buf_kind.append(k)
        if len(buf_start) >= chunk:
            flush()
        if end > last_end["t"]:
            last_end["t"] = end
        pending["n"] -= 1
        if pending["n"] == 0:
            done.succeed()

    def injector():
        timeout = env.timeout
        process = env.process
        at_arr = flock.at
        kind_arr = flock.kind
        for base in range(0, n, chunk):
            ats = at_arr[base:base + chunk].tolist()
            kinds = kind_arr[base:base + chunk].tolist()
            i = base
            for t_at, k in zip(ats, kinds):
                wait = origin + t_at - env.now
                if wait > 0:
                    yield timeout(wait)
                process(op_proc(i, k))
                i += 1

    if n:
        env.process(injector(), name="load-injector")
        env.run(until=done)
    flush()
    return outcomes, last_end["t"], env.events_processed
