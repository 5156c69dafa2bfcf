"""The columnar operation schedule and the DES loop that drives it.

One object graph per arrival (an op record, a key string, a named
process) is fine at thousands of ops and prohibitive at a million
clients, so the schedule every backend runs is columnar:

* numpy arrays of arrival instants, mix-kind ids and key draws
  (13 bytes/op); key strings and :class:`ScheduledOp` views are derived
  on demand, one at a time;
* the DES loop unpacks those arrays ``flock_size`` arrivals at a time
  into plain scalars and arms one kernel event per arrival;
* an operation is no simkit process: the arrival's callback starts its
  client generator as a :class:`~repro.simkit.Detached`, which resumes
  it off the events it yields and hands its outcome to the completion
  buffers, flushed to
  :meth:`~repro.traffic.stats.StatsAggregator.record_chunk` per chunk.

Each arrival is still an independent open-loop operation charging the
simulated cluster; the chunk size changes no result (pinned, with the
goldens of the per-op-process loops this replaced, by
``tests/traffic/test_flock.py``).
"""

from __future__ import annotations

from functools import partial
from random import Random
from typing import Iterator, List, Tuple

import numpy as np

from ..storage.errors import StorageError
from .engine import (LOAD_PARTITION, LOAD_QUEUE, MIXES, LoadConfig,
                     ScheduledOp, _clients, _op_starters, _setup)

__all__ = ["FlockSchedule", "build_flock_schedule", "run_flock_des"]

#: Ops that carry the configured payload.
_PAYLOAD_OPS = ("put", "upload", "insert", "upsert")


def _keyer(service: str, op: str):
    """``(index, key draw) -> key`` of one mix kind."""
    if (service, op) in (("blob", "upload"), ("table", "insert")):
        return lambda index, draw: f"new-{index}"
    if (service, op) == ("table", "query"):
        return lambda index, draw: LOAD_PARTITION
    if service == "queue":
        return lambda index, draw: LOAD_QUEUE
    return lambda index, draw: f"obj-{draw}"


class FlockSchedule:
    """Columnar operation schedule for one load run.

    ``at`` (float64), ``kind`` (int8 index into ``kinds``) and
    ``key_id`` (int32 preload draw) fully determine every op; key
    strings and :class:`ScheduledOp` views are derived on demand.
    """

    __slots__ = ("at", "kind", "key_id", "kinds", "labels", "kind_nbytes",
                 "keyers")

    def __init__(self, at: "np.ndarray", kind: "np.ndarray",
                 key_id: "np.ndarray", kinds: Tuple[Tuple[str, str], ...],
                 payload_bytes: int) -> None:
        self.at = at
        self.kind = kind
        self.key_id = key_id
        self.kinds = kinds
        self.labels = tuple(f"{s}.{o}" for s, o in kinds)
        self.kind_nbytes = tuple(
            payload_bytes if op in _PAYLOAD_OPS else 0
            for _, op in kinds)
        self.keyers = tuple(_keyer(service, op) for service, op in kinds)

    def __len__(self) -> int:
        return len(self.at)

    def iter_ops(self) -> Iterator[ScheduledOp]:
        """Stream every op as a transient view (O(1) extra memory)."""
        return (ScheduledOp(i, at, *self.kinds[k], key, self.kind_nbytes[k])
                for i, at, k, key in self.rows())

    def rows(self, chunk: int = 8192) -> Iterator[tuple]:
        """Every arrival as ``(index, at, kind id, key)`` of plain scalars,
        unpacked from the columns ``chunk`` arrivals at a time."""
        keyers = self.keyers
        for base in range(0, len(self.at), chunk):
            part = slice(base, base + chunk)
            for i, (at, k, draw) in enumerate(zip(
                    self.at[part].tolist(), self.kind[part].tolist(),
                    self.key_id[part].tolist()), base):
                yield i, at, k, keyers[k](i, draw)


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

    One kernel event per arrival, whose callback starts the operation's
    client generator as a :class:`~repro.simkit.Detached` — no process,
    no start or exit event per op — off the columnar schedule unpacked
    ``flock_size`` arrivals at a time, completions going to the stats
    buffers directly.  Returns ``(outcomes, last_end, events_processed)``.
    """
    from ..core.runner import RunConfig
    from ..simkit import Detached, Environment

    env = Environment()
    account = backend._make_account(
        env, RunConfig(seed=config.seed, label="load"))
    clients = _clients(account)

    setup = env.process(_setup(clients, config), name="load-setup")
    env.run(until=setup)
    origin = env.now

    n = len(flock)
    #: -1 = never completed (impossible after run), 0 = error, 1 = ok.
    outcomes = np.full(n, -1, dtype=np.int8)
    pending = n
    done = env.event()
    last_end = 0.0
    chunk = config.flock_size
    kind_nbytes = flock.kind_nbytes
    labels = flock.labels
    starters = _op_starters(clients, flock.kinds, kind_nbytes)
    arrivals = flock.rows(chunk)
    #: The arrival the armed kernel event stands for.
    head = None

    #: Completions not yet flushed, flat (start, end, ok, kind id, ...).
    buf: List[object] = []

    def flush() -> None:
        if buf:
            ks = buf[3::4]
            agg.record_chunk(buf[0::4], buf[1::4], oks=buf[2::4],
                             nbytes=[kind_nbytes[k] for k in ks],
                             operations=[labels[k] for k in ks])
            buf.clear()

    def finish(i: int, k: int, started: float, ok: bool, value) -> None:
        nonlocal pending, last_end
        if not ok and not isinstance(value, StorageError):
            raise value  # a bug, not a refused op: out of env.run
        outcomes[i] = ok
        end = env.now - origin
        buf.extend((started, end, ok, k))
        if len(buf) >= 4 * chunk:
            flush()
        if end > last_end:
            last_end = end
        pending -= 1
        if pending == 0:
            done.succeed()

    def arrive(_event=None) -> None:
        """Start every op due now — after arming the next arrival, whose
        event thereby queues ahead of whatever those ops schedule: the
        ``(time, priority, seq)`` order the goldens were recorded in."""
        nonlocal head
        now = env.now
        due = [] if head is None else [head]
        for head in arrivals:
            wait = origin + head[1] - now
            if wait > 0:
                env.timeout(wait).callbacks.append(arrive)
                break
            due.append(head)
        started = now - origin
        for i, _at, k, key in due:
            Detached(env, starters[k](i, key),
                     partial(finish, i, k, started))

    if n:
        arrive()
        env.run(until=done)
    flush()
    return outcomes, last_end, env.events_processed
