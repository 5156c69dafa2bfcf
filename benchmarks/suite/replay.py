"""Layer replays: drive one layer's public API with a captured op log.

A *log* is the sequence of storage round trips a workload made, as the
suite's own pipeline observer saw them: ``(descriptor, started_at,
finished_at, ok)`` in completion order.  Each function below replays
that log against one layer in isolation (a bare ``Pipeline``, a bare
``StorageAccountState`` on a manual clock, ``StorageCluster.execute`` in
an otherwise empty ``Environment``) and wraps every call in a span.

The descriptor says which queue, partition or blob and how many bytes,
but not which message or row, so the state replays pick them in FIFO
order: a delete removes the oldest outstanding get, a point query reads
the partition's rows round-robin.  The cost of these calls depends on
queue depth and entity size, which are reproduced, not on the identity
of the row.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from measure import Spans

#: One captured round trip: (OpDescriptor, started_at, finished_at, ok).
Entry = Tuple[object, float, float, bool]

GET_VISIBILITY_S = 3600.0


def make_recorder(log: List[Entry]):
    """A front-of-stack observer appending every round trip to ``log``.

    It only reads the context, so seeded results stay bit-identical
    (checked against the untraced digest by the callers).
    """
    from repro.pipeline import Interceptor

    class Recorder(Interceptor):
        name = "suite-recorder"

        def after(self, ctx) -> None:
            log.append((ctx.op, ctx.started_at, ctx.finished_at, True))

        def failed(self, ctx, exc) -> None:
            log.append((ctx.op, ctx.started_at, ctx.finished_at, False))

    return Recorder()


def in_start_order(log: Sequence[Entry]) -> List[int]:
    """Log indices ordered by admission instant (stable on ties)."""
    return sorted(range(len(log)), key=lambda i: log[i][1])


def replay_pipeline(log: Sequence[Entry], spans: Spans, parent: int,
                    seed: int) -> Dict[str, float]:
    """``run_before`` then ``run_after`` / ``run_failed`` per round trip,
    on a fresh account pipeline (fault stage + throttle targets), at the
    captured admission instants."""
    from repro.cluster import StorageCluster
    from repro.pipeline import OpContext
    from repro.simkit import Environment
    from repro.storage.errors import StorageError

    pipeline = StorageCluster(Environment(), seed=seed).pipeline
    clock = time.perf_counter
    admitted = rejected = 0
    for i in in_start_order(log):
        desc, started, finished, _ok = log[i]
        ctx = OpContext(op=desc, backend="sim", started_at=started)
        t0 = clock()
        try:
            pipeline.run_before(ctx)
        except StorageError as exc:
            ctx.finished_at = started
            pipeline.run_failed(ctx, exc)
            spans.add("pipeline.reject", t0, clock(), parent, i)
            rejected += 1
        else:
            ctx.finished_at = finished
            pipeline.run_after(ctx)
            spans.add("pipeline.admit", t0, clock(), parent, i)
            admitted += 1
    return {"admitted": admitted, "rejected": rejected}


class StateReplay:
    """Applies captured descriptors to a bare ``StorageAccountState``."""

    TABLE = "suitet"

    def __init__(self, spans: Spans) -> None:
        from repro.cluster.ops import OpKind
        from repro.storage import (LIMITS_2012, ManualClock,
                                   StorageAccountState)

        self.spans = spans
        self.clock = ManualClock()
        self.state = StorageAccountState("suitereplay", self.clock,
                                         LIMITS_2012)
        self.outstanding: Dict[str, List[Tuple[str, str]]] = {}
        self.rows: Dict[str, List[str]] = {}
        self.cursor: Dict[str, int] = {}
        self.row_ids = 0
        self.texts: Dict[int, str] = {}
        self.depths: List[int] = []
        self.query_units: List[int] = []
        self.skipped = 0
        k = OpKind
        self.handlers = {
            k.CREATE_QUEUE: self._create_queue,
            k.PUT_MESSAGE: self._put, k.PEEK_MESSAGE: self._peek,
            k.GET_MESSAGE: self._get, k.DELETE_MESSAGE: self._delete,
            k.GET_MESSAGE_COUNT: self._count,
            k.CREATE_TABLE: self._create_table,
            k.INSERT_ENTITY: self._insert, k.QUERY_ENTITY: self._query,
            k.UPDATE_ENTITY: self._upsert, k.MERGE_ENTITY: self._upsert,
            k.DELETE_ENTITY: self._delete_entity,
            k.CREATE_CONTAINER: self._create_container,
            k.UPLOAD_BLOB: self._upload, k.DOWNLOAD_BLOB: self._download,
        }

    def apply(self, desc, at: float, parent: int, op_id: int,
              payload=None) -> None:
        """Apply one round trip's state change at clock reading ``at``."""
        handler = self.handlers.get(desc.kind)
        if handler is None:
            self.skipped += 1
            return
        if at > self.clock.now():
            self.clock.set(at)
        call = handler(desc, payload)
        if call is None:
            self.skipped += 1
            return
        t0 = time.perf_counter()
        call()
        self.spans.add(f"storage.{desc.service.value}", t0,
                       time.perf_counter(), parent, op_id)

    def size_next_visible(self, desc, at: float, parent: int,
                          op_id: int) -> None:
        """The admission-time ``peek_messages(1)`` of a get or peek."""
        if at > self.clock.now():
            self.clock.set(at)
        queue = self._queue(desc)
        t0 = time.perf_counter()
        queue.peek_messages(1)
        self.spans.add("storage.queue", t0, time.perf_counter(), parent,
                       op_id)

    # Each handler resolves its target outside the span and returns the
    # one state-machine call to time (or None when the log gives it
    # nothing to act on, e.g. a delete with no outstanding get).

    def _queue(self, desc):
        return self.state.queues.create_queue(desc.partition)  # idempotent

    def _create_queue(self, desc, payload):
        return lambda: self.state.queues.create_queue(desc.partition)

    def _put(self, desc, payload):
        from repro.storage import SyntheticContent
        queue = self._queue(desc)
        data = (payload if payload is not None
                else SyntheticContent(desc.nbytes, seed=len(self.depths)))
        return lambda: queue.put_message(data)

    def _note_depth(self, queue) -> None:
        self.depths.append(queue.approximate_message_count())

    def _peek(self, desc, payload):
        queue = self._queue(desc)
        self._note_depth(queue)
        return queue.peek_message

    def _get(self, desc, payload):
        queue = self._queue(desc)
        self._note_depth(queue)
        held = self.outstanding.setdefault(desc.partition, [])

        def call() -> None:
            msg = queue.get_message(visibility_timeout=GET_VISIBILITY_S)
            if msg is not None:
                held.append((msg.message_id, msg.pop_receipt))
        return call

    def _delete(self, desc, payload):
        held = self.outstanding.get(desc.partition)
        if not held:
            return None
        queue = self._queue(desc)
        message_id, receipt = held.pop(0)
        return lambda: queue.delete_message(message_id, receipt)

    def _count(self, desc, payload):
        return self._queue(desc).approximate_message_count

    def _table(self):
        return self.state.tables.create_table(self.TABLE)

    def _create_table(self, desc, payload):
        return self._table

    def _props(self, desc, payload):
        if payload is not None:
            return payload
        # UTF-16 on the wire: two bytes per character.
        chars = max(1, desc.nbytes // 2)
        text = self.texts.get(chars)
        if text is None:
            text = self.texts[chars] = "x" * chars
        return {"v": text}

    def _insert(self, desc, payload):
        table = self._table()
        self.row_ids += 1
        row = f"r{self.row_ids}"
        self.rows.setdefault(desc.partition, []).append(row)
        props = self._props(desc, payload)
        return lambda: table.insert(desc.partition, row, props)

    def _next_row(self, partition: str) -> Optional[str]:
        rows = self.rows.get(partition)
        if not rows:
            return None
        at = self.cursor.get(partition, 0)
        self.cursor[partition] = at + 1
        return rows[at % len(rows)]

    def _query(self, desc, payload):
        table = self._table()
        self.query_units.append(desc.units)
        if desc.units > 1:
            return lambda: table.query_partition(desc.partition)
        row = self._next_row(desc.partition)
        if row is None:
            return None
        return lambda: table.get(desc.partition, row)

    def _upsert(self, desc, payload):
        table = self._table()
        row = self._next_row(desc.partition)
        if row is None:
            row = "r0"
            self.rows.setdefault(desc.partition, []).append(row)
        props = self._props(desc, payload)
        return lambda: table.insert_or_replace(desc.partition, row, props)

    def _delete_entity(self, desc, payload):
        rows = self.rows.get(desc.partition)
        if not rows:
            return None
        table = self._table()
        row = rows.pop(0)
        return lambda: table.delete(desc.partition, row)

    def _container(self, desc):
        name = desc.partition.partition("/")[0]
        return self.state.blobs.create_container(name)

    def _create_container(self, desc, payload):
        if "/" in desc.partition:
            return None  # lease/snapshot/page-blob metadata round trips
        return lambda: self._container(desc)

    def _upload(self, desc, payload):
        from repro.storage import SyntheticContent
        container = self._container(desc)
        blob = desc.partition.partition("/")[2]
        data = (payload if payload is not None
                else SyntheticContent(desc.nbytes, seed=0))

        def call() -> None:
            if blob not in container:
                container.create_block_blob(blob)
            container.get_block_blob(blob).upload(data)
        return call

    def _download(self, desc, payload):
        from repro.storage import BlockBlobState
        container = self._container(desc)
        blob = desc.partition.partition("/")[2]
        if blob not in container:
            return None
        target = container.get_blob(blob)
        if not isinstance(target, BlockBlobState):
            return None
        return lambda: target.download().to_bytes()


def replay_state(log: Sequence[Entry], spans: Spans,
                 parent: int) -> StateReplay:
    """Replay the state machines in the order the run touched them.

    A completed round trip applies its change at its completion instant.
    A queue get or peek also reads the queue once at *admission*, refused
    or not: the registry peeks the next visible message there to size
    the round trip.  Both kinds of event are merged by instant.
    """
    from repro.cluster.ops import OpKind

    sized_at_admission = (OpKind.GET_MESSAGE, OpKind.PEEK_MESSAGE)
    events = []
    for i, (desc, started, finished, ok) in enumerate(log):
        if desc.kind in sized_at_admission:
            events.append((started, 0, i))
        if ok:
            events.append((finished, 1, i))
    events.sort()
    replay = StateReplay(spans)
    for at, applies, i in events:
        if applies:
            replay.apply(log[i][0], at, parent, i)
        else:
            replay.size_next_visible(log[i][0], at, parent, i)
    return replay


def replay_execute(log: Sequence[Entry], spans: Spans, seed: int,
                   scheduler: str) -> Tuple[int, int]:
    """``StorageCluster.execute`` for every round trip, each in its own
    process started at its captured admission instant, in an
    ``Environment`` that holds nothing else.  One span covers the pass;
    returns ``(span id, kernel events processed)``."""
    from repro.cluster import StorageCluster
    from repro.simkit import Environment
    from repro.storage.errors import StorageError

    env = Environment(scheduler=scheduler)
    cluster = StorageCluster(env, seed=seed)

    def one(desc):
        try:
            yield from cluster.execute(desc)
        except StorageError:
            pass

    def injector():
        for i in in_start_order(log):
            desc, started, _finished, _ok = log[i]
            wait = started - env.now
            if wait > 0:
                yield env.timeout(wait)
            env.process(one(desc))

    t0 = time.perf_counter()
    env.process(injector())
    env.run()
    span = spans.add("cluster.execute", t0, time.perf_counter())
    return span, env.events_processed


def kernel_us_per_event(spans: Spans, scheduler: str, events: int) -> float:
    """The sleep/resume kernel loop, sized to ``events`` (capped so the
    pass stays around a second), best of three."""
    from repro.bench.perf import kernel_events_per_sec

    rounds = max(10, min(events, 200_000) // 100)
    t0 = time.perf_counter()
    rate = kernel_events_per_sec(procs=100, rounds=rounds, repeats=3,
                                 scheduler=scheduler)["events_per_sec"]
    spans.add(f"simkit.{scheduler}", t0, time.perf_counter())
    return 1e6 / rate


def process_spawn_us(spans: Spans, scheduler: str, count: int) -> float:
    """``env.process()`` create, first resume, exit, for a one-yield
    generator: what one op costs the kernel before it does anything."""
    from repro.simkit import Environment

    def one(env):
        yield env.timeout(0.0)

    count = max(100, min(count, 20_000))
    env = Environment(scheduler=scheduler)
    t0 = time.perf_counter()
    for _ in range(count):
        env.process(one(env))
    env.run()
    t1 = time.perf_counter()
    spans.add("simkit.process_spawn", t0, t1)
    return (t1 - t0) / count * 1e6
