"""AzureBench Queue storage benchmarks (paper Algorithms 3 & 4, Figs 6 & 7).

Two scenarios, exactly as Section IV.B describes:

* **Separate queue per worker** (Algorithm 3, Fig 6): each worker owns
  ``AzureBenchQueue + roleid``; 20,000 messages total are inserted, peeked,
  and gotten+deleted, for message sizes 4 KB → 64 KB (doubling).  The 64 KB
  rung carries 48 KB of payload — "48 KB (49152 Bytes to be precise) is the
  maximum usable size of an Azure queue message".

* **Single shared queue** (Algorithm 4, Fig 7): all workers hammer one
  queue with 32 KB messages, inserting think time between operations (1 s →
  5 s); the total number of transactions stays constant as workers scale,
  and per-round message counts keep the load under the 500 msg/s target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..compute.roles import RoleContext
from ..framework import QueueBarrier
from ..sim import retrying
from ..storage import KB
from ..storage.content import SyntheticContent
from .metrics import PhaseRecorder

__all__ = [
    "SeparateQueueBenchConfig",
    "separate_queue_bench_body",
    "SharedQueueBenchConfig",
    "shared_queue_bench_body",
    "phase_name",
    "OP_PUT",
    "OP_PEEK",
    "OP_GET",
]

OP_PUT = "put"
OP_PEEK = "peek"
OP_GET = "get"


def phase_name(op: str, size: int) -> str:
    """Phase key for one (operation, message size) cell, e.g. ``put_16384``."""
    return f"{op}_{size}"


def usable_payload(size: int, max_payload: int = 48 * KB) -> int:
    """Clamp the nominal message size to the 48 KB usable maximum."""
    return min(size, max_payload)


@dataclass(frozen=True)
class SeparateQueueBenchConfig:
    """Parameters of Algorithm 3.

    Paper values: ``total_messages=20_000``, sizes 4/8/16/32/64 KB.
    """

    queue_prefix: str = "azurebenchqueue"
    total_messages: int = 20_000
    message_sizes: Tuple[int, ...] = (4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB)
    barrier_queue: str = "azurebench-qsync"
    barrier_poll: float = 1.0
    seed: int = 777


def separate_queue_bench_body(config: SeparateQueueBenchConfig):
    """Build the worker body implementing Algorithm 3."""

    def body(ctx: RoleContext):
        env = ctx.env
        qc = ctx.account.queue_client()
        rec = PhaseRecorder(env, ctx.role_id)
        barrier = QueueBarrier(qc, config.barrier_queue, ctx.instance_count,
                               poll_interval=config.barrier_poll, env=env)
        yield from barrier.ensure_queue()

        # "QueueName := AzureBenchQueue + roleid"
        queue_name = f"{config.queue_prefix}{ctx.role_id}"
        yield from retrying(env, lambda: qc.create_queue(queue_name))
        per_worker = max(1, config.total_messages // ctx.instance_count)
        yield from barrier.wait()

        for size in config.message_sizes:
            payload_bytes = usable_payload(size)
            payload = SyntheticContent(payload_bytes, seed=config.seed)

            # -- PutMessage ---------------------------------------------------
            rec.start(phase_name(OP_PUT, size))
            for _ in range(per_worker):
                yield from retrying(env, lambda: qc.put_message(
                    queue_name, payload),
                    on_retry=lambda *_: rec.add_retry())
                rec.add_op(payload_bytes)
            rec.stop()

            # -- PeekMessage ------------------------------------------------
            rec.start(phase_name(OP_PEEK, size))
            for _ in range(per_worker):
                yield from retrying(env, lambda: qc.peek_message(queue_name),
                                    on_retry=lambda *_: rec.add_retry())
                rec.add_op(payload_bytes)
            rec.stop()

            # -- GetMessage + DeleteMessage (timed together, like the paper:
            # "the Get Message operation also includes deletion") ---------
            rec.start(phase_name(OP_GET, size))
            for _ in range(per_worker):
                msg = yield from retrying(env, lambda: qc.get_message(
                    queue_name, visibility_timeout=3600.0),
                    on_retry=lambda *_: rec.add_retry())
                if msg is not None:
                    yield from retrying(env, lambda m=msg: qc.delete_message(
                        queue_name, m.message_id, m.pop_receipt),
                        on_retry=lambda *_: rec.add_retry())
                rec.add_op(payload_bytes)
            rec.stop()

            yield from barrier.wait()

        yield from retrying(env, lambda: qc.delete_queue(queue_name))
        return rec

    return body


@dataclass(frozen=True)
class SharedQueueBenchConfig:
    """Parameters of Algorithm 4.

    Paper values: ``total_transactions=20_000`` per op type and think time,
    32 KB messages, think times 1-5 s, 500 messages per round across all
    workers (to respect the 500 msg/s queue target).
    """

    queue_name: str = "azurebenchqueue"
    message_size: int = 32 * KB
    total_transactions: int = 20_000
    round_messages: int = 500
    think_times: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    barrier_queue: str = "azurebench-qsync"
    barrier_poll: float = 1.0
    seed: int = 888


def shared_phase_name(op: str, think_time: float) -> str:
    """Phase key for one (operation, think time) cell, e.g. ``get_think2``
    (``get_think1.4`` for a fractional think time: distinct times, distinct
    phases)."""
    return f"{op}_think{think_time:g}"


def shared_queue_bench_body(config: SharedQueueBenchConfig):
    """Build the worker body implementing Algorithm 4.

    Per think time: ``rounds = total_transactions / round_messages`` rounds;
    in each round every worker performs ``round_messages / workers`` of each
    operation with think-time pauses between operation groups.  Only
    communication time is recorded: "the reported time only includes the
    time spent in communication with the queue".
    """

    def body(ctx: RoleContext):
        env = ctx.env
        qc = ctx.account.queue_client()
        rec = PhaseRecorder(env, ctx.role_id)
        barrier = QueueBarrier(qc, config.barrier_queue, ctx.instance_count,
                               poll_interval=config.barrier_poll, env=env)
        yield from barrier.ensure_queue()
        yield from retrying(env, lambda: qc.create_queue(config.queue_name))

        payload_bytes = usable_payload(config.message_size)
        payload = SyntheticContent(payload_bytes, seed=config.seed)
        per_round = max(1, config.round_messages // ctx.instance_count)
        rounds = max(1, config.total_transactions // config.round_messages)
        yield from barrier.wait()

        for think_time in config.think_times:
            put_key = shared_phase_name(OP_PUT, think_time)
            peek_key = shared_phase_name(OP_PEEK, think_time)
            get_key = shared_phase_name(OP_GET, think_time)
            # Accumulate communication time across rounds by keeping one
            # recorder phase per op and subtracting think time: we simply
            # time each op group (thinks happen outside the recorded spans).
            put_time = peek_time = get_time = 0.0
            put_ops = peek_ops = get_ops = 0
            for _ in range(rounds):
                t0 = env.now
                for _ in range(per_round):
                    yield from retrying(env, lambda: qc.put_message(
                        config.queue_name, payload))
                    put_ops += 1
                put_time += env.now - t0
                yield env.timeout(think_time)

                t0 = env.now
                for _ in range(per_round):
                    yield from retrying(env, lambda: qc.peek_message(
                        config.queue_name))
                    peek_ops += 1
                peek_time += env.now - t0
                yield env.timeout(think_time)

                t0 = env.now
                for _ in range(per_round):
                    msg = yield from retrying(env, lambda: qc.get_message(
                        config.queue_name, visibility_timeout=3600.0))
                    if msg is not None:
                        yield from retrying(env, lambda m=msg: qc.delete_message(
                            config.queue_name, m.message_id, m.pop_receipt))
                    get_ops += 1
                get_time += env.now - t0
                yield env.timeout(think_time)

            # Store the accumulated communication times as synthetic phases.
            for key, t, ops in ((put_key, put_time, put_ops),
                                (peek_key, peek_time, peek_ops),
                                (get_key, get_time, get_ops)):
                rec.record_span(key, t, ops=ops, nbytes=ops * payload_bytes)
            yield from barrier.wait()

        if ctx.role_id == 0:
            yield from retrying(env, lambda: qc.delete_queue(
                config.queue_name))
        return rec

    return body
