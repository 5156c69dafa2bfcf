"""``ThrottleInterceptor``'s one admission log against a chain of windows.

The interceptor keeps a single log for all of its sliding windows: they
share one length and one clock.  The oracle is what it replaces, one
:class:`~repro.cluster.ratelimit.SlidingWindowThrottle` per target —
account transactions, account bandwidth, one per queue's messages, one
per table partition's entities — charged in that order, each expiring
its own events.  Random op streams (ties, gaps of exactly the window
and longer, cache ops, kinds no keyed window counts) go through both,
and after every op the admit/reject outcome, the error text,
``retry_after`` and every window's in-window sum must agree.  Small limits make every window
reject, including ops that the transaction window admitted and a later
window refused: those keep their earlier charges.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import SlidingWindowThrottle
from repro.cluster.ops import (
    QUEUE_MESSAGE_KINDS,
    TABLE_ENTITY_KINDS,
    OpDescriptor,
    OpKind,
    Service,
)
from repro.pipeline import OpContext, ThrottleInterceptor
from repro.storage import LIMITS_2012, ServerBusyError

WINDOW = 1.0
RETRY_AFTER = 2.5
LIMITS = replace(LIMITS_2012, account_transactions_per_second=10,
                 account_bandwidth_bytes_per_second=40,
                 queue_messages_per_second=3,
                 partition_entities_per_second=4)

KINDS = {
    Service.BLOB: (OpKind.UPLOAD_BLOB, OpKind.DOWNLOAD_BLOB),
    Service.QUEUE: (OpKind.PUT_MESSAGE, OpKind.GET_MESSAGE,
                    OpKind.GET_MESSAGE_COUNT, OpKind.CREATE_QUEUE),
    Service.TABLE: (OpKind.INSERT_ENTITY, OpKind.BATCH,
                    OpKind.CREATE_TABLE),
    Service.CACHE: (OpKind.CACHE_PUT,),
}


class WindowChain:
    """The oracle: a window object per target, charged one after another."""

    def __init__(self) -> None:
        self.tx = SlidingWindowThrottle(
            LIMITS.account_transactions_per_second, WINDOW,
            name="account transactions", retry_after=RETRY_AFTER)
        self.bw = SlidingWindowThrottle(
            LIMITS.account_bandwidth_bytes_per_second, WINDOW,
            name="account bandwidth", retry_after=RETRY_AFTER)
        self.queues = {}
        self.partitions = {}

    def _keyed(self, windows, key, limit, name):
        if key not in windows:
            windows[key] = SlidingWindowThrottle(
                limit, WINDOW, name=name, retry_after=RETRY_AFTER)
        return windows[key]

    def charge(self, op: OpDescriptor, now: float) -> None:
        if op.service is Service.CACHE:
            return
        self.tx.charge(now, op.units)
        if op.nbytes:
            self.bw.charge(now, op.nbytes)
        if op.service is Service.QUEUE and op.kind in QUEUE_MESSAGE_KINDS:
            self._keyed(self.queues, op.partition,
                        LIMITS.queue_messages_per_second,
                        f"queue {op.partition!r} messages"
                        ).charge(now, op.units)
        elif op.service is Service.TABLE and op.kind in TABLE_ENTITY_KINDS:
            self._keyed(self.partitions, op.partition,
                        LIMITS.partition_entities_per_second,
                        f"table partition {op.partition!r} entities"
                        ).charge(now, op.units)


def in_window(throttle: SlidingWindowThrottle, horizon: float) -> float:
    return sum(units for at, units in throttle._events if at > horizon)


def outcome(charge):
    try:
        charge()
    except ServerBusyError as exc:
        return ("busy", str(exc), exc.retry_after)
    return ("ok",)


@st.composite
def op_streams(draw):
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        service = draw(st.sampled_from(sorted(KINDS, key=str)))
        ops.append((
            # 0: a tie; 1.0: exactly one window later; 1.5, 3.0: past it.
            draw(st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 3.0])),
            OpDescriptor(service, draw(st.sampled_from(KINDS[service])),
                         draw(st.sampled_from(["a", "b"])),
                         nbytes=draw(st.sampled_from([0, 0, 1, 7, 16, 39])),
                         units=draw(st.integers(1, 3)))))
    return ops


def put(partition="a", nbytes=0, units=1):
    return OpDescriptor(Service.QUEUE, OpKind.PUT_MESSAGE, partition,
                        nbytes=nbytes, units=units)


def insert(partition="a", nbytes=0, units=1):
    return OpDescriptor(Service.TABLE, OpKind.INSERT_ENTITY, partition,
                        nbytes=nbytes, units=units)


@settings(max_examples=300, deadline=None)
@given(stream=op_streams())
# Transactions: the eleventh unit of one instant.
@example(stream=[(0.0, insert("a", units=3)), (0.0, insert("b", units=3)),
                 (0.0, put("a", units=3)), (0.0, put("b")), (0.0, put("b")),
                 (1.0, put("b"))])
# Bandwidth, after the transaction window admitted the op; once the
# window has passed, its transaction leaves the log with the rest.
@example(stream=[(0.0, put("a", nbytes=39)), (0.5, put("b", nbytes=7)),
                 (0.0, put("b", nbytes=1)), (2.0, put("b", nbytes=39)),
                 (0.0, put("a", nbytes=7))])
# A queue's messages and a partition's entities, after both account
# windows admitted the op.
@example(stream=[(0.0, put("a", nbytes=1, units=3)), (0.0, put("a")),
                 (0.0, insert("b", units=3)), (0.0, insert("b", units=2)),
                 (1.0, put("a", units=3)), (0.0, insert("b", units=2))])
def test_one_log_matches_a_window_per_target(stream):
    log = ThrottleInterceptor(LIMITS, window_s=WINDOW,
                              retry_after_s=RETRY_AFTER)
    chain = WindowChain()
    now = 0.0
    last = None  # the instant of the last op the windows saw
    for gap, op in stream:
        now += gap
        got = outcome(lambda: log.before(OpContext(op, started_at=now)))
        want = outcome(lambda: chain.charge(op, now))
        assert got == want
        if op.service is not Service.CACHE:
            last = now
        if last is None:
            continue
        horizon = last - WINDOW
        assert log._tx == in_window(chain.tx, horizon)
        assert log._bytes == in_window(chain.bw, horizon)
        for sums, windows in ((log._queue_msgs, chain.queues),
                              (log._entities, chain.partitions)):
            assert set(sums) <= set(windows)
            for key, window in windows.items():
                assert sums.get(key, 0.0) == in_window(window, horizon)
