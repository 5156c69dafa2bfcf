"""The FIFO scan's cursor against the plain scan it shortcuts.

``QueueState`` starts a FIFO visibility scan behind the run of messages it
last saw invisible, while the clock is below a lower bound of their
visibility times.  The oracle is the same queue with the scan that walks
every message from the head.  A stateful machine drives both through
puts, gets, peeks, deletes, updates, forced visibility, the clock moving
forward and stepping back (as ``geo.ReplayClock`` does), and expiry, and
asserts the same returns and the same final state after every step.
"""

from typing import List, Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.errors import MessageNotFoundError
from repro.storage.queue.state import (
    QueueMessage,
    QueueServiceState,
    QueueState,
)


class SteppingClock:
    """A clock a test may move either way."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


class PlainScanQueue(QueueState):
    """The oracle: every FIFO scan starts at the head."""

    def _visible_indices(self, now: float,
                         limit: Optional[int] = None) -> List[int]:
        idx: List[int] = []
        for i, m in enumerate(self._messages):
            if m.visible(now):
                idx.append(i)
                if limit is not None and len(idx) >= limit:
                    break
        return idx


def _fields(m):
    return (m.message_id, m.content.to_bytes(), m.insertion_time,
            m.expiration_time, m.next_visible_time, m.dequeue_count,
            m.pop_receipt)


def _outcome(call):
    try:
        result = call()
    except MessageNotFoundError as exc:
        return ("error", str(exc))
    if isinstance(result, list):
        return [_fields(m) for m in result]
    if isinstance(result, QueueMessage):
        return _fields(result)
    return result


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])


class CursorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = SteppingClock()
        self.queues = []
        for cls in (QueueState, PlainScanQueue):
            queue = QueueServiceState(self.clock).create_queue("cursor")
            queue.__class__ = cls
            self.queues.append(queue)
        #: (message id, pop receipt) pairs handed out, stale ones included.
        self.receipts = []
        self.ids = []

    def both(self, op):
        cursor, plain = (_outcome(lambda q=q: op(q)) for q in self.queues)
        assert cursor == plain
        return cursor

    @rule(delay=_TIMES, ttl=st.sampled_from([None, 3.0, 8.0]))
    def put(self, delay, ttl):
        got = self.both(lambda q: q.put_message(
            b"m", ttl=ttl, visibility_delay=delay))
        self.ids.append(got[0])

    @rule(n=st.integers(1, 3), timeout=st.sampled_from([0.5, 1.0, 4.0]))
    def get(self, n, timeout):
        got = self.both(lambda q: q.get_messages(n, visibility_timeout=timeout))
        self.receipts += [(m[0], m[-1]) for m in got]

    @rule(n=st.integers(1, 3))
    def peek(self, n):
        self.both(lambda q: q.peek_messages(n))

    @rule(data=st.data())
    def delete(self, data):
        if self.receipts:
            mid, receipt = data.draw(st.sampled_from(self.receipts))
            self.both(lambda q: q.delete_message(mid, receipt))

    @rule(data=st.data(), timeout=_TIMES)
    def update(self, data, timeout):
        if self.receipts:
            mid, receipt = data.draw(st.sampled_from(self.receipts))
            got = self.both(lambda q: q.update_message(
                mid, receipt, visibility_timeout=timeout))
            if got[0] != "error":
                self.receipts.append((mid, got[-1]))

    @rule(data=st.data())
    def make_visible(self, data):
        if self.ids:
            mid = data.draw(st.sampled_from(self.ids))
            self.both(lambda q: q.make_visible(mid))

    @rule(dt=st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    def advance(self, dt):
        self.clock.t += dt

    @rule(dt=st.sampled_from([0.25, 1.0, 3.0]))
    def step_back(self, dt):
        self.clock.t = max(0.0, self.clock.t - dt)

    @rule()
    def expire(self):
        self.clock.t += 8.0
        self.both(lambda q: q.approximate_message_count())

    @invariant()
    def same_state(self):
        cursor, plain = ([_fields(m) for m in q._messages]
                         for q in self.queues)
        assert cursor == plain
        assert (self.queues[0].visible_message_count()
                == self.queues[1].visible_message_count())


CursorMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None)
TestCursorMatchesThePlainScan = CursorMachine.TestCase


class _Receipt:
    """``data`` for a rule that draws a receipt: the ``i``-th handed out."""

    def __init__(self, machine, i):
        self.machine, self.i = machine, i

    def draw(self, strategy):
        return self.machine.receipts[self.i]


def test_a_delete_inside_the_hidden_head_shortens_it():
    machine = CursorMachine()
    machine.put(0.0, None)
    machine.put(0.0, None)
    machine.get(1, 4.0)
    machine.peek(1)                   # the scan steps over the gotten one
    assert machine.queues[0]._hidden == 1
    machine.delete(_Receipt(machine, 0))
    machine.peek(1)
    machine.same_state()


def test_an_expiry_inside_the_hidden_head_resets_it():
    machine = CursorMachine()
    machine.put(0.0, 3.0)
    machine.put(0.0, None)
    machine.get(1, 4.0)
    machine.peek(1)
    assert machine.queues[0]._hidden == 1
    machine.advance(3.0)              # past its expiry, not its visibility
    machine.peek(1)
    machine.same_state()
