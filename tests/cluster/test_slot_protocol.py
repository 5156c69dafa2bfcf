"""The lean slot protocol against a semaphore that asks the kernel for everything.

``repro.simkit.Resource`` takes a free slot on the spot and, on release,
hands the slot straight to the oldest waiter; only a waiter's grant is a
kernel event.  The oracle below is the ``Resource`` this repo had before:
every grant — also an uncontended one — and every release is an event the
scheduler delivers.  Over random arrival instants (drawn from a coarse
grid, so exact ties are the rule), capacities, occupancies (zero and equal
ones included) and interrupts of waiters and holders, both must grant in
the same order at the same instants and complete at the same instants, as
a recorder around ``serve`` sees them.

One difference is by design and is pinned by
``TestInterruptAtTheGrantInstant`` instead: a requester interrupted at the
very instant it took a free slot, by an event queued *after* its arrival.
The oracle's grant is then still in the scheduler and the request is
withdrawn before delivery; the lean holder has held for zero seconds.  The
property test starts its interrupters before its requesters, which puts
their events first at every instant, so that it explores every other tie —
including an interrupt that reaches a waiter whose grant has been triggered
but not delivered (two interrupts at one instant: the holder's, then the
next waiter's).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import PartitionServer
from repro.simkit import (
    Environment,
    Event,
    Interrupt,
    Resource,
    Timeout,
)

# -- the oracle: the parent commit's Resource, verbatim in behaviour ---------


class OracleRequest(Event):
    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_val, exc_tb):
        self.resource.release(self)


class OracleRelease(Event):
    def __init__(self, resource, request):
        super().__init__(resource.env)
        self.request = request
        resource._do_release(self)
        self.succeed()


class OracleResource:
    """Every grant and every release is an event the kernel delivers."""

    def __init__(self, env, capacity=1):
        self.env = env
        self.capacity = capacity
        self.users = []
        self.queue = []

    @property
    def count(self):
        return len(self.users)

    def request(self):
        return OracleRequest(self)

    def release(self, request):
        return OracleRelease(self, request)

    def _do_request(self, request):
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _do_release(self, release):
        request = release.request
        if request in self.users:
            self.users.remove(request)
            while self.queue and len(self.users) < self.capacity:
                nxt = self.queue.pop(0)
                self.users.append(nxt)
                nxt.succeed()
        elif request in self.queue:
            self.queue.remove(request)


class OracleServer:
    """The parent's ``PartitionServer.serve`` over the oracle semaphore
    (counting completed holds only, as the lean one does)."""

    def __init__(self, env, name, slots):
        self.env = env
        self.slots = OracleResource(env, capacity=slots)
        self.ops_served = 0
        self.bytes_served = 0

    def serve(self, occupancy, nbytes=0):
        with self.slots.request() as req:
            yield req
            yield self.env.timeout(occupancy)
            self.ops_served += 1
            self.bytes_served += nbytes


# -- one scenario, either server ---------------------------------------------


def recorded(env, serve, name, log):
    """``yield from serve``, logging (instant, name, wait) when the hold
    starts — ``serve`` yields its occupancy timeout — and (instant, name,
    occupancy) when it completes."""
    arrived = env.now
    started = None
    event = next(serve)
    while True:
        if isinstance(event, Timeout) and started is None:
            started = env.now
            log["grants"].append((started, name, started - arrived))
        try:
            value = yield event
        except BaseException as exc:
            throw = exc
        else:
            throw = None
        try:
            event = serve.throw(throw) if throw else serve.send(value)
        except StopIteration:
            log["completions"].append((env.now, name, env.now - started))
            return


GRID = 0.5

_REQUEST = st.tuples(
    st.integers(0, 8),                              # arrival, grid steps
    st.integers(0, 4),                              # occupancy, grid steps
    st.one_of(st.none(), st.integers(0, 12)),       # interrupt instant
)
_SCENARIO = st.lists(_REQUEST, min_size=1, max_size=10)


def run_scenario(server_cls, capacity, requests):
    env = Environment()
    server = server_cls(env, "s", capacity)
    log = {"grants": [], "completions": []}
    outcomes = {}
    procs = {}

    def requester(i, arrival, occupancy):
        try:
            yield env.timeout(arrival * GRID)
            yield from recorded(env, server.serve(occupancy * GRID,
                                                  nbytes=i + 1), f"r{i}", log)
        except Interrupt:
            outcomes[i] = ("interrupted", env.now)
        else:
            outcomes[i] = ("served", env.now)

    def interrupter(i, at):
        yield env.timeout(at * GRID)
        if procs[i].is_alive:
            procs[i].interrupt("recycle")

    for i, (_arrival, _occupancy, at) in enumerate(requests):
        if at is not None:
            env.process(interrupter(i, at), name=f"int-{i}")
    for i, (arrival, occupancy, _at) in enumerate(requests):
        procs[i] = env.process(requester(i, arrival, occupancy), name=f"r{i}")
    env.run()
    assert server.slots.count == 0 and len(server.slots.queue) == 0
    return {
        **log,
        "outcomes": outcomes,
        "ops_served": server.ops_served,
        "bytes_served": server.bytes_served,
        "end": env.now,
    }


# Two interrupted holders at t=1 free both slots: the first goes to waiter
# r0 as a grant event, and r1, arriving at that instant, must not overtake it.
_NEWCOMER_BEHIND_UNDELIVERED_GRANT = [
    (1, 0, None), (2, 0, None), (0, 2, 2), (0, 2, 2)]
# r2's grant is withdrawn at the instant it was triggered.
_UNDELIVERED_GRANT_WITHDRAWN = [(0, 2, 2), (0, 3, 2), (0, 0, 2)]
# Holds that end, start and are interrupted at t=0.5 on two slots: the input
# that showed a busy-time monitor wrong (0.5 where the holds' union is 1.0).
_TWO_GRANTS_AT_ONE_INSTANT = [
    (1, 0, None), (0, 1, 1), (0, 1, 1), (1, 1, None), (0, 0, 1)]


@given(capacity=st.integers(1, 4), requests=_SCENARIO)
@example(capacity=2, requests=_NEWCOMER_BEHIND_UNDELIVERED_GRANT)
@example(capacity=2, requests=_UNDELIVERED_GRANT_WITHDRAWN)
@example(capacity=2, requests=_TWO_GRANTS_AT_ONE_INSTANT)
@settings(max_examples=400, deadline=None)
def test_lean_serve_matches_the_kernel_scheduled_oracle(capacity, requests):
    assert run_scenario(PartitionServer, capacity, requests) == \
        run_scenario(OracleServer, capacity, requests)


def _user_with_request(env, resource, log, i, arrival, occupancy):
    """The event-shaped face: ``with resource.request()`` as before."""
    try:
        yield env.timeout(arrival * GRID)
        with resource.request() as req:
            yield req
            log["grant"].append((env.now, i))
            yield env.timeout(occupancy * GRID)
            log["done"].append((env.now, i))
    except Interrupt:
        log["interrupted"].append((env.now, i))


@given(capacity=st.integers(1, 4), requests=_SCENARIO)
@example(capacity=2, requests=_NEWCOMER_BEHIND_UNDELIVERED_GRANT)
@settings(max_examples=200, deadline=None)
def test_request_context_manager_matches_the_oracle(capacity, requests):
    logs = []
    for cls in (Resource, OracleResource):
        env = Environment()
        resource = cls(env, capacity=capacity)
        # Grants, completions and interrupts are three sequences: a lean
        # holder runs on at once, ahead of unrelated events of the instant
        # (another holder's completion, say) that the oracle's holder
        # queues behind, so one merged log would order those differently.
        log = {"grant": [], "done": [], "interrupted": []}
        procs = {}

        def interrupter(i, at, env=env, procs=procs):
            yield env.timeout(at * GRID)
            if procs[i].is_alive:
                procs[i].interrupt()

        for i, (_arrival, _occupancy, at) in enumerate(requests):
            if at is not None:
                env.process(interrupter(i, at))
        for i, (arrival, occupancy, _at) in enumerate(requests):
            procs[i] = env.process(_user_with_request(
                env, resource, log, i, arrival, occupancy))
        env.run()
        assert resource.count == 0 and len(resource.queue) == 0
        logs.append(log)
    assert logs[0] == logs[1]


class TestInterruptAtTheGrantInstant:
    """The one tie the two protocols resolve differently, by design."""

    def test_zero_length_hold_then_the_slot_passes_on(self):
        env = Environment()
        server = PartitionServer(env, "s", slots=1)
        log = []
        holds = {"grants": [], "completions": []}

        def requester(name, occupancy):
            try:
                yield from recorded(env, server.serve(occupancy), name, holds)
                log.append((name, "served", env.now))
            except Interrupt:
                log.append((name, "interrupted", env.now))

        def late_interrupter(target):
            yield env.timeout(0.0)
            target.interrupt()

        first = env.process(requester("first", 5.0))
        env.process(requester("second", 2.0))
        # Started after ``first``: its event at t=0 follows the arrival.
        env.process(late_interrupter(first))
        env.run()
        assert log == [("first", "interrupted", 0.0), ("second", "served", 2.0)]
        # Both took the slot, the hand-over at t=0.
        assert holds["grants"] == [(0.0, "first", 0.0), (0.0, "second", 0.0)]
        assert server.ops_served == 1
