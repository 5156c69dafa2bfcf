"""Partition-server bookings against the semaphore they replaced.

``PartitionServer.book`` decides a request's hold the moment it arrives,
first come, first served, and its round trip waits for one event.  The
first oracle below is the ``serve`` this repo had before bookings: a FIFO
``simkit.Resource`` held for the occupancy, a grant event for every
request that queued.  Over random arrival instants (drawn from a coarse
grid, so exact ties are the rule), capacities, occupancies (zero and equal
ones included), response legs and interrupts of waiters and holders, both
must grant in the same order at the same instants, complete holds at the
same instants, and end every request the same way at the same instant.

One tie differs by design and is pinned by ``TestInterruptAtTheGrantInstant``
instead: a request interrupted at the very instant it took a slot freed at
that instant, by an event queued *after* its arrival.  The semaphore's
slot is then still held (the holder's occupancy timeout comes later in
the instant), so the request is queued and withdrawn; the booking took
the slot on the spot and holds it for zero seconds.  Every instant and
count agrees either way.  The property test starts its interrupters before
its requesters, which puts their events first at every instant, so that
it explores every other tie — including an interrupt that reaches a hold
at the instant it ends, and a waiter at the instant a cut hands it its
slot (two interrupts at one instant: the holder's, then the waiter's).

The second oracle holds ``simkit.Resource`` itself, still a kernel
primitive, to the semaphore that asked the kernel for every grant and
release.
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

from tests.cluster.bookings import idle, round_trip

# -- the first oracle: the parent commit's serve, over simkit.Resource -------


class ResourceServer:
    """``PartitionServer`` as it was before bookings."""

    def __init__(self, env, name, slots):
        self.env = env
        self.slots = Resource(env, capacity=slots)
        self.ops_served = 0
        self.bytes_served = 0

    def serve(self, occupancy, nbytes=0):
        slots = self.slots
        if not slots.try_acquire():
            request = slots.request()
            try:
                yield request
            except BaseException:
                slots.release(request)
                raise
        try:
            yield self.env.timeout(occupancy)
            self.ops_served += 1
            self.bytes_served += nbytes
        finally:
            slots.release()


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


def semaphore_trip(env, server, i, occupancy, response, log):
    """``execute``'s round trip before bookings: hold, then respond."""
    yield from recorded(env, server.serve(occupancy, nbytes=i + 1),
                        f"r{i}", log)
    yield env.timeout(response)


def booked_trip(env, server, i, occupancy, response, log):
    """``execute``'s round trip now (``bookings.round_trip``), logging each
    hold as ``recorded`` does once the booking can no longer move."""
    arrived = env.now
    name = f"r{i}"
    booking = server.book(occupancy, response)
    order = len(log["order"])
    log["order"].append(name)
    try:
        yield booking.event
    except Interrupt:
        now = env.now
        started = booking.start < now or (
            booking.start == now and booking not in server._queued)
        ended = booking.end < now
        server.cancel(booking, i + 1)
        if started:
            log["grants"].append((booking.start, order, name,
                                  booking.start - arrived))
        if ended:
            log["completions"].append((booking.end, name,
                                       booking.end - booking.start))
        raise
    server.ops_served += 1
    server.bytes_served += i + 1
    log["grants"].append((booking.start, order, name, booking.start - arrived))
    log["completions"].append((booking.end, name, booking.end - booking.start))


GRID = 0.5

_REQUEST = st.tuples(
    st.integers(0, 8),                              # arrival, grid steps
    st.integers(0, 4),                              # occupancy, grid steps
    st.one_of(st.none(), st.integers(0, 12)),       # interrupt, grid steps
)
_SCENARIO = st.lists(_REQUEST, min_size=1, max_size=10)
_HALF_STEP_SCENARIO = st.lists(st.tuples(
    st.integers(0, 8), st.integers(0, 4),
    st.one_of(st.none(), st.integers(0, 24))), min_size=1, max_size=10)


def run_scenario(booked, capacity, requests, response):
    """Grants in grant order, completions and outcomes of one scenario
    (interrupt instants in half grid steps: a cut moves holds off the
    grid)."""
    env = Environment()
    server = (PartitionServer if booked else ResourceServer)(
        env, "s", capacity)
    trip = booked_trip if booked else semaphore_trip
    log = {"grants": [], "completions": [], "order": []}
    outcomes = {}
    procs = {}

    def requester(i, arrival, occupancy):
        try:
            yield env.timeout(arrival * GRID)
            yield from trip(env, server, i, occupancy * GRID,
                            response * GRID, log)
        except Interrupt:
            outcomes[i] = ("interrupted", env.now)
        else:
            outcomes[i] = ("served", env.now)

    def interrupter(i, at):
        yield env.timeout(at * GRID / 2)
        if procs[i].is_alive:
            procs[i].interrupt("recycle")

    for i, (_arrival, _occupancy, at) in enumerate(requests):
        if at is not None:
            env.process(interrupter(i, at), name=f"int-{i}")
    for i, (arrival, occupancy, _at) in enumerate(requests):
        procs[i] = env.process(requester(i, arrival, occupancy), name=f"r{i}")
    env.run()
    if booked:
        assert idle(server)
        # A booking is logged when its hold can no longer move: put the
        # grants in grant order, the instant then the arrival order.
        log["grants"] = [(t, name, wait)
                         for t, _, name, wait in sorted(log["grants"])]
    else:
        assert server.slots.count == 0 and len(server.slots.queue) == 0
    del log["order"]
    return {
        **log,
        "completions": sorted(log["completions"]),
        "outcomes": outcomes,
        "ops_served": server.ops_served,
        "bytes_served": server.bytes_served,
    }


# Two interrupted holders at t=1 free both slots: the first goes to waiter
# r0, and r1, arriving at that instant, must not overtake it.
_NEWCOMER_BEHIND_A_HANDED_ON_SLOT = [
    (1, 0, None), (2, 0, None), (0, 2, 4), (0, 2, 4)]
# r1 is handed r0's slot at t=0.25 and is interrupted at that instant.
_WAITER_INTERRUPTED_AT_ITS_HAND_OVER = [(0, 1, 1), (0, 0, 1)]
# A holder and a waiter interrupted where the holder's hold would end.
_INTERRUPTS_AT_A_HOLDS_END = [(0, 3, 6), (0, 0, 6), (1, 2, None)]
# A waiter withdrawn with a waiter behind it, both with response legs.
_WAITER_WITHDRAWN = [(0, 2, None), (0, 3, 1), (0, 0, None), (1, 1, 3)]


@given(capacity=st.integers(1, 4), requests=_HALF_STEP_SCENARIO,
       response=st.integers(0, 2))
@example(capacity=2, requests=_NEWCOMER_BEHIND_A_HANDED_ON_SLOT, response=0)
@example(capacity=1, requests=_WAITER_INTERRUPTED_AT_ITS_HAND_OVER, response=0)
@example(capacity=1, requests=_INTERRUPTS_AT_A_HOLDS_END, response=1)
@example(capacity=1, requests=_WAITER_WITHDRAWN, response=1)
@settings(max_examples=400, deadline=None)
def test_bookings_match_the_semaphore_oracle(capacity, requests, response):
    assert run_scenario(True, capacity, requests, response) == \
        run_scenario(False, capacity, requests, response)


class TestInterruptAtTheGrantInstant:
    """The one tie the two protocols resolve differently, by design."""

    def test_zero_length_hold_then_the_slot_passes_on(self):
        env = Environment()
        server = PartitionServer(env, "s", slots=1)
        log = []
        bookings = []

        def requester(name, arrival, occupancy):
            try:
                yield env.timeout(arrival)
                yield from round_trip(server, occupancy,
                                      booked=bookings.append)
                log.append((name, "served", env.now))
            except Interrupt:
                log.append((name, "interrupted", env.now))

        def late_interrupter(target):
            yield env.timeout(1.0)
            target.interrupt()

        env.process(requester("first", 0.0, 1.0))
        second = env.process(requester("second", 1.0, 5.0))
        env.process(requester("third", 1.0, 2.0))
        # Started after ``second``: its event at t=1 follows the arrival.
        env.process(late_interrupter(second))
        env.run()
        assert log == [("second", "interrupted", 1.0),
                       ("first", "served", 1.0),
                       ("third", "served", 3.0)]
        # ``second`` took the slot at t=1 and held it for zero seconds
        # (the semaphore queued it and withdrew it); ``third`` has it
        # from that instant.
        assert [(b.start, b.end) for b in bookings] == [
            (0.0, 1.0), (1.0, 1.0), (1.0, 3.0)]
        assert server.ops_served == 2


# -- the second oracle: the semaphore before the lean slot protocol ----------


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


# Two interrupted holders at t=1 free both slots: the first goes to waiter
# r0 as a grant event, and r1, arriving at that instant, must not overtake it.
_NEWCOMER_BEHIND_UNDELIVERED_GRANT = [
    (1, 0, None), (2, 0, None), (0, 2, 2), (0, 2, 2)]


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


