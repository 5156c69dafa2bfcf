"""Property-based tests (hypothesis) on the simkit kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import Detached, Environment, Resource, Store


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_timeouts_fire_in_time_order(delays):
    env = Environment()
    fired = []
    for d in delays:
        t = env.timeout(d)
        t.callbacks.append(lambda e, d=d: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=20),
       capacity=st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_resource_never_overcommitted(delays, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(env, hold):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            yield env.timeout(hold)

    for hold in delays:
        env.process(user(env, hold))
    env.run()
    assert max_seen[0] <= capacity
    assert res.count == 0          # everything released
    assert len(res.queue) == 0


@given(holds=st.lists(st.floats(0.01, 5.0), min_size=2, max_size=15))
@settings(max_examples=50, deadline=None)
def test_resource_grants_fifo(holds):
    env = Environment()
    res = Resource(env, capacity=1)
    grant_order = []

    def user(env, idx, hold):
        # All requests issued at t=0 in index order.
        with res.request() as req:
            yield req
            grant_order.append(idx)
            yield env.timeout(hold)

    for i, hold in enumerate(holds):
        env.process(user(env, i, hold))
    env.run()
    assert grant_order == list(range(len(holds)))


@given(items=st.lists(st.integers(), min_size=1, max_size=40),
       capacity=st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_store_conserves_items(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            got = yield store.get()
            received.append(got)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items       # FIFO and lossless
    assert store.items == []


@given(seed_graph=st.lists(
    st.tuples(st.floats(0.0, 5.0), st.integers(0, 4)),
    min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_random_process_graphs_are_deterministic(seed_graph):
    """The same process graph produces the identical trace twice."""

    def run_once():
        env = Environment()
        trace = []

        def worker(env, wid, delay, fanout):
            yield env.timeout(delay)
            trace.append(("tick", wid, env.now))
            children = []
            for c in range(fanout % 3):
                children.append(env.process(child(env, wid, c)))
            for ch in children:
                value = yield ch
                trace.append(("joined", wid, value, env.now))

        def child(env, parent, idx):
            yield env.timeout(0.25 * (idx + 1))
            return (parent, idx)

        for wid, (delay, fanout) in enumerate(seed_graph):
            env.process(worker(env, wid, delay, fanout))
        env.run()
        return trace

    assert run_once() == run_once()


#: Repeats, so that arrivals, legs and process steps collide on instants.
TIED = (0.0, 0.0, 0.5, 0.5, 1.0, 1.5)


@given(gaps=st.lists(st.sampled_from(TIED), min_size=1, max_size=12),
       legs=st.lists(st.lists(st.sampled_from(TIED), max_size=3),
                     min_size=12, max_size=12),
       walkers=st.lists(st.lists(st.sampled_from(TIED), min_size=1,
                                 max_size=4), max_size=4))
@settings(max_examples=80, deadline=None)
def test_bare_callback_events_tie_alike_stepped_and_run(
        gaps, legs, walkers):
    """Events whose only waiter is a plain callback — each arming the
    next one and then starting a :class:`Detached` generator, the shape
    of the open-loop load driver — interleaved with process timeouts on
    shared instants pop in one order from ``run()`` and a ``step()``
    loop."""

    def run(drive):
        env = Environment()
        trace = []

        def op(i):
            for leg in legs[i]:
                yield env.timeout(leg)
                trace.append(("leg", i, env.now))

        def arrive(i):
            if i + 1 < len(gaps):
                env.timeout(gaps[i + 1]).callbacks.append(
                    lambda _event: arrive(i + 1))
            trace.append(("arrive", i, env.now))
            Detached(env, op(i),
                     lambda ok, value: trace.append(("exit", i, env.now)))

        def walker(w, delays):
            for delay in delays:
                yield env.timeout(delay)
                trace.append(("walk", w, env.now))

        for w, delays in enumerate(walkers):
            env.process(walker(w, delays))
        env.timeout(gaps[0]).callbacks.append(lambda _event: arrive(0))
        drive(env)
        return trace, env.now, env.events_processed

    def stepped(env):
        while env.peek() != float("inf"):
            env.step()

    assert run(Environment.run) == run(stepped)
