"""Property-based tests (hypothesis) on the simkit kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import Environment, Resource, Store


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
