"""Unit tests for simkit resources: Resource, Store."""

import pytest

from repro.simkit import Environment, Interrupt, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity(self, env):
        res = Resource(env, capacity=2)
        log = []

        def user(env, i):
            with res.request() as req:
                yield req
                log.append((env.now, i, "in"))
                yield env.timeout(1)

        for i in range(2):
            env.process(user(env, i))
        env.run()
        assert [t for t, _, _ in log] == [0, 0]

    def test_queueing_beyond_capacity(self, env):
        res = Resource(env, capacity=1)
        entries = []

        def user(env, i):
            with res.request() as req:
                yield req
                entries.append((env.now, i))
                yield env.timeout(2)

        for i in range(3):
            env.process(user(env, i))
        env.run()
        assert entries == [(0, 0), (2, 1), (4, 2)]  # FIFO

    def test_count_and_queue_len(self, env):
        res = Resource(env, capacity=1)
        states = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def observer(env):
            yield env.timeout(1)
            states.append((res.count, len(res.queue)))

        env.process(holder(env))
        env.process(holder(env))
        env.process(observer(env))
        env.run()
        assert states == [(1, 1)]

    def test_explicit_release(self, env):
        res = Resource(env, capacity=1)

        def user(env):
            req = res.request()
            yield req
            yield env.timeout(1)
            res.release(req)
            return env.now

        p = env.process(user(env))
        p2 = env.process(user(env))
        env.run()
        assert p.value == 1 and p2.value == 2

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        got = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            req = res.request()
            result = yield req | env.timeout(1)
            if req not in result:
                res.release(req)  # withdraw from the queue
                return "gave up"
            return "got it"

        def patient(env):
            yield env.timeout(2)
            with res.request() as req:
                yield req
                got.append(env.now)

        env.process(holder(env))
        p = env.process(impatient(env))
        env.process(patient(env))
        env.run()
        assert p.value == "gave up"
        assert got == [10]  # patient got it right when holder released

    def test_double_release_is_noop(self, env):
        res = Resource(env, capacity=1)

        def user(env):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)  # no error

        env.process(user(env))
        env.run()
        assert res.count == 0

    def test_free_slot_costs_no_kernel_event(self, env):
        res = Resource(env, capacity=2)
        assert res.try_acquire()
        req = res.request()
        assert req.processed and req.ok     # born processed
        assert res.count == 2
        assert not res.try_acquire()        # full
        res.release()
        res.release(req)
        assert res.count == 0
        env.run()
        assert env.events_processed == 0

    def test_release_hands_the_slot_to_the_oldest_waiter(self, env):
        res = Resource(env, capacity=1)
        assert res.try_acquire()
        first, second = res.request(), res.request()
        res.release()
        assert res.count == 1 and list(res.queue) == [second]
        assert first.triggered and not first.processed
        # A newcomer must not overtake a grant still in the scheduler.
        res.release(first)
        assert second.triggered and not res.try_acquire()
        env.run()
        assert env.events_processed == 2    # the two grants, nothing else
        assert res.try_acquire() is False and res.count == 1
        res.release(second)
        assert res.try_acquire()

    def test_interrupt_between_grant_and_delivery_passes_the_slot_on(self, env):
        res = Resource(env, capacity=1)
        got = []

        def user(env, name, hold):
            try:
                with res.request() as req:
                    yield req
                    got.append((name, env.now))
                    yield env.timeout(hold)
            except Interrupt:
                got.append((name, "interrupted", env.now))

        a = env.process(user(env, "a", 5))
        b = env.process(user(env, "b", 5))
        env.process(user(env, "c", 1))

        def recycler(env):
            yield env.timeout(2)
            a.interrupt()   # frees the slot: b's grant is triggered ...
            b.interrupt()   # ... and b is interrupted before it arrives

        env.process(recycler(env))
        env.run()
        assert got == [("a", 0), ("a", "interrupted", 2),
                       ("b", "interrupted", 2), ("c", 2)]
        assert res.count == 0 and len(res.queue) == 0


class TestStore:
    def test_fifo_order(self, env):
        s = Store(env)
        out = []

        def producer(env):
            for i in range(3):
                yield s.put(i)

        def consumer(env):
            for _ in range(3):
                item = yield s.get()
                out.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == [0, 1, 2]

    def test_get_blocks_on_empty(self, env):
        s = Store(env)
        times = []

        def consumer(env):
            item = yield s.get()
            times.append((env.now, item))

        def producer(env):
            yield env.timeout(2)
            yield s.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [(2, "x")]

    def test_put_blocks_at_capacity(self, env):
        s = Store(env, capacity=1)
        done = []

        def producer(env):
            yield s.put(1)
            yield s.put(2)
            done.append(env.now)

        def consumer(env):
            yield env.timeout(5)
            yield s.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert done == [5]
