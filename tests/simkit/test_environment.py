"""Unit tests for the simkit environment/event loop."""

import pytest

from repro.simkit import EmptySchedule, Environment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_initial_time(self):
        assert Environment(initial_time=100).now == 100.0

    def test_peek_empty(self, env):
        assert env.peek() == float("inf")

    def test_peek_next_event(self, env):
        env.timeout(7)
        env.timeout(3)
        assert env.peek() == 3

    def test_step_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRun:
    def test_run_until_empty(self, env):
        env.timeout(5)
        env.run()
        assert env.now == 5

    def test_run_until_time_sets_clock_exactly(self, env):
        env.timeout(10)
        env.run(until=4)
        assert env.now == 4

    def test_run_until_time_processes_due_events(self, env):
        fired = []
        t = env.timeout(3)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=5)
        assert fired == [3]

    def test_run_until_past_time_rejected(self, env):
        env.run(until=10)
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_run_until_event_returns_value(self, env):
        t = env.timeout(2, value="v")
        assert env.run(until=t) == "v"
        assert env.now == 2

    def test_run_until_processed_event_returns_immediately(self, env):
        t = env.timeout(1, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_run_until_failed_event_raises(self, env):
        e = env.event()

        def failer(env):
            yield env.timeout(1)
            e.fail(ValueError("x"))

        env.process(failer(env))
        with pytest.raises(ValueError):
            env.run(until=e)

    def test_run_until_unreachable_event_raises(self, env):
        e = env.event()  # never triggered
        env.timeout(1)
        with pytest.raises(RuntimeError, match="not triggered"):
            env.run(until=e)

    def test_run_resumes_after_horizon(self, env):
        env.timeout(10)
        env.run(until=5)
        env.run()
        assert env.now == 10

    def test_run_until_now_is_noop(self, env):
        env.run(until=0)
        assert env.now == 0


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def trace_run(seed_order):
            env = Environment()
            log = []

            def worker(env, i):
                for _ in range(3):
                    yield env.timeout(0.5 + (i % 3) * 0.25)
                    log.append((env.now, i))

            for i in seed_order:
                env.process(worker(env, i))
            env.run()
            return log

        order = list(range(8))
        assert trace_run(order) == trace_run(order)

    def test_priority_ordering_urgent_first(self, env):
        from repro.simkit import NORMAL, URGENT
        order = []
        a = env.event()
        a.callbacks.append(lambda e: order.append("normal"))
        b = env.event()
        b.callbacks.append(lambda e: order.append("urgent"))
        # Schedule both at the same time, different priorities.
        a._ok, a._value = True, None
        env.schedule(a, priority=NORMAL)
        b._ok, b._value = True, None
        env.schedule(b, priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_any_integer_priority_orders_an_instant(self, env):
        order = []
        for priority in (5, 1, -3, 5):
            event = env.event()
            event._ok, event._value = True, None
            event.callbacks.append(
                lambda _e, p=priority: order.append(p))
            env.schedule(event, priority=priority)
        env.run()
        assert order == [-3, 1, 5, 5]


class TestRunUntilEdgeCases:
    def test_until_triggered_unprocessed_event(self, env):
        """run(until=e) where e is triggered but its callbacks not yet run."""
        e = env.event()
        e.succeed("v")
        assert not e.processed
        assert env.run(until=e) == "v"
        assert e.processed

    def test_until_event_processes_same_time_events(self, env):
        order = []
        t1 = env.timeout(1)
        t1.callbacks.append(lambda _e: order.append("t1"))
        t2 = env.timeout(1)
        t2.callbacks.append(lambda _e: order.append("t2"))
        env.run(until=t1)
        # t1 fired; t2 (same timestamp, later insertion) not yet.
        assert order == ["t1"]
        env.run()
        assert order == ["t1", "t2"]

    def test_nested_run_via_condition_values(self, env):
        t1, t2, t3 = env.timeout(1, "a"), env.timeout(2, "b"), env.timeout(3, "c")
        first = env.run(until=t1 | t2)
        assert list(first.values()) == ["a"]
        rest = env.run(until=t2 & t3)
        assert set(rest.values()) == {"b", "c"}

    def test_tracer_exception_propagates(self, env):
        def bad_tracer(t, e):
            raise RuntimeError("tracer bug")

        env.tracer = bad_tracer
        env.timeout(1)
        with pytest.raises(RuntimeError, match="tracer bug"):
            env.run()


class TestScheduleGuards:
    """The kernel refuses to rewind the clock (fast paths included)."""

    def test_schedule_in_the_past_rejected(self, env):
        env.timeout(5)
        env.run()
        e = env.event()
        e._ok, e._value = True, None
        with pytest.raises(ValueError, match="before now"):
            env.schedule(e, delay=-2)

    def test_schedule_error_names_the_time(self, env):
        env.timeout(10)
        env.run()
        e = env.event()
        e._ok, e._value = True, None
        with pytest.raises(ValueError, match=r"t=7.*3.*before now.*10"):
            env.schedule(e, delay=-3)

    def test_timeout_negative_delay_rejected(self, env):
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-1)

    def test_schedule_at_now_allowed(self, env):
        e = env.event()
        e._ok, e._value = True, None
        env.schedule(e, delay=0)
        env.run()
        assert e.processed


class TestKernelFastPaths:
    """The inlined run() loops must behave exactly like step()-by-step."""

    def test_events_processed_counts_match_step_loop(self):
        def build():
            env = Environment()

            def worker(env):
                for _ in range(5):
                    yield env.timeout(1)

            for _ in range(3):
                env.process(worker(env))
            return env

        fast = build()
        fast.run()

        from repro.simkit import EmptySchedule
        stepped = build()
        try:
            while True:
                stepped.step()
        except EmptySchedule:
            pass
        assert fast.events_processed == stepped.events_processed
        assert fast.now == stepped.now

    def test_events_processed_counted_with_tracer(self, env):
        seen = []
        env.tracer = lambda t, e: seen.append(t)
        env.timeout(1)
        env.timeout(2)
        env.run()
        assert env.events_processed == 2
        assert seen == [1, 2]

    def test_until_event_counter_flushed_on_failure(self, env):
        e = env.event()

        def failer(env):
            yield env.timeout(1)
            e.fail(ValueError("x"))

        env.process(failer(env))
        with pytest.raises(ValueError):
            env.run(until=e)
        assert env.events_processed >= 1

    def test_timeout_fast_path_fields(self, env):
        t = env.timeout(3, value="payload")
        assert t.env is env and t.callbacks == []
        assert t._ok and not t._defused
        assert t._delay == 3
        env.run(until=t)
        assert env.now == 3

    def test_failed_event_still_raises_from_fast_loop(self, env):
        e = env.event()
        e.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
