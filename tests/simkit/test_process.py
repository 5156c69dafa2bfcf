"""Unit tests for simkit processes: lifecycle, interrupts, failures."""

import pytest

from repro.simkit import Detached, Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


class TestProcessLifecycle:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "result"

        p = env.process(proc(env))
        env.run()
        assert p.value == "result"
        assert not p.is_alive

    def test_implicit_none_return(self, env):
        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        env.run()
        assert p.value is None

    def test_process_is_event(self, env):
        def child(env):
            yield env.timeout(2)
            return 7

        def parent(env):
            value = yield env.process(child(env))
            return value * 2

        p = env.process(parent(env))
        env.run()
        assert p.value == 14 and env.now == 2

    def test_non_generator_rejected(self, env):
        with pytest.raises(ValueError):
            env.process(lambda: None)

    def test_yield_non_event_fails_process(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        with pytest.raises(RuntimeError, match="expected an Event"):
            env.run()
        assert not p.is_alive and not p.ok

    def test_exception_propagates_if_unwaited(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("inner")

        env.process(proc(env))
        with pytest.raises(ValueError, match="inner"):
            env.run()

    def test_exception_delivered_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(waiter(env))
        env.run()
        assert p.value == "caught inner"

    def test_immediate_completion(self, env):
        def proc(env):
            return "instant"
            yield  # pragma: no cover

        p = env.process(proc(env))
        env.run()
        assert p.value == "instant" and env.now == 0

    def test_name_defaults_and_override(self, env):
        def named_body(env):
            yield env.timeout(1)

        p1 = env.process(named_body(env))
        p2 = env.process(named_body(env), name="custom")
        assert p1.name == "process" or p1.name  # generator name fallback
        assert p2.name == "custom"
        env.run()

    def test_active_process_tracking(self, env):
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(1)

        p = env.process(proc(env))
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as i:
                return ("interrupted", i.cause)

        def attacker(env, target):
            yield env.timeout(5)
            target.interrupt("reason")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run(until=v)
        assert env.now == 5
        assert v.value == ("interrupted", "reason")
        # The orphaned timeout still fires later; it just resumes nobody.
        env.run()
        assert env.now == 100

    def test_interrupted_process_can_continue(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(3)
            return env.now

        def attacker(env, target):
            yield env.timeout(5)
            target.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert v.value == 8

    def test_uncaught_interrupt_fails_process(self, env):
        def victim(env):
            yield env.timeout(100)

        def attacker(env, target):
            yield env.timeout(1)
            target.interrupt("boom")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        # An uncaught interrupt fails the process like any other exception,
        # and with no waiter the failure propagates out of run().
        with pytest.raises(Interrupt):
            env.run()
        assert not v.is_alive and not v.ok

    def test_uncaught_interrupt_delivered_to_waiter(self, env):
        def victim(env):
            yield env.timeout(100)

        def attacker(env, target):
            yield env.timeout(1)
            target.interrupt("boom")

        def waiter(env, target):
            try:
                yield target
            except Interrupt as i:
                return ("waiter saw", i.cause)

        v = env.process(victim(env))
        env.process(attacker(env, v))
        w = env.process(waiter(env, v))
        env.run()
        assert w.value == ("waiter saw", "boom")

    def test_cannot_interrupt_dead_process(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_cannot_interrupt_self(self, env):
        def proc(env):
            env.active_process.interrupt()
            yield env.timeout(1)

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="not allowed to interrupt itself"):
            env.run()

    def test_interrupt_unsubscribes_from_target(self, env):
        """After an interrupt, the old target firing must not resume twice."""
        log = []

        def victim(env):
            t = env.timeout(10, "late")
            try:
                value = yield t
                log.append(("normal", value))
            except Interrupt:
                log.append(("interrupted", env.now))
            yield env.timeout(20)
            log.append(("end", env.now))

        def attacker(env, target):
            yield env.timeout(1)
            target.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == [("interrupted", 1), ("end", 21)]

    def test_interrupt_repr_and_cause(self, env):
        i = Interrupt("why")
        assert i.cause == "why"
        assert "why" in str(i)


class TestDetached:
    """A generator on the process resume loop that is no event itself."""

    def run(self, env, generator):
        exits = []
        Detached(env, generator, lambda ok, value: exits.append((ok, value)))
        return exits

    def test_starts_in_the_constructor_and_costs_no_event(self, env):
        seen = []

        def gen(env):
            seen.append(("started", env.now))
            got = yield env.timeout(2, value="tick")
            seen.append((got, env.now))
            return "result"

        exits = self.run(env, gen(env))
        assert seen == [("started", 0.0)] and exits == []
        env.run()
        assert seen[-1] == ("tick", 2.0)
        assert exits == [(True, "result")]
        assert env.events_processed == 1  # the timeout, nothing else

    def test_finishing_without_a_yield_exits_synchronously(self, env):
        def gen():
            return 5
            yield

        assert self.run(env, gen()) == [(True, 5)]
        assert env.peek() == float("inf")

    def test_failed_event_is_thrown_in_and_defused(self, env):
        trigger = env.event()

        def gen():
            try:
                yield trigger
            except KeyError as exc:
                return ("caught", exc.args[0])

        exits = self.run(env, gen())
        trigger.fail(KeyError("boom"))
        env.run()  # defused: the kernel does not re-raise
        assert exits == [(True, ("caught", "boom"))]

    def test_exception_reaches_on_exit_not_the_kernel(self, env):
        def gen(env):
            yield env.timeout(1)
            raise ValueError("bad op")

        exits = self.run(env, gen(env))
        env.run()
        (ok, value), = exits
        assert not ok and isinstance(value, ValueError)

    def test_what_on_exit_raises_leaves_env_run(self, env):
        def gen(env):
            yield env.timeout(1)
            raise ValueError("bad op")

        def on_exit(ok, value):
            raise value

        Detached(env, gen(env), on_exit)
        with pytest.raises(ValueError, match="bad op"):
            env.run()
        assert env.active_process is None

    def test_processed_events_continue_without_suspending(self, env):
        old = env.timeout(0, value="old")
        env.run()

        def gen():
            return (yield old)

        assert self.run(env, gen()) == [(True, "old")]

    def test_non_event_yield_closes_the_generator(self, env):
        closed = []

        def gen():
            try:
                yield 42
            finally:
                closed.append(True)

        (ok, value), = self.run(env, gen())
        assert closed == [True] and not ok
        assert "expected an Event" in str(value)

    def test_is_no_active_process_and_hands_a_process_its_clock_back(
            self, env):
        seen = []

        def gen(env):
            seen.append(env.active_process)
            yield env.timeout(1)
            seen.append(env.active_process)

        def parent(env):
            Detached(env, gen(env), lambda ok, value: None)
            seen.append(env.active_process.name)
            yield env.timeout(5)

        env.process(parent(env), name="parent")
        env.run()
        assert seen == [None, "parent", None]

    def test_same_clock_as_a_process_minus_its_two_events(self):
        """A process pays an _Initialize and an exit event around the
        same generator; the timeline inside is identical."""
        def gen(env, log):
            for delay in (0.5, 0.0, 1.25):
                yield env.timeout(delay)
                log.append(env.now)

        as_process, detached = Environment(), Environment()
        log_p, log_d = [], []
        as_process.process(gen(as_process, log_p))
        Detached(detached, gen(detached, log_d), lambda ok, value: None)
        as_process.run()
        detached.run()
        assert log_p == log_d == [0.5, 0.5, 1.75]
        assert as_process.events_processed == detached.events_processed + 2
