"""``step()`` vs the inlined ``run()`` loops (property-based).

``Environment.run`` inlines :meth:`~repro.simkit.Environment.step` three
times — run dry, run to a horizon, run to an event — and those copies
are only valid if every observable (event pop order, clock values,
``events_processed``, the message of an undefused failure) is what a
plain ``step()`` loop gives.  These tests drive one randomized program
(timeouts on tied instants, schedule-at-now ties, resource grant and
cancel, interrupts, a failure nobody waits for) through the step loop
and through each ``run`` form, the bounded ones stopped mid-program —
mid-instant for an event — and then resumed, and assert the observations
match exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import (
    EmptySchedule,
    Environment,
    Interrupt,
    Process,
    Resource,
    Timeout,
)

#: Deliberate repeats so many events collide on the same instant — where
#: a loop that stops or resumes mid-instant could plausibly reorder.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.5)


def _label(event):
    """A run-independent identity for a traced event."""
    if isinstance(event, Process):
        return ("proc", event.name)
    if isinstance(event, Timeout):
        return ("timeout", event._value)
    value = getattr(event, "_value", None)
    if isinstance(value, Interrupt):
        return ("interrupt", value.cause)
    if isinstance(value, (int, float, str, tuple, type(None))):
        return (type(event).__name__, value)
    return (type(event).__name__, None)


def _build(program, interrupt_mask, boom):
    """Set one randomized program up; return ``(env, trace, procs)``.

    Each client walks its steps: optionally fire an event at *now*
    (schedule-at-now tie), optionally request-then-release a contended
    resource (exercises grant and cancel paths), then sleep.  The
    interrupter throws :class:`Interrupt` into masked clients mid-run.
    Step number ``boom`` (counted over all clients, if the program is
    that long) also fails an event nobody waits for.
    """
    env = Environment()
    res = Resource(env, capacity=1)
    trace = []
    env.tracer = lambda t, ev: trace.append((t, _label(ev)))
    taken = [0]

    def client(cid, steps):
        try:
            for sid, (delay, fire_now, touch_res) in enumerate(steps):
                if fire_now:
                    ev = env.event()
                    ev.succeed(("now", cid, sid))
                if touch_res:
                    req = res.request()
                    res.release(req)
                if taken[0] == boom:
                    env.event().fail(RuntimeError(f"boom {cid}.{sid}"))
                taken[0] += 1
                yield env.timeout(delay, value=(cid, sid))
        except Interrupt:
            pass

    procs = [env.process(client(cid, steps), name=f"client-{cid}")
             for cid, steps in enumerate(program)]

    def interrupter():
        for cid, proc in enumerate(procs):
            if interrupt_mask & (1 << cid):
                yield env.timeout(0.5)
                if proc.is_alive:
                    proc.interrupt(("stop", cid))

    env.process(interrupter(), name="interrupter")
    return env, trace, procs


def _step_loop(env, procs):
    try:
        while True:
            env.step()
    except EmptySchedule:
        pass


def _run_dry(env, procs):
    env.run()


def _run_to_horizon_then_on(horizon):
    def drive(env, procs):
        env.run(until=horizon)
        assert env.now == horizon
        env.run()
    return drive


def _run_to_event_then_on(pick):
    def drive(env, procs):
        # Tied instants leave events queued at ``now`` when this returns.
        env.run(until=procs[pick % len(procs)])
        env.run()
    return drive


def _observe(drive, program, interrupt_mask, boom):
    """Everything a caller can see of one program under one driver."""
    env, trace, procs = _build(program, interrupt_mask, boom)
    failure = None
    try:
        drive(env, procs)
    except RuntimeError as exc:
        failure = str(exc)
    return trace, env.now, env.events_processed, failure


_STEP = st.tuples(st.sampled_from(DELAYS), st.booleans(), st.booleans())
_PROGRAM = st.lists(st.lists(_STEP, min_size=1, max_size=6),
                    min_size=1, max_size=6)
_HORIZONS = (0.0, 0.5, 1.0, 1.75, 3.0)


class TestPopOrderEquivalence:
    @given(program=_PROGRAM, interrupt_mask=st.integers(0, 63),
           boom=st.integers(0, 40), horizon=st.sampled_from(_HORIZONS),
           pick=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_traces_identical(self, program, interrupt_mask, boom, horizon,
                              pick):
        stepped = _observe(_step_loop, program, interrupt_mask, boom)
        assert _observe(_run_dry, program, interrupt_mask, boom) == stepped
        assert _observe(_run_to_event_then_on(pick), program,
                        interrupt_mask, boom) == stepped
        trace, now, processed, failure = _observe(
            _run_to_horizon_then_on(horizon), program, interrupt_mask, boom)
        # A horizon past the last event is where that clock stays.
        ends = stepped[1] if stepped[3] else max(stepped[1], horizon)
        assert (trace, now, processed, failure) == (
            stepped[0], ends, stepped[2], stepped[3])

    @given(delays=st.lists(st.sampled_from(DELAYS), min_size=1,
                           max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_step_and_peek_parity(self, delays):
        def build():
            env = Environment()
            seq = []
            env.tracer = lambda t, ev: seq.append((t, ev._value))
            for i, delay in enumerate(delays):
                env.timeout(delay, value=i)
            return env, seq

        env, stepped = build()
        while env.peek() != float("inf"):
            horizon = env.peek()
            env.step()
            assert env.now == horizon
        with pytest.raises(EmptySchedule):
            env.step()
        ran, seq = build()
        ran.run()
        assert (seq, ran.now, ran.events_processed) == (
            stepped, env.now, env.events_processed)

    @given(until=st.sampled_from(_HORIZONS),
           delays=st.lists(st.sampled_from(DELAYS), min_size=1,
                           max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_run_until_time_parity(self, until, delays):
        def build():
            env = Environment()
            trace = []
            env.tracer = lambda t, ev: trace.append((t, _label(ev)))
            for i, delay in enumerate(delays):
                env.timeout(delay, value=i)
            return env, trace

        env, stepped = build()
        while env.peek() <= until:
            env.step()
        ran, trace = build()
        ran.run(until=until)
        assert (trace, ran.events_processed) == (stepped,
                                                 env.events_processed)
        assert ran.now == until
