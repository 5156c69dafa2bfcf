"""``repro.wallclock.exhaust``: the one way a body runs on a thread."""

import time

import pytest

from repro.emulator import EmulatorAccount
from repro.sim import SimStorageAccount
from repro.simkit import Environment
from repro.wallclock import ShimAccount, ThreadedEnv, exhaust


def put_then_count(queue_client):
    yield from queue_client.create_queue("strict")
    yield from queue_client.put_message("strict", b"x")
    return (yield from queue_client.get_message_count("strict"))


def test_exhaust_returns_a_shim_body_and_refuses_a_des_body():
    """Over shim clients the body never yields and its value comes back;
    over sim clients it yields a kernel event no thread can fire, which
    must be an error naming that event — not a resumed generator and a
    result no clock ever paid for."""
    shim = ShimAccount(EmulatorAccount(), None)
    assert exhaust(put_then_count(shim.queue_client())) == 1

    env = Environment()
    sim = SimStorageAccount(env, seed=1)
    with pytest.raises(TypeError, match=r"cannot wait on <Timeout\("):
        exhaust(put_then_count(sim.queue_client()))

    def waits_on_an_event():
        yield env.event()

    with pytest.raises(TypeError, match="cannot wait on <Event object"):
        exhaust(waits_on_an_event())


def test_exhaust_sleeps_timeouts_scaled():
    env = ThreadedEnv(time.monotonic, 0.01)

    def body():
        yield env.timeout(5.0)   # 50 ms of wall clock at 0.01
        yield env.timeout(0.0)
        return "slept"

    start = time.monotonic()
    assert exhaust(body(), env.time_scale) == "slept"
    assert 0.04 <= time.monotonic() - start < 1.0
